"""The command lines exit quietly when stdout's reader has gone.

Every ``python -m repro.exp.*`` command line shares
:func:`repro.exp.cli.quiet_broken_pipe`.  With stdout a pipe whose
reader has gone, a buffered write fails at the flush and an unbuffered
one at the ``print``; either way the command exits without a traceback
or ``Exception ignored`` on stderr.
"""

import pytest

from repro.exp.cache import CACHE_ENV_VAR

CLIS = ["repro.exp.cache", "repro.exp.service", "repro.exp.smoke"]


@pytest.mark.parametrize("mode", ["buffered", "unbuffered"])
@pytest.mark.parametrize("cli", CLIS)
def test_help_into_a_closed_pipe_exits_quietly(run_into_closed_pipe, cli,
                                               mode):
    """Buffered, argparse's exit after ``--help`` must still flush inside
    the guard (exit 1); unbuffered, argparse swallows the failed write
    and exits 0."""
    done = run_into_closed_pipe([cli, "--help"], mode)
    expected = 1 if mode == "buffered" else 0
    assert (done.returncode, done.stderr) == (expected, b"")


def test_smoke_into_a_closed_pipe_exits_quietly(run_into_closed_pipe,
                                                monkeypatch):
    """Unbuffered, the smoke's first ``print`` fails; it must exit 1
    with nothing on stderr.  A temp cache keeps the run hermetic."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    done = run_into_closed_pipe(["repro.exp.smoke"], "unbuffered")
    assert (done.returncode, done.stderr) == (1, b"")
