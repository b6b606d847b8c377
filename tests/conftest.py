"""Fixtures shared by several test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - the property tests need it
    pass
else:
    # Tier-1 runs the same examples on every run: no random draws, no
    # replay of earlier failures from a database, and no deadline (the
    # shared hosts' speed drifts).  A test's own settings give only its
    # example count.  ``--hypothesis-profile=fuzz`` draws fresh examples
    # instead, for a longer exploring run.
    settings.register_profile(
        "tier1", derandomize=True, deadline=None, database=None
    )
    settings.register_profile(
        "fuzz", derandomize=False, deadline=None, database=None
    )
    settings.load_profile("tier1")


@pytest.fixture
def run_into_closed_pipe():
    """Run ``python -m ARGS`` with stdout a pipe whose reader has gone.

    The returned function takes the arguments and ``"buffered"`` or
    ``"unbuffered"`` (``PYTHONUNBUFFERED=1``) and returns the finished
    process, with its stderr captured.  The read end is closed before
    the child starts, so its first write to stdout fails, every time.
    """

    def run(args, mode):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env.pop("PYTHONUNBUFFERED", None)
        if mode == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(
                [sys.executable, "-m", *args], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)

    return run
