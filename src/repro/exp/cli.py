"""What the ``python -m repro.exp.*`` command lines share.

:func:`quiet_broken_pipe` wraps each ``main``: the cache CLI
(``repro.exp.cache``), the sweep service CLI (``repro.exp.service``)
and the smoke (``repro.exp.smoke``).
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Callable

__all__ = ["quiet_broken_pipe"]


def quiet_broken_pipe(main: Callable[..., int]) -> Callable[..., int]:
    """``main``, exiting 1 quietly when stdout's reader has gone.

    Stdout is flushed before ``main`` returns, and also when it raises
    :class:`SystemExit` (argparse's ``--help`` and usage errors), so a
    reader that went away fails here and not in the interpreter's flush
    at exit.  A :class:`BrokenPipeError` from that flush or from a
    ``print`` inside ``main`` points stdout at devnull, so the flush at
    exit cannot fail too, and returns 1 with nothing on stderr.
    """

    @functools.wraps(main)
    def guarded(*args, **kwargs) -> int:
        try:
            try:
                code = main(*args, **kwargs)
            except SystemExit:
                sys.stdout.flush()
                raise
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        return code

    return guarded
