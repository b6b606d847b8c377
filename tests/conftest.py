"""Fixtures shared by several test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
