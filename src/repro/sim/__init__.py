"""Discrete-event simulation kernel.

A small, deterministic, SimPy-flavoured kernel used by every other
subsystem in the library.  The public surface is:

- :class:`~repro.sim.kernel.Simulator` -- the event loop.
- :class:`~repro.sim.kernel.Event`, :class:`~repro.sim.kernel.Timeout`,
  :class:`~repro.sim.kernel.Process` -- the event types processes yield.
- :class:`~repro.sim.rng.RngHub` -- deterministic named random streams.
"""

from repro.sim.kernel import Event, Process, Simulator, Timeout
from repro.sim.rng import RngHub

__all__ = [
    "Event",
    "Process",
    "RngHub",
    "Simulator",
    "Timeout",
]
