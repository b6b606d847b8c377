"""Discrete-event simulation kernel.

A small, deterministic kernel under the CAKE tile's CPU runners
(:mod:`repro.cake`) and their scheduler (:mod:`repro.rtos`).  The
public surface is:

- :class:`~repro.sim.kernel.Simulator` -- one heap of scheduled
  actions: process starts, resumes, wakes and replans.
- :class:`~repro.sim.kernel.Event` -- a one-shot wake-up a process
  yields to wait on.
- :class:`~repro.sim.rng.RngHub` -- deterministic named random streams.
"""

from repro.sim.kernel import Event, Simulator
from repro.sim.rng import RngHub

__all__ = [
    "Event",
    "RngHub",
    "Simulator",
]
