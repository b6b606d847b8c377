"""Discrete-event simulation kernel: one heap of scheduled actions.

A :class:`Simulator` owns a heap of ``(time, priority, sequence,
action)`` entries and runs the actions in that order.  The ``sequence``
tie-break makes the kernel fully deterministic: two actions due at the
same time and priority run in scheduling order.  An action is one of:

- a process *start* (:meth:`Simulator.process`), due now, URGENT;
- a process *resume* after the delay it yielded, NORMAL;
- a *wake* of the process waiting on an :class:`Event`, due when
  :meth:`Event.succeed` ran, NORMAL;
- a *replan* (:meth:`Simulator.schedule_replan`), at an absolute time,
  URGENT.

A process is a Python generator.  It yields either a delay (a finite
number ``>= 0``) or an :class:`Event`, and the kernel resumes it when
the delay has passed or the event succeeded.  A finished process
schedules nothing; an exception raised in one leaves
:meth:`Simulator.run` at once.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Generator, Optional

from repro.errors import SimulationError

__all__ = ["Event", "Simulator", "URGENT", "NORMAL"]

#: Priority of process starts and replans: they run before the resumes
#: and wakes due at the same time.
URGENT = 0

#: Priority of resumes and wakes.
NORMAL = 1

Action = Callable[[], None]


class Event:
    """A one-shot wake-up that one process waits on.

    The waiting process yields the event right after creating it, so
    the event cannot succeed before its waiter is set.
    :meth:`~repro.rtos.scheduler.Scheduler.wait_for_work` is the only
    producer, and it works this way; the kernel relies on it and
    handles no later waiter.
    """

    __slots__ = ("sim", "triggered", "_waiter")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: True once :meth:`succeed` ran.
        self.triggered = False
        self._waiter: Optional[Action] = None

    def succeed(self) -> None:
        """Wake the waiter, after the actions already due at this instant."""
        if self.triggered:
            raise SimulationError("the event has already been triggered")
        self.triggered = True
        self.sim._schedule(self.sim._now, NORMAL, self._waiter)


class Simulator:
    """The discrete-event scheduler: ``process`` generators, then ``run``."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list = []
        self._sequence = 0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Actions run since construction: starts, resumes, wakes, replans.

        The count is the kernel-side cost metric of a run.  The CPU
        runners schedule the same actions per op on every execution
        engine, so a run's count does not depend on the engine (the
        differential tests assert this); the schedule benchmark reports
        it alongside wall time.
        """
        return self._events_processed

    def event(self) -> Event:
        """Create an event for the calling process to yield at once."""
        return Event(self)

    def process(self, generator: Generator) -> None:
        """Start ``generator`` now, before the other actions due now."""
        inf = math.inf

        def resume() -> None:
            try:
                yielded = next(generator)
            except StopIteration:
                return
            if isinstance(yielded, (int, float)) and 0 <= yielded < inf:
                self._schedule(self._now + yielded, NORMAL, resume)
            elif isinstance(yielded, Event):
                yielded._waiter = resume
            else:
                raise SimulationError(
                    f"a process yielded {yielded!r}: expected a delay >= 0 "
                    f"and finite, or an Event"
                )

        self._schedule(self._now, URGENT, resume)

    def schedule_replan(self, at: float, action: Action) -> None:
        """Run ``action()`` at absolute time ``at``, URGENT.

        Queued at once, so the run cannot end before it fires, even
        when every process idles.  At its instant it runs before every
        resume due then: ops issued at or after ``at`` see the new
        platform state, while ops issued earlier have already applied
        their memory effects (every engine executes an op's accesses
        at its start time).
        """
        if not math.isfinite(at):
            raise SimulationError(f"replan at {at!r}: not a finite time")
        if at < self._now:
            raise SimulationError(
                f"replan at {at!r} is in the past (now={self._now})"
            )
        self._schedule(float(at), URGENT, action)

    def run(self) -> None:
        """Run the scheduled actions in order; return when none is left."""
        queue = self._queue
        while queue:
            self._now, _priority, _sequence, action = heapq.heappop(queue)
            self._events_processed += 1
            action()

    def _schedule(self, time: float, priority: int, action: Action) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (time, priority, self._sequence, action))
