"""Core of the discrete-event simulation kernel.

The kernel follows the classic event-loop design popularised by SimPy:

- A :class:`Simulator` owns a priority queue of scheduled events ordered
  by ``(time, priority, sequence)``.  The ``sequence`` tie-break makes the
  kernel fully deterministic: two events scheduled for the same time fire
  in scheduling order.
- An :class:`Event` can be *pending* (nobody triggered it yet),
  *triggered* (it carries a value and sits in the queue) or *processed*
  (its callbacks have run).
- A :class:`Process` wraps a Python generator.  The generator yields
  events; whenever a yielded event is processed the generator is resumed
  with the event's value (or the event's exception is thrown into it).

The kernel is intentionally small: processes wait on timeouts, on
manually triggered events and on each other, and a :class:`Replan`
runs an action at an absolute time.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Process",
    "Replan",
    "Simulator",
    "Timeout",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for events that must run before ordinary events
#: scheduled at the same time (process start-up and replans).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class _Pending:
    """Sentinel for the value of a not-yet-triggered event."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence in simulated time.

    Events move through three states:

    ``pending``
        created, not yet triggered; ``triggered`` and ``processed`` are
        both ``False``.
    ``triggered``
        :meth:`succeed` or :meth:`fail` was called; the event sits in the
        simulator queue with its value attached.
    ``processed``
        the simulator popped the event and ran its callbacks.

    Callbacks receive the event itself.  Adding a callback to an already
    processed event schedules an immediate (same-time) delivery, which
    keeps "wait on something that already happened" race-free.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._processed: bool = False
        self._defused: bool = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event carries a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises :class:`~repro.errors.SimulationError` when read before the
        event triggers.
        """
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on the event.
        If nothing ever waits on a failed event the simulator re-raises it
        at processing time (errors never pass silently).
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, delay=0.0, priority=priority)
        return self

    # -- wiring ----------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback is scheduled
        for immediate delivery at the current simulation time.
        """
        if self._processed:
            self.sim._enqueue_call(callback, self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers itself ``delay`` time units in the future."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self._ok = True
        self._value = value
        sim._enqueue(self, delay=delay, priority=NORMAL)


class Replan(Event):
    """An absolute-time control event that runs an action when processed.

    The online scenario engine schedules one per task arrival/departure.
    Two properties order it against the CPU runners:

    - it is queued at *creation*, so it keeps the run alive until it
      fires even when every process idles, and
    - it fires with URGENT priority, so at its exact instant the action
      runs *before* any runner timeout scheduled for the same time: ops
      issued at or after the replan time see the new platform state,
      while ops issued earlier have already applied their memory
      effects (every engine executes an op's accesses at its start
      time).
    """

    __slots__ = ("action",)

    def __init__(self, sim: "Simulator", at: float, action: Callable[[], None]):
        if at < sim.now:
            raise SimulationError(
                f"replan at {at!r} is in the past (now={sim.now})"
            )
        super().__init__(sim)
        self._ok = True
        self._value = None
        self.action = action
        sim._enqueue(self, delay=at - sim.now, priority=URGENT)
        self.add_callback(self._fire)

    def _fire(self, _event: Event) -> None:
        self.action()


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator"):
        super().__init__(sim)
        self._ok = True
        self._value = None
        sim._enqueue(self, delay=0.0, priority=URGENT)


class Process(Event):
    """A generator-driven simulation process.

    The process is itself an event: it triggers when the generator
    returns (successfully, with the generator's return value) or raises
    (as a failure).  This lets processes wait on each other by yielding
    the other process.
    """

    __slots__ = ("generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        init = Initialize(sim)
        init.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    # -- internal --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    next_event = self.generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self.generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.sim._enqueue(self, delay=0.0, priority=NORMAL)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.sim._enqueue(self, delay=0.0, priority=NORMAL)
                break

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = Event(self.sim)
                event._ok = False
                event._value = error
                event._defused = True
                continue
            if next_event.sim is not self.sim:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
            if next_event._processed:
                # Already done: loop around synchronously with its value.
                event = next_event
                continue
            next_event.add_callback(self._resume)
            break

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {status}>"


class Simulator:
    """The discrete-event scheduler.

    Typical usage::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(10)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 10 and proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list = []
        self._sequence = 0
        self._events_processed = 0

    # -- properties --------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events popped and delivered since construction.

        The event count is the kernel-side cost metric of a run.  The
        CPU runners spend the same events per op on every execution
        engine, so a run's count does not depend on the engine (the
        differential tests assert this); the schedule benchmark
        reports it alongside wall time.
        """
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._queue)

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Register ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    def schedule_replan(self, at: float, action: Callable[[], None]) -> "Replan":
        """Schedule ``action()`` at absolute time ``at`` (urgent).

        Keeps the run alive until it fires even if all processes idle.
        """
        return Replan(self, at, action)

    # -- scheduling ----------------------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        self._sequence += 1
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._sequence, event)
        )

    def _enqueue_call(self, callback: Callable[[Event], None], event: Event) -> None:
        """Schedule an immediate delivery of ``event`` to ``callback``."""
        bridge = Event(self)
        bridge._ok = event._ok
        bridge._value = event._value
        bridge._defused = True
        bridge.callbacks = []
        self._enqueue(bridge, delay=0.0, priority=NORMAL)
        bridge.add_callback(lambda _bridge: callback(event))

    def step(self) -> None:
        """Process exactly one event from the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        time, _priority, _seq, event = heapq.heappop(self._queue)
        if time < self._now:
            raise SimulationError("event scheduled in the past")  # pragma: no cover
        self._now = time
        self._events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event._ok and not event._defused:
            # A failure nobody listened to: surface it.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until the event queue drains;
        - a number: run all events up to that time, then set ``now`` to it;
        - an :class:`Event`: run until that event has been processed and
          return its value (re-raising if the event failed).
        """
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before `until` triggered"
                    )
                self.step()
            if not stop._ok:
                raise stop._value
            return stop._value
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None

    def __repr__(self) -> str:
        return f"<Simulator now={self._now} queued={len(self._queue)}>"
