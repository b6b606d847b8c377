"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5)
        yield sim.timeout(2.5)
        return "done"

    p = sim.process(proc(sim))
    sim.run()
    assert sim.now == 7.5
    assert p.value == "done"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_timeout_value_passed_to_process():
    sim = Simulator()
    seen = []

    def proc(sim):
        value = yield sim.timeout(1, value="hello")
        seen.append(value)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["hello"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(sim, 3, "c"))
    sim.process(proc(sim, 1, "a"))
    sim.process(proc(sim, 2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1)
        order.append(tag)

    for tag in "abcdef":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list("abcdef")


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(10)

    sim.process(proc(sim))
    sim.run(until=25)
    assert sim.now == 25
    assert sim.pending_events > 0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5)
    with pytest.raises(SimulationError):
        sim.run(until=1)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(4)
        return 42

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 42
    assert sim.now == 4


def test_process_waits_on_another_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "child-result"


def test_waiting_on_already_finished_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        return 7

    def parent(sim, child_proc):
        yield sim.timeout(10)  # child is long done
        value = yield child_proc
        return value

    child_proc = sim.process(child(sim))
    parent_proc = sim.process(parent(sim, child_proc))
    sim.run()
    assert parent_proc.value == 7


def test_manual_event_succeed():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter(sim, gate):
        value = yield gate
        log.append(value)

    def opener(sim, gate):
        yield sim.timeout(5)
        gate.succeed("open")

    sim.process(waiter(sim, gate))
    sim.process(opener(sim, gate))
    sim.run()
    assert log == ["open"]
    assert gate.processed and gate.ok


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_failed_event_raises_in_process():
    sim = Simulator()
    caught = []

    def waiter(sim, gate):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    gate = sim.event()
    sim.process(waiter(sim, gate))
    gate.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failure_propagates_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("process blew up")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="process blew up"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()
    caught = []

    def bad(sim):
        try:
            yield 42
        except SimulationError as exc:
            caught.append(str(exc))

    sim.process(bad(sim))
    sim.run()
    assert len(caught) == 1 and "non-event" in caught[0]


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_step_on_empty_queue_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        trace = []

        def proc(sim, tag, period):
            while True:
                yield sim.timeout(period)
                trace.append((sim.now, tag))

        sim.process(proc(sim, "x", 3))
        sim.process(proc(sim, "y", 5))
        sim.run(until=100)
        return trace

    assert build() == build()
