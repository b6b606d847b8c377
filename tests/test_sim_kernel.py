"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield 5
        yield 2.5
        log.append("done")

    sim.process(proc())
    sim.run()
    assert sim.now == 7.5
    assert log == ["done"]


def test_negative_timeout_rejected():
    sim = Simulator()

    def proc():
        yield -1

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, tag):
        yield delay
        order.append(tag)

    sim.process(proc(3, "c"))
    sim.process(proc(1, "a"))
    sim.process(proc(2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield 1
        order.append(tag)

    for tag in "abcdef":
        sim.process(proc(tag))
    sim.run()
    assert order == list("abcdef")


def test_manual_event_succeed():
    sim = Simulator()
    gates = []
    log = []

    def waiter():
        gate = sim.event()
        gates.append(gate)
        yield gate
        log.append(sim.now)

    def opener():
        yield 5
        gates[0].succeed()

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [5]
    assert gates[0].triggered


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_unhandled_failure_propagates_from_run():
    sim = Simulator()
    log = []

    def bad():
        yield 1
        raise RuntimeError("process blew up")

    def bystander():
        yield 1
        log.append("ran")

    sim.process(bad())
    sim.process(bystander())
    with pytest.raises(RuntimeError, match="process blew up"):
        sim.run()
    assert log == []  # run() left at once, before the action due next


@pytest.mark.parametrize("delay", [float("inf"), float("nan")])
def test_non_finite_delay_rejected(delay):
    """Regression: ``inf >= 0`` is true, so an infinite delay was
    queued and moved ``now`` to infinity once the heap reached it."""
    sim = Simulator()
    log = []

    def proc():
        yield delay
        log.append("resumed")

    sim.process(proc())
    with pytest.raises(SimulationError, match="expected a delay"):
        sim.run()
    assert sim.now == 0.0
    assert log == []


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield "soon"

    sim.process(bad())
    with pytest.raises(SimulationError, match="expected a delay"):
        sim.run()


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        trace = []

        def proc(tag, period, rounds):
            for _ in range(rounds):
                yield period
                trace.append((sim.now, tag))

        sim.process(proc("x", 3, 33))
        sim.process(proc("y", 5, 20))
        sim.run()
        return trace

    assert build() == build()


# -- the order the dynamic engine relies on ------------------------------------


def test_process_starts_before_an_earlier_zero_delay_resume():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        yield 0
        order.append("first resumed")

    def second():
        order.append("second")
        yield 0

    def spawner():
        order.append("spawner")
        sim.process(second())
        yield 0

    sim.process(first())
    sim.process(spawner())
    sim.run()
    assert order == ["first", "spawner", "second", "first resumed"]


def test_replan_runs_before_every_resume_due_at_its_time():
    sim = Simulator()
    order = []

    def sleeper(tag):
        yield 10
        order.append((sim.now, tag))

    def planner():
        yield 5
        # Scheduled after the sleepers' resumes, yet it runs first.
        sim.schedule_replan(10, lambda: order.append((sim.now, "replan")))

    sim.process(sleeper("a"))
    sim.process(planner())
    sim.process(sleeper("b"))
    sim.run()
    assert order == [(10, "replan"), (10, "a"), (10, "b")]


def test_replan_in_the_past_rejected():
    sim = Simulator()

    def late_planner():
        yield 5
        sim.schedule_replan(3, lambda: None)

    sim.process(late_planner())
    with pytest.raises(SimulationError, match="in the past"):
        sim.run()


@pytest.mark.parametrize("at", [float("nan"), float("inf")])
def test_replan_at_a_non_finite_time_rejected(at):
    """Regression: ``nan < now`` is false, so a NaN replan was queued
    and its heap key broke the kernel's time order; an infinite one
    made the run end at an infinite time."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="not a finite time"):
        sim.schedule_replan(at, lambda: None)
    sim.run()
    assert sim.events_processed == 0


def test_succeed_wakes_its_waiter_after_the_actions_already_due():
    sim = Simulator()
    gates = []
    order = []

    def waiter():
        gate = sim.event()
        gates.append(gate)
        yield gate
        order.append("waiter woken")

    def opener():
        yield 5
        gates[0].succeed()
        order.append("opener")

    def bystander():
        yield 5
        order.append("bystander")

    sim.process(waiter())
    sim.process(opener())
    sim.process(bystander())
    sim.run()
    assert order == ["opener", "bystander", "waiter woken"]
    assert sim.now == 5


def test_events_processed_counts_actions_not_finished_processes():
    sim = Simulator()
    gates = []

    def sleeper():  # a start and two resumes
        yield 1
        yield 2

    def waiter():  # a start and a wake
        gate = sim.event()
        gates.append(gate)
        yield gate

    sim.process(sleeper())
    sim.process(waiter())
    sim.schedule_replan(4, lambda: gates[0].succeed())  # one replan
    sim.run()
    assert sim.events_processed == 3 + 2 + 1
    assert sim.now == 4


# -- the kernel against a list-based reference scheduler -----------------------


def reference_trace(items):
    """``(time, kind, id)`` of every action, by a linear scan for the
    earliest ``(time, priority, sequence)`` entry."""
    pending = []
    for sequence, (kind, ident, arg) in enumerate(items):
        if kind == "process":
            pending.append((0.0, 0, sequence, "start", ident, tuple(arg)))
        else:
            pending.append((float(arg), 0, sequence, "replan", ident, ()))
    sequence = len(items)
    trace = []
    while pending:
        entry = min(pending)
        pending.remove(entry)
        time, _priority, _sequence, kind, ident, delays = entry
        trace.append((time, kind, ident))
        if delays:
            pending.append(
                (time + delays[0], 1, sequence, "resume", ident, delays[1:])
            )
            sequence += 1
    return trace


def kernel_trace(items):
    sim = Simulator()
    trace = []

    def proc(ident, delays):
        trace.append((sim.now, "start", ident))
        for delay in delays:
            yield delay
            trace.append((sim.now, "resume", ident))

    def replan(ident):
        trace.append((sim.now, "replan", ident))

    for kind, ident, arg in items:
        if kind == "process":
            sim.process(proc(ident, arg))
        else:
            sim.schedule_replan(arg, lambda ident=ident: replan(ident))
    sim.run()
    assert sim.events_processed == len(trace)
    return trace


_delays = st.lists(st.sampled_from([0, 0.5, 1, 2, 3, 7]), max_size=6)
_items = st.lists(
    st.one_of(
        st.tuples(st.just("process"), _delays),
        st.tuples(st.just("replan"), st.integers(0, 12)),
    ),
    max_size=8,
).map(lambda drawn: [(kind, i, arg) for i, (kind, arg) in enumerate(drawn)])


@settings(max_examples=200)
@given(_items)
def test_kernel_matches_a_list_based_reference_scheduler(items):
    assert kernel_trace(items) == reference_trace(items)
