"""Online transitions: the dynamic scenario engine end to end.

The contract under test is the paper's compositional invariant taken
online: tasks join and leave a *running* platform, only the changed
task set is re-optimized, and the three execution engines stay
bit-identical through every transition -- including the awkward spots
(a departure while FIFO-blocked, an arrival in the middle of another
task's quantum, a replan landing exactly on an op boundary).  Also covered here: the admission-control rejection reasons,
the first-fit unit ledger, the zero-reprofile warm-arrival guarantee,
the transitions axis of scenario identity, and the satellite
regressions (way-vs-set plan divergence; compiled-state quiescing on
every map mutation).
"""

import pytest

from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.core.method import MethodConfig
from repro.core.mckp import items_from_curves, solve_mckp_dp
from repro.core.misscurve import MissCurve
from repro.core.allocation import optimize_way_assignment
from repro.core.profiling import profile_miss_curves, profiling_passes
from repro.exp.dynamic import DynamicScenario, _UnitLedger, merge_networks
from repro.exp.scenario import (
    Scenario,
    TransitionSpec,
    WorkloadSpec,
    run_metrics_to_payload,
)
from repro.exp.workloads import workload_builder
from repro.kpn.graph import FifoSpec, ProcessNetwork, TaskSpec
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.partition import PartitionMode

ENGINES = ("reference", "fast", "compiled")

PIPELINE_KWARGS = {"n_stages": 4, "n_tokens": 16, "token_bytes": 1024,
                   "work_bytes": 8192, "capacity_tokens": 2}
LATE_KWARGS = {"n_stages": 2, "n_tokens": 8, "token_bytes": 512,
               "work_bytes": 4096, "capacity_tokens": 2}


def small_cake(n_cpus=2, **overrides) -> CakeConfig:
    return CakeConfig(
        n_cpus=n_cpus,
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
            l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
        ),
        **overrides,
    )


METHOD = MethodConfig(sizes=[1, 2, 4, 8])


def _base_builder():
    return workload_builder("pipeline", **PIPELINE_KWARGS)


def _late_builder():
    return workload_builder("pipeline", **LATE_KWARGS)


def _lopsided_network(balanced: bool = False) -> ProcessNetwork:
    """A joiner whose consumer demands more tokens than ever arrive --
    it is guaranteed to be FIFO-blocked when its group departs.  The
    ``balanced`` twin (identical names, consumer matched to the
    producer) exists so the profile can be measured standalone."""

    def producer(ctx):
        for _ in range(4):
            yield ctx.compute(ctx.stream(ctx.heap, 0, 2048, write=True))
            yield ctx.write("out")

    def consumer(ctx):
        for _ in range(4 if balanced else 8):
            yield ctx.read("in")
            yield ctx.compute(ctx.stream(ctx.heap, 0, 2048))

    network = ProcessNetwork(
        "lopsided", rt_data_bytes=4096, rt_bss_bytes=4096
    )
    network.add_task(TaskSpec(
        name="prod", program=producer, heap_bytes=4096,
    ))
    network.add_task(TaskSpec(
        name="cons", program=consumer, heap_bytes=4096,
    ))
    network.add_fifo(FifoSpec(
        name="ch", producer="prod", producer_port="out",
        consumer="cons", consumer_port="in",
        token_bytes=256, capacity_tokens=2,
    ))
    return network


def _measure(builder):
    return profile_miss_curves(
        builder, small_cake(), sizes=METHOD.sizes,
        fifo_policy=METHOD.fifo_policy, repeats=METHOD.profile_repeats,
    )


@pytest.fixture(scope="module")
def profiles():
    """One profiling pass per network for the whole module -- every
    dynamic run below injects these, as the runner's cache layer does."""
    return {
        "base": _measure(_base_builder()),
        "late": _measure(_late_builder()),
        "lopsided": _measure(lambda: _lopsided_network(balanced=True)),
    }


def run_all_engines(transitions, join_builders, profile_map, cake=None):
    """Run one dynamic configuration on all three engines and assert the
    metrics, epoch records and transition outcomes are byte-identical."""
    results = {}
    for engine in ENGINES:
        dynamic = DynamicScenario(
            _base_builder(),
            cake=cake if cake is not None else small_cake(),
            method=METHOD,
            transitions=transitions,
            join_builders=join_builders,
            engine=engine,
        )
        result = dynamic.run(profiles=profile_map)
        results[engine] = (
            run_metrics_to_payload(result.metrics),
            result.epoch_payloads(),
            result.transition_payloads(),
        )
    assert results["fast"] == results["reference"]
    assert results["compiled"] == results["reference"]
    return results["reference"]


# -- spec validation and identity ---------------------------------------------


def test_transition_spec_validation():
    with pytest.raises(ValueError):
        TransitionSpec(at=10.0, action="teleport")
    with pytest.raises(ValueError):
        TransitionSpec(at=-1.0, action="mark")
    with pytest.raises(ValueError):
        TransitionSpec(at=0.0, action="join", group="g")  # no workload
    with pytest.raises(ValueError):
        TransitionSpec(
            at=0.0, action="join", workload=WorkloadSpec("pipeline")
        )  # no group
    with pytest.raises(ValueError):
        TransitionSpec(at=0.0, action="leave")  # neither group nor tasks


def test_transition_spec_roundtrip():
    spec = TransitionSpec(
        at=1234.0, action="join", group="g", budget=5e6,
        workload=WorkloadSpec("pipeline", PIPELINE_KWARGS),
    )
    assert TransitionSpec.from_dict(spec.to_dict()) == spec
    leave = TransitionSpec(at=99.0, action="leave", tasks=("a", "b"))
    assert TransitionSpec.from_dict(leave.to_dict()) == leave


def test_transitions_are_part_of_scenario_identity():
    static = Scenario(
        workload=WorkloadSpec("pipeline", PIPELINE_KWARGS),
        cake=small_cake(),
        method=METHOD,
    )
    dynamic = Scenario(
        workload=static.workload, cake=static.cake, method=static.method,
        transitions=(TransitionSpec(
            at=60_000.0, action="join", group="late",
            workload=WorkloadSpec("pipeline", LATE_KWARGS),
        ),),
    )
    # A dynamic point is a different experiment...
    assert dynamic.scenario_id != static.scenario_id
    assert dynamic.is_dynamic and not static.is_dynamic
    # ... but profiling and baseline identities exclude transitions, so
    # its base measurements come straight from the static point's cache.
    assert dynamic.profile_key == static.profile_key
    assert dynamic.baseline_key == static.baseline_key
    restored = Scenario.from_dict(dynamic.to_dict())
    assert restored.scenario_id == dynamic.scenario_id
    assert restored.transitions == dynamic.transitions
    # Empty transitions serialise identically to the static form.
    assert "transitions" not in static.to_dict()


def test_join_requirement_matches_standalone_profile_key():
    """An arrival of a workload someone already profiled standalone must
    hit that cache entry: the join group's requirement *is* the
    standalone scenario of its workload."""
    late = WorkloadSpec("pipeline", LATE_KWARGS)
    dynamic = Scenario(
        workload=WorkloadSpec("pipeline", PIPELINE_KWARGS),
        cake=small_cake(), method=METHOD,
        transitions=(TransitionSpec(
            at=60_000.0, action="join", group="late", workload=late,
        ),),
    )
    standalone = Scenario(workload=late, cake=small_cake(), method=METHOD)
    requirements = dict(dynamic.profile_requirements())
    assert set(requirements) == {"", "late"}
    assert requirements["late"].profile_key == standalone.profile_key
    assert requirements[""].profile_key == dynamic.profile_key


# -- union network and unit ledger --------------------------------------------


def test_merge_networks_prefixes_and_sizes():
    base = _base_builder()()
    join = _late_builder()()
    merged = merge_networks(base, {"late": join})
    for name in base.tasks:
        assert name in merged.tasks
    for name in join.tasks:
        assert f"late.{name}" in merged.tasks
    for name, fifo in merged.fifos.items():
        if name.startswith("late."):
            assert fifo.producer.startswith("late.")
            assert fifo.consumer.startswith("late.")
    assert merged.rt_data_bytes == max(base.rt_data_bytes, join.rt_data_bytes)
    assert merged.appl_bss_bytes == max(
        base.appl_bss_bytes, join.appl_bss_bytes
    )


def test_unit_ledger_first_fit_and_coalescing():
    ledger = _UnitLedger()
    ledger.add(0, 10)
    assert ledger.allocate(4) == 0
    assert ledger.allocate(6) == 4
    assert ledger.allocate(1) is None
    ledger.add(4, 6)
    ledger.add(0, 4)
    assert ledger.fragments() == [(0, 10)]  # coalesced back to one


def test_unit_ledger_fragmentation_is_a_real_failure():
    ledger = _UnitLedger()
    ledger.add(0, 3)
    ledger.add(5, 3)
    assert ledger.free_units() == 6
    # 6 units free but no contiguous 4: a set partition is one range.
    assert ledger.allocate(4) is None
    assert ledger.allocate(3) == 0
    assert ledger.allocate(3) == 5


# -- satellite: the dedicated way optimizer ------------------------------------


def test_way_and_set_plans_diverge_at_column_granularity():
    """The way optimizer ranks owners by miss reduction at *column*
    granularity; the set plan's fine-grained unit counts are not its
    ranking (the regression the dedicated optimizer exists to fix)."""
    curves = [
        # Huge gain at 2 units, flat beyond: fine-grained winner.
        MissCurve.from_pairs(
            "task:a", [(1, 1000.0), (2, 10.0), (4, 10.0), (8, 10.0)]
        ),
        # Gains spread out to 8 units: coarse-grained winner.
        MissCurve.from_pairs(
            "task:b", [(1, 600.0), (2, 500.0), (4, 300.0), (8, 50.0)]
        ),
    ]
    set_solution = solve_mckp_dp(
        items_from_curves(curves, [1, 2, 4, 8]), 6
    )
    assert set_solution.allocation == {"task:a": 2, "task:b": 4}

    # 2 ways over 8 units -> one column holds 4 units' capacity.
    way_plan = optimize_way_assignment(curves, n_ways=2, total_units=8)
    assert set(way_plan.ways_by_owner) == {"task:a", "task:b"}
    assert len(way_plan.ways_by_owner["task:a"]) == 1
    assert len(way_plan.ways_by_owner["task:b"]) == 1
    # Divergence: the set plan sizes a at 2 of 8 units (a quarter), the
    # way plan cannot express that -- a gets a full column (half).
    way_units = {
        owner: len(ways) * 8 // 2
        for owner, ways in way_plan.ways_by_owner.items()
    }
    assert way_units != set_solution.allocation
    assert sum(
        len(w) for w in way_plan.ways_by_owner.values()
    ) <= way_plan.total_ways


# -- three-engine differentials through transitions ----------------------------


def test_join_mid_run_identical_across_engines(profiles):
    metrics, epochs, transitions = run_all_engines(
        (TransitionSpec(
            at=60_000.0, action="join", group="late",
            workload=WorkloadSpec("pipeline", LATE_KWARGS),
        ),),
        {"late": _late_builder()},
        {"": profiles["base"], "late": profiles["late"]},
    )
    assert len(transitions) == 1 and transitions[0]["admitted"]
    assert transitions[0]["reason"] == ""
    assert all(
        owner.partition(":")[2].startswith("late.")
        for owner in transitions[0]["granted_units"]
    )
    assert len(epochs) == 2
    assert epochs[0]["trigger"] == "join:late"
    assert epochs[1]["trigger"] == "end"
    # The joiners did not exist in epoch 0.
    assert epochs[0]["task_cycles"].get("late.stage0", 0) == 0
    assert epochs[1]["task_cycles"]["late.stage0"] > 0


def test_leave_while_fifo_blocked_across_engines(profiles):
    """The departing consumer is parked on a FIFO read when its group
    leaves: detach must unhook it from the waiting lists identically on
    every engine."""
    metrics, epochs, transitions = run_all_engines(
        (
            TransitionSpec(
                at=20_000.0, action="join", group="g",
                workload=WorkloadSpec("pipeline", LATE_KWARGS),
            ),
            TransitionSpec(at=400_000.0, action="leave", group="g"),
        ),
        {"g": lambda: _lopsided_network()},
        {"": profiles["base"], "g": profiles["lopsided"]},
    )
    join, leave = transitions
    assert join["admitted"] and leave["admitted"]
    assert leave["freed_units"] == sum(join["granted_units"].values())
    assert len(epochs) == 3
    # The blocked consumer made progress in the middle epoch only.
    assert epochs[1]["task_cycles"]["g.cons"] > 0


def test_arrival_during_another_tasks_quantum(profiles):
    """A quantum far larger than the replan offset guarantees the
    arrival lands mid-quantum: the preempted task's pre-pulled ops must
    hand back identically on every engine."""
    run_all_engines(
        (TransitionSpec(
            at=37_777.0, action="join", group="late",
            workload=WorkloadSpec("pipeline", LATE_KWARGS),
        ),),
        {"late": _late_builder()},
        {"": profiles["base"], "late": profiles["late"]},
        cake=small_cake(2, quantum_cycles=3_000),
    )


def test_replan_on_exact_segment_horizon(profiles):
    """Two replans at the same instant both fire there, in schedule
    order, with an empty epoch between them."""
    metrics, epochs, transitions = run_all_engines(
        (
            TransitionSpec(at=60_000.0, action="mark"),
            TransitionSpec(
                at=60_000.0, action="join", group="late",
                workload=WorkloadSpec("pipeline", LATE_KWARGS),
            ),
        ),
        {"late": _late_builder()},
        {"": profiles["base"], "late": profiles["late"]},
    )
    assert [t["action"] for t in transitions] == ["mark", "join"]
    assert transitions[1]["admitted"]
    # The epoch between the two same-time replans is empty.
    assert len(epochs) == 3
    assert epochs[1]["start"] == epochs[1]["end"] == 60_000.0
    assert all(v == 0 for v in epochs[1]["task_cycles"].values())


def test_join_at_time_zero(profiles):
    """An arrival at t=0 attaches before any op executes."""
    metrics, epochs, transitions = run_all_engines(
        (TransitionSpec(
            at=0.0, action="join", group="late",
            workload=WorkloadSpec("pipeline", LATE_KWARGS),
        ),),
        {"late": _late_builder()},
        {"": profiles["base"], "late": profiles["late"]},
    )
    assert transitions[0]["admitted"]
    assert epochs[0]["end"] == 0.0
    # The joiners ran: attach at t=0 precedes the whole schedule.
    assert epochs[-1]["task_cycles"]["late.stage0"] > 0


# -- admission control and warm arrivals ---------------------------------------


def test_warm_arrival_performs_zero_profiling_passes(profiles):
    before = profiling_passes()
    dynamic = DynamicScenario(
        _base_builder(), cake=small_cake(), method=METHOD,
        transitions=(TransitionSpec(
            at=60_000.0, action="join", group="late",
            workload=WorkloadSpec("pipeline", LATE_KWARGS),
        ),),
        join_builders={"late": _late_builder()},
    )
    result = dynamic.run(
        profiles={"": profiles["base"], "late": profiles["late"]}
    )
    assert profiling_passes() - before == 0
    assert result.transitions[0].admitted


def test_budget_rejection_records_reason_and_never_attaches(profiles):
    metrics, epochs, transitions = run_all_engines(
        (TransitionSpec(
            at=60_000.0, action="join", group="late", budget=1.0,
            workload=WorkloadSpec("pipeline", LATE_KWARGS),
        ),),
        {"late": _late_builder()},
        {"": profiles["base"], "late": profiles["late"]},
    )
    outcome = transitions[0]
    assert not outcome["admitted"]
    assert outcome["reason"] == "budget"
    assert outcome["predicted_cycles"] > 1.0
    assert outcome["granted_units"] == {}
    # The rejected group never ran, on any engine, in any epoch.
    for epoch in epochs:
        for name, cycles in epoch["task_cycles"].items():
            if name.startswith("late."):
                assert cycles == 0


def test_capacity_rejection_when_arena_is_exhausted(profiles):
    """A joiner whose buffers alone exceed the free arena is rejected
    with reason ``capacity`` -- and the run still completes (the
    arrival reservation is released on rejection too)."""

    def fat_joiner() -> ProcessNetwork:
        def producer(ctx):
            yield ctx.write("out")

        def consumer(ctx):
            yield ctx.read("in")

        network = ProcessNetwork("fat", rt_data_bytes=4096,
                                 rt_bss_bytes=4096)
        network.add_task(TaskSpec(name="prod", program=producer))
        network.add_task(TaskSpec(name="cons", program=consumer))
        # 512 KB of ring against a 64 KB L2: all-hit sizing wants more
        # units than the whole cache has.
        network.add_fifo(FifoSpec(
            name="ch", producer="prod", producer_port="out",
            consumer="cons", consumer_port="in",
            token_bytes=4096, capacity_tokens=128,
        ))
        return network

    dynamic = DynamicScenario(
        _base_builder(), cake=small_cake(), method=METHOD,
        transitions=(TransitionSpec(
            at=60_000.0, action="join", group="fat",
            workload=WorkloadSpec("pipeline", LATE_KWARGS),
        ),),
        join_builders={"fat": fat_joiner},
    )
    result = dynamic.run(
        profiles={"": profiles["base"], "fat": profiles["lopsided"]}
    )
    outcome = result.transitions[0]
    assert not outcome.admitted
    assert outcome.reason == "capacity"


# -- satellite regression: map mutations quiesce the compiled tier -------------


def test_map_mutation_quiesces_compiled_state():
    """Every map-mutating path must sync the Python-side models and drop
    the C-resident state first: without the quiesce, stats read after a
    mutation would be stale and subsequent runs would diverge."""
    reference = Platform(
        _base_builder()(), small_cake(),
        mode=PartitionMode.SET_PARTITIONED, engine="reference",
    )
    reference.run()
    reference_accesses = reference.mem.l2_stats.total.accesses

    compiled = Platform(
        _base_builder()(), small_cake(),
        mode=PartitionMode.SET_PARTITIONED, engine="compiled",
    )
    compiled.run()
    # Mutate the map without any manual sync: the controller itself must
    # quiesce (sync + drop) before touching the translation tables.
    compiled.cache_controller.assign_units("task:newcomer", 20, 2)
    assert compiled.mem._compiled is None
    assert compiled.mem.l2_stats.total.accesses == reference_accesses

    compiled.cache_controller.release_units("task:newcomer")
    assert compiled.mem._compiled is None
