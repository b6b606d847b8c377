"""End-to-end differential matrix for the two execution engines.

Both engines run the same per-op CPU loop and differ only in how a
batch is walked.  These tests pin the whole-platform contract: for
**every registered workload**, partition mode, CPU count and
scheduling knob exercised here, a run on the compiled engine produces
a :class:`RunMetrics` payload byte-identical to the reference engine,
including FIFO blocking, round-robin preemption and context-switch
traffic, and processes exactly as many kernel events.  Without a C
compiler the compiled engine degrades to the reference walk, so the
identities still hold -- only the C-tier assertions need the real C
tier.
"""

import pytest

from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.exp.scenario import Scenario, WorkloadSpec, run_metrics_to_payload
from repro.exp.workloads import registered_workloads, workload_builder
from repro.mem import cwalker
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.partition import PartitionMode

C_AVAILABLE = cwalker.load() is not None

ENGINES = ("reference", "compiled")

#: Every registered workload, in a configuration small enough to run
#: the full engine x mode x cpu matrix in seconds.
WORKLOADS = {
    "pipeline": {"n_stages": 4, "n_tokens": 16, "token_bytes": 1024,
                 "work_bytes": 8192, "capacity_tokens": 2},
    "two_jpeg_canny": {"scale": "test", "frames": 1},
    "mpeg2": {"scale": "test", "frames": 1},
}


def small_cake(n_cpus=2, **overrides) -> CakeConfig:
    return CakeConfig(
        n_cpus=n_cpus,
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
            l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
        ),
        **overrides,
    )


def run_platform(workload, kwargs, cake, mode, engine,
                 way_assignment=None):
    platform = Platform(
        workload_builder(workload, **kwargs)(), cake, mode=mode,
        engine=engine,
    )
    if mode is PartitionMode.WAY_PARTITIONED and way_assignment:
        platform.cache_controller.program_way_partitions(way_assignment)
    metrics = platform.run()
    return run_metrics_to_payload(metrics), platform


def assert_same_kernel_events(platforms):
    """One CPU loop for every engine: the event counts agree."""
    events = {
        engine: platform.sim.events_processed
        for engine, platform in platforms.items()
    }
    assert len(set(events.values())) == 1, events


def assert_engines_identical(workload, kwargs, cake, mode,
                             way_assignment=None, expect=None):
    payloads = {}
    platforms = {}
    for engine in ENGINES:
        payloads[engine], platforms[engine] = run_platform(
            workload, kwargs, cake, mode, engine,
            way_assignment=way_assignment,
        )
    assert payloads["compiled"] == payloads["reference"], (workload, mode)
    assert_same_kernel_events(platforms)
    if expect is not None:
        expect(platforms["reference"], payloads["reference"])
    return platforms


def test_every_registered_workload_is_covered():
    assert set(WORKLOADS) == set(registered_workloads()), (
        "a newly registered workload must join the engine matrix"
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_three_way_engine_matrix(workload, mode, n_cpus):
    """reference == compiled on every workload x mode x cpus."""
    assert_engines_identical(
        workload, WORKLOADS[workload], small_cake(n_cpus), mode
    )


def test_three_way_with_programmed_way_partitions():
    platforms = assert_engines_identical(
        "pipeline", WORKLOADS["pipeline"], small_cake(2),
        PartitionMode.WAY_PARTITIONED,
        way_assignment={"task:stage0": (0, 1), "task:stage1": (2,)},
    )
    stats = platforms["compiled"].mem.l2_stats
    assert stats.total.accesses > 0


def test_three_way_under_fifo_blocking():
    """Capacity-1 FIFOs force blocked reads and writes on every task
    boundary, so blocked ops retry through ``pending_op``."""
    kwargs = dict(WORKLOADS["pipeline"], capacity_tokens=1, n_tokens=24)

    def expect(platform, payload):
        blocked = sum(
            task.stats.blocked_reads + task.stats.blocked_writes
            for task in platform.tasks
        )
        assert blocked > 0, "workload never blocked; test is vacuous"

    assert_engines_identical(
        "pipeline", kwargs, small_cake(2), PartitionMode.SHARED,
        expect=expect,
    )


@pytest.mark.parametrize("scheduling", ["migrate", "static"])
def test_three_way_under_tiny_quantum(scheduling):
    """A quantum far smaller than one op forces a preemption at every
    op boundary, across migration too."""
    cake = small_cake(2, quantum_cycles=500, scheduling=scheduling)

    def expect(platform, payload):
        dispatches = sum(t.stats.dispatches for t in platform.tasks)
        assert dispatches > len(platform.tasks), "never preempted"

    assert_engines_identical(
        "pipeline", WORKLOADS["pipeline"], cake, PartitionMode.SHARED,
        expect=expect,
    )


def test_three_way_without_switch_traffic():
    """switch_cycles=0 removes the dispatch entries entirely."""
    assert_engines_identical(
        "pipeline", WORKLOADS["pipeline"],
        small_cake(2, switch_cycles=0), PartitionMode.SHARED,
    )


def _bursty_network():
    """Two chained tasks whose programs emit *runs* of deterministic
    ops (computes and delays) between FIFO synchronisations."""
    from repro.kpn.graph import FifoSpec, ProcessNetwork, TaskSpec

    def producer(ctx):
        for _ in range(ctx.params["n_tokens"]):
            for _ in range(6):
                yield ctx.compute(
                    ctx.fetch(400),
                    ctx.stream(ctx.heap, 0, 4096, write=True),
                )
                yield ctx.delay(120)
            yield ctx.write("out")

    def consumer(ctx):
        for _ in range(ctx.params["n_tokens"]):
            yield ctx.read("in")
            for _ in range(4):
                yield ctx.compute(ctx.stream(ctx.heap, 0, 4096))

    network = ProcessNetwork(
        "bursty", rt_data_bytes=4096, rt_bss_bytes=4096
    )
    network.add_task(TaskSpec(
        name="prod", program=producer, params={"n_tokens": 12},
        heap_bytes=8192,
    ))
    network.add_task(TaskSpec(
        name="cons", program=consumer, params={"n_tokens": 12},
        heap_bytes=8192,
    ))
    network.add_fifo(FifoSpec(
        name="ch", producer="prod", producer_port="out",
        consumer="cons", consumer_port="in",
        token_bytes=256, capacity_tokens=4,
    ))
    return network


def _run_bursty(engine, n_cpus=1):
    platform = Platform(_bursty_network(), small_cake(n_cpus),
                        engine=engine)
    metrics = platform.run()
    return run_metrics_to_payload(metrics), platform


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_three_way_with_bursty_segments(n_cpus):
    """Bursts of computes and delays stay bit-identical, with one
    kernel event per op on every engine."""
    runs = {engine: _run_bursty(engine, n_cpus) for engine in ENGINES}
    payloads = {engine: run[0] for engine, run in runs.items()}
    assert payloads["compiled"] == payloads["reference"]
    assert_same_kernel_events(
        {engine: run[1] for engine, run in runs.items()}
    )


def _sleepy_network():
    """A task whose first deterministic stretch is delay-only."""
    from repro.kpn.graph import FifoSpec, ProcessNetwork, TaskSpec

    def sleeper(ctx):
        yield ctx.delay(500)
        yield ctx.delay(300)
        yield ctx.write("out")

    def waiter(ctx):
        yield ctx.read("in")

    network = ProcessNetwork("sleepy", rt_data_bytes=4096,
                             rt_bss_bytes=4096)
    network.add_task(TaskSpec(name="sleeper", program=sleeper))
    network.add_task(TaskSpec(name="waiter", program=waiter))
    network.add_fifo(FifoSpec(
        name="ch", producer="sleeper", producer_port="out",
        consumer="waiter", consumer_port="in",
        token_bytes=64, capacity_tokens=1,
    ))
    return network


def test_compiled_survives_runless_first_segment():
    """Regression: the very first compiled call may carry zero memory
    runs (an empty batch) -- the scratch buffers must initialise
    anyway.  A task whose first ops are delays stays identical too."""
    from repro.mem.hierarchy import HierarchyConfig, MemorySystem
    from repro.mem.trace import AccessBatch

    # Empty batch as the system's first compiled call.
    mem = MemorySystem(1, HierarchyConfig(engine="compiled"))
    result = mem.execute_batch(0, 1, AccessBatch.empty(), 0.0)
    assert result.cycles == 0 and result.accesses == 0

    # Delay-only first stretch through the real CPU runner.
    payloads = {}
    for engine in ENGINES:
        platform = Platform(_sleepy_network(), small_cake(1),
                            engine=engine)
        payloads[engine] = run_metrics_to_payload(platform.run())
    assert payloads["compiled"] == payloads["reference"]


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_compiled_engine_reaches_the_c_tier():
    _payload, platform = run_platform(
        "pipeline", WORKLOADS["pipeline"], small_cake(2),
        PartitionMode.SET_PARTITIONED, "compiled",
    )
    assert platform.mem._compiled is not None


# -- the exp seam --------------------------------------------------------------


def test_engine_is_not_part_of_scenario_identity():
    base = Scenario(
        workload=WorkloadSpec("pipeline", WORKLOADS["pipeline"]),
        cake=small_cake(2),
    )
    for engine in ENGINES:
        variant = base.with_engine(engine)
        assert variant.scenario_id == base.scenario_id
        assert variant.profile_key == base.profile_key
        assert variant.baseline_key == base.baseline_key
        # ... but the transport form keeps the engine for workers.
        assert variant.to_dict()["cake"]["hierarchy"]["engine"] == engine
        assert "engine" not in \
            variant.to_dict(canonical=True)["cake"]["hierarchy"]
        restored = Scenario.from_dict(variant.to_dict())
        assert restored.effective_cake.hierarchy.engine == engine


def test_canonical_dict_roundtrips_with_default_engine():
    base = Scenario(
        workload=WorkloadSpec("pipeline", WORKLOADS["pipeline"]),
        cake=small_cake(2),
    )
    restored = Scenario.from_dict(base.to_dict(canonical=True))
    assert restored.scenario_id == base.scenario_id
    assert restored.effective_cake.hierarchy.engine == \
        HierarchyConfig().engine
