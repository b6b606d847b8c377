"""Integration tests for the platform: scheduling + memory + KPN."""

import gc
import weakref

import pytest

from repro.apps.synthetic import make_pipeline
from repro.cake import CakeConfig, Platform
from repro.errors import ConfigurationError, SchedulingError
from repro.kpn import FifoSpec, ProcessNetwork, TaskSpec
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.partition import PartitionMode


def small_config(**kwargs):
    defaults = dict(
        n_cpus=2,
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
            l2_geometry=CacheGeometry(sets=128, ways=4, line_size=64),
        ),
    )
    defaults.update(kwargs)
    return CakeConfig(**defaults)


def test_pipeline_runs_to_completion():
    platform = Platform(make_pipeline(n_tokens=8), small_config())
    metrics = platform.run()
    assert platform.all_done()
    assert metrics.instructions > 0
    assert metrics.l2_accesses > 0
    assert metrics.elapsed_cycles > 0
    assert len(metrics.cpus) == 2


def test_run_twice_rejected():
    platform = Platform(make_pipeline(n_tokens=2), small_config())
    platform.run()
    with pytest.raises(SchedulingError):
        platform.run()


def test_a_finished_platform_needs_no_cycle_collection():
    """The runners end a run idle, each suspended on a wake-up that the
    scheduler holds.  ``run`` closes them, so the platform, its memory
    system and its runners go with the last reference to them."""
    gc.collect()
    gc.disable()
    try:
        platform = Platform(make_pipeline(n_tokens=8), small_config())
        platform.run()
        refs = [weakref.ref(obj) for obj in (
            platform, platform.mem, platform.scheduler, *platform.cpus,
        )]
        del platform
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_deadlock_detected():
    def greedy_consumer(ctx):
        yield ctx.read("in", tokens=2)  # producer only ever sends 1

    def one_shot_producer(ctx):
        yield ctx.write("out")

    network = ProcessNetwork("deadlock")
    network.add_task(TaskSpec("p", one_shot_producer))
    network.add_task(TaskSpec("c", greedy_consumer))
    network.add_fifo(FifoSpec("f", "p", "out", "c", "in",
                              token_bytes=64, capacity_tokens=4))
    platform = Platform(network, small_config())
    with pytest.raises(SchedulingError, match="deadlock"):
        platform.run()


def test_determinism_across_identical_platforms():
    def run_once():
        platform = Platform(make_pipeline(n_tokens=16), small_config())
        metrics = platform.run()
        return (
            metrics.l2_misses,
            metrics.elapsed_cycles,
            sorted((n, s.misses) for n, s in metrics.l2_by_owner.items()),
        )

    assert run_once() == run_once()


def test_seed_changes_layout_and_misses():
    base = run1 = Platform(make_pipeline(n_tokens=16), small_config())
    m1 = run1.run()
    run2 = Platform(make_pipeline(n_tokens=16), small_config(seed=999))
    m2 = run2.run()
    # Different scatter layouts -> different shared-cache behaviour.
    assert m1.l2_misses != m2.l2_misses


def test_static_vs_migrate_scheduling_both_complete():
    for policy in ("static", "migrate"):
        platform = Platform(
            make_pipeline(n_tokens=8), small_config(scheduling=policy)
        )
        platform.run()
        assert platform.all_done()


def test_task_stats_collected():
    platform = Platform(make_pipeline(n_tokens=8), small_config())
    metrics = platform.run()
    stage0 = metrics.task_stats["stage0"]
    assert stage0.instructions > 0
    assert stage0.fifo_writes == 8
    stage2 = metrics.task_stats["stage2"]
    assert stage2.fifo_reads == 8


def test_owner_attribution_covers_fifos_and_tasks():
    platform = Platform(make_pipeline(n_tokens=8), small_config())
    metrics = platform.run()
    owners = set(metrics.l2_by_owner)
    assert any(name.startswith("task:") for name in owners)
    assert any(name.startswith("fifo:") for name in owners)
    assert "rt.data" in owners  # FIFO admin traffic


def test_partitioned_run_isolates_owners():
    network = make_pipeline(n_tokens=16, work_bytes=8192)
    platform = Platform(
        network, small_config(), mode=PartitionMode.SET_PARTITIONED
    )
    units = {}
    for task in network.tasks:
        units[f"task:{task}"] = 2
    for fifo in network.fifos:
        units[f"fifo:{fifo}"] = 1
    platform.cache_controller.program_set_partitions(units)
    metrics = platform.run()
    # Exclusive partitions: cross-owner interference is exactly zero
    # among partitioned owners (unpartitioned owners share the pool).
    partitioned = {platform.registry.id_of(name) for name in units}
    cross = sum(
        count
        for (evictor, victim), count in
        platform.mem.l2_stats.eviction_matrix.items()
        if evictor != victim
        and (evictor in partitioned or victim in partitioned)
    )
    assert cross == 0


def test_cpi_definition():
    platform = Platform(make_pipeline(n_tokens=8), small_config())
    metrics = platform.run()
    cpu = metrics.cpus[0]
    if cpu.instructions:
        assert cpu.cpi == pytest.approx(
            (cpu.busy_cycles + cpu.switch_cycles) / cpu.instructions
        )
    assert metrics.worst_cpu_cycles >= max(
        c.total_cycles for c in metrics.cpus
    ) - 1e-9


def test_config_validation():
    with pytest.raises(ConfigurationError):
        CakeConfig(n_cpus=0)
    with pytest.raises(ConfigurationError):
        CakeConfig(scheduling="chaotic")
    with pytest.raises(ConfigurationError):
        CakeConfig(allocation_unit_sets=3)  # does not divide 2048


def test_config_l2_resizing():
    config = CakeConfig()
    bigger = config.with_l2_size(1024 * 1024)
    assert bigger.hierarchy.l2_geometry.sets == 4096
    explicit = config.with_l2_sets(512)
    assert explicit.hierarchy.l2_geometry.sets == 512
    assert config.unit_bytes == 8 * 4 * 64
    assert config.n_allocation_units == 256


def test_with_l2_sets_validates_at_construction():
    config = CakeConfig()
    with pytest.raises(ConfigurationError):
        config.with_l2_sets(100)  # not a power of two
    with pytest.raises(ConfigurationError):
        config.with_l2_sets(0)
    with pytest.raises(ConfigurationError):
        config.with_l2_sets(-512)
    with pytest.raises(ConfigurationError):
        # Power of two, but not divisible into 8-set allocation units.
        config.with_l2_sets(4)


def test_with_l2_ways_keeps_capacity():
    config = CakeConfig()
    eight_way = config.with_l2_ways(8)
    assert eight_way.hierarchy.l2_geometry.ways == 8
    assert eight_way.hierarchy.l2_geometry.size_bytes == \
        config.hierarchy.l2_geometry.size_bytes
    assert eight_way.hierarchy.l2_geometry.sets == 1024
    with pytest.raises(ConfigurationError):
        config.with_l2_ways(0)
    with pytest.raises(ConfigurationError):
        config.with_l2_ways(3)  # 512 KB does not split into 3 ways
