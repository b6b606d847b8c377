"""Differential tests: the fast and compiled engines against the oracle.

Both engine tiers -- the pure-Python fast walker and the compiled
tier (persistent C state handle + one ``walk_batch`` call per batch)
-- must produce *bit-identical* statistics to the reference engine:
every ``BatchResult``, every per-owner ``OwnerStats`` at both cache
levels, the eviction-attribution matrices, DRAM traffic and bus
accounting.  The streams below mix reads and writes, random and
streaming access (store-fill path), shared-buffer traffic (interval
owners) and private task footprints, across all three partition modes
and the inlined L2 policies.

Task address regions are disjoint per task: the model requires a
stable line-to-set mapping, so a line not covered by the interval
table must always be issued by the same owner (the seed model shares
this contract -- violating it corrupts its bookkeeping too).
"""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem import cwalker
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig, MemorySystem
from repro.mem.partition import PartitionMode
from repro.mem.trace import AccessBatch

C_AVAILABLE = cwalker.load() is not None


def build_system(engine, mode, l2_policy="lru"):
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=64),
        l2_geometry=CacheGeometry(sets=32, ways=4, line_size=64),
        engine=engine,
        l2_policy=l2_policy,
    )
    mem = MemorySystem(2, config, mode=mode)
    mem.resolver.intervals.add(0, 4096, owner=7)
    mem.resolver.intervals.add(1 << 20, (1 << 20) + 8192, owner=8)
    if mode is PartitionMode.SET_PARTITIONED:
        mem.set_map.assign(1, base=0, n_sets=8)
        mem.set_map.assign(7, base=8, n_sets=3)  # non-power-of-two group
        mem.set_map.set_default_pool(base=16, n_sets=16)
        mem.set_map.alias(8, 7)
    if mode is PartitionMode.WAY_PARTITIONED:
        mem.way_map.assign(1, (0, 1))
        mem.way_map.assign(7, (2,))
    return mem


def generate_batch(rng, step, task):
    n = int(rng.integers(100, 600))
    private_base = 0 if task == 1 else 1 << 21
    if step % 3 == 2:
        # Streaming full-line stores: exercises write-validate fills.
        start = private_base + (int(rng.integers(0, 1 << 16)) & ~63)
        addrs = start + 4 * np.arange(n)
        writes = np.ones(n, dtype=bool)
    elif step % 3 == 1:
        # Hammer the shared buffers (interval-table owners).
        if step % 2:
            addrs = (1 << 20) + (rng.integers(0, 8192, n) & ~3)
        else:
            addrs = rng.integers(0, 4096, n) & ~3
        writes = rng.random(n) < 0.5
    else:
        # Random traffic over the task's private region.
        addrs = private_base + (rng.integers(0, 1 << 18, n) & ~3)
        writes = rng.random(n) < 0.4
    return AccessBatch.from_addresses(addrs, writes=writes)


def assert_systems_identical(reference, fast, context):
    fast.sync_state()  # materialise compiled-tier state (no-op otherwise)
    for cpu in range(reference.n_cpus):
        ref_l1, fast_l1 = reference.l1s[cpu].stats, fast.l1s[cpu].stats
        assert ref_l1.per_owner == fast_l1.per_owner, (context, "l1", cpu)
        assert ref_l1.eviction_matrix == fast_l1.eviction_matrix, (
            context, "l1 matrix", cpu,
        )
    assert reference.l2_stats.per_owner == fast.l2_stats.per_owner, context
    assert (reference.l2_stats.eviction_matrix
            == fast.l2_stats.eviction_matrix), context
    assert vars(reference.memory.traffic) == vars(fast.memory.traffic), context
    assert reference.bus.total_transfers == fast.bus.total_transfers, context
    assert (reference.bus.total_surcharge_cycles
            == fast.bus.total_surcharge_cycles), context
    if reference.l2 is not None:
        # Same resident lines, owners and dirty bits, per set.
        assert reference.l2._owner_of == fast.l2._owner_of, context
        assert reference.l2._dirty == fast.l2._dirty, context
        for set_index in range(reference.l2.geometry.sets):
            assert (reference.l2.set_contents(set_index)
                    == fast.l2.set_contents(set_index)), (context, set_index)
    else:
        # Way-managed L2: same occupied slots, owners, stamps, clock.
        # (Owner/stamp of an *empty* slot is dead state the model never
        # reads; the engines may differ there.)
        ref_way, fast_way = reference.l2_way, fast.l2_way
        assert ref_way._line == fast_way._line, context
        assert ref_way._dirty == fast_way._dirty, context
        assert ref_way._clock == fast_way._clock, context
        for si, slot_lines in enumerate(ref_way._line):
            for way, line in enumerate(slot_lines):
                if line is None:
                    continue
                assert (ref_way._owner[si][way]
                        == fast_way._owner[si][way]), (context, si, way)
                assert (ref_way._stamp[si][way]
                        == fast_way._stamp[si][way]), (context, si, way)


def run_differential(mode, l2_policy, seed, engine):
    reference = build_system("reference", mode, l2_policy)
    fast = build_system(engine, mode, l2_policy)
    rng = np.random.default_rng(seed)
    for step in range(12):
        task = 1 + step % 2
        batch = generate_batch(rng, step, task)
        ref_result = reference.execute_batch(
            step % 2, task, batch, now=step * 500.0
        )
        fast_result = fast.execute_batch(
            step % 2, task, batch, now=step * 500.0
        )
        assert ref_result == fast_result, (mode, l2_policy, seed, step)
    assert_systems_identical(reference, fast, (mode, l2_policy, seed))
    assert fast.effective_engine == engine


@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("l2_policy", ["lru", "fifo"])
@pytest.mark.parametrize("seed", [99, 7, 2024])
def test_python_walker_matches_reference(mode, l2_policy, seed):
    """Fast Python walker vs oracle, every mode and inlined policy."""
    run_differential(mode, l2_policy, seed, engine="fast")


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("l2_policy", ["lru", "fifo"])
@pytest.mark.parametrize("seed", [99, 7, 2024])
def test_compiled_engine_matches_reference(mode, l2_policy, seed):
    """Persistent-handle tier vs oracle, every partition mode.

    The compiled tier walks every batch in C, whatever its size,
    including the way-partitioned column cache.
    """
    if mode is PartitionMode.WAY_PARTITIONED and l2_policy == "fifo":
        pytest.skip("way-managed L2 has no replacement-policy knob")
    run_differential(mode, l2_policy, seed, engine="compiled")


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_random_l2_policy_replays_the_reference_rng(engine):
    """The fast walker replays the oracle's RNG stream draw for draw
    (PR 1 leftover: it used to fall back to the reference walk)."""
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=64),
        l2_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
        l2_policy="random",
        engine=engine,
    )
    reference = MemorySystem(
        1,
        HierarchyConfig(
            l1_geometry=config.l1_geometry,
            l2_geometry=config.l2_geometry,
            l2_policy="random",
            engine="reference",
        ),
        rng=np.random.default_rng(0),
    )
    system = MemorySystem(1, config, rng=np.random.default_rng(0))
    rng = np.random.default_rng(5)
    for step in range(10):
        addrs = rng.integers(0, 1 << 16, 500) & ~3
        writes = rng.random(500) < 0.4
        batch = AccessBatch.from_addresses(addrs, writes=writes)
        assert system.execute_batch(0, 1, batch, step * 100.0) == \
            reference.execute_batch(0, 1, batch, step * 100.0), step
    assert system.l2_stats.per_owner == reference.l2_stats.per_owner
    assert system.l2._owner_of == reference.l2._owner_of
    # The generators marched in lockstep: same state after the run.
    assert (system.l2._rng.bit_generator.state
            == reference.l2._rng.bit_generator.state)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_compiled_engine_survives_negative_owner_fallback():
    """A negative *task* owner takes the oracle path mid-run; the
    compiled tier must hand its resident state down first and
    re-export after, so mixed positive/negative batches stay
    bit-identical.  (Negative ids never leave the owner registry; a
    negative task owner is the supported out-of-contract escape hatch
    every engine funnels to the reference walk.)"""
    reference = build_system("reference", PartitionMode.SHARED)
    compiled = build_system("compiled", PartitionMode.SHARED)
    rng = np.random.default_rng(21)
    for step in range(9):
        if step % 3 == 2:
            # Private traffic issued on behalf of a negative owner.
            addrs = (1 << 24) + (rng.integers(0, 1 << 16, 300) & ~3)
            batch = AccessBatch.from_addresses(addrs)
            task = -3
        else:
            task = 1 + step % 2
            batch = generate_batch(rng, step, task)
        assert compiled.execute_batch(0, task, batch, step * 500.0) == \
            reference.execute_batch(0, task, batch, step * 500.0), step
    assert_systems_identical(reference, compiled, "negative owners")
    assert compiled.effective_engine == "reference"


def test_compiled_engine_degrades_for_random_l2():
    """random replacement keeps the RNG replay in the Python walker."""
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=64),
        l2_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
        l2_policy="random",
        engine="compiled",
    )
    system = MemorySystem(1, config, rng=np.random.default_rng(0))
    assert system._compiled_state() is None
    assert system.effective_engine == "fast"
    reference = MemorySystem(
        1,
        HierarchyConfig(
            l1_geometry=config.l1_geometry,
            l2_geometry=config.l2_geometry,
            l2_policy="random",
            engine="reference",
        ),
        rng=np.random.default_rng(0),
    )
    rng = np.random.default_rng(9)
    addrs = rng.integers(0, 1 << 16, 400) & ~3
    batch = AccessBatch.from_addresses(addrs)
    assert system.execute_batch(0, 1, batch, 0.0) == \
        reference.execute_batch(0, 1, batch, 0.0)
    assert system._compiled is None


def test_compiled_engine_without_c_walker_runs_fast(monkeypatch):
    """No C walker (no compiler, or REPRO_NO_CWALKER): the compiled
    engine walks in Python -- bit-identically -- and says so."""
    monkeypatch.setattr(cwalker, "load", lambda: None)
    reference = build_system("reference", PartitionMode.SET_PARTITIONED)
    compiled = build_system("compiled", PartitionMode.SET_PARTITIONED)
    assert compiled.effective_engine == "fast"
    assert compiled._compiled_state() is None
    rng = np.random.default_rng(11)
    for step in range(6):
        task = 1 + step % 2
        batch = generate_batch(rng, step, task)
        assert compiled.execute_batch(step % 2, task, batch, step * 500.0) \
            == reference.execute_batch(step % 2, task, batch, step * 500.0)
    assert compiled._compiled is None
    assert compiled.effective_engine == "fast"
    assert_systems_identical(reference, compiled, "no C walker")


class _ObservedLock:
    """A lock that reports when a second caller has to wait for it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.contended = threading.Event()

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.contended.set()
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_concurrent_first_load_waits_for_the_walker(monkeypatch):
    """Regression: a thread calling cwalker.load() while another one is
    still compiling must get the walker, not ``None`` -- which would
    demote its MemorySystem to the Python walker for good."""
    lock = _ObservedLock()
    compiling = threading.Event()
    real_compile = cwalker._compile

    def held_compile():
        compiling.set()
        # Finish only once the second caller is waiting on the lock.
        lock.contended.wait(timeout=60)
        return real_compile()

    monkeypatch.setattr(cwalker, "_walker", None)
    monkeypatch.setattr(cwalker, "_load_attempted", False)
    monkeypatch.setattr(cwalker, "_load_lock", lock)
    monkeypatch.setattr(cwalker, "_compile", held_compile)
    results = {}

    def call(name):
        results[name] = cwalker.load()

    first = threading.Thread(target=call, args=("first",))
    first.start()
    assert compiling.wait(timeout=60)
    second = threading.Thread(target=call, args=("second",))
    second.start()
    first.join(timeout=60)
    second.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()
    assert lock.contended.is_set()
    assert results["first"] is not None
    assert results["second"] is results["first"]


def test_engine_config_validated():
    with pytest.raises(ConfigurationError):
        HierarchyConfig(engine="warp")
    for engine in HierarchyConfig.ENGINES:
        assert HierarchyConfig(engine=engine).engine == engine


@pytest.mark.parametrize(
    "engine",
    ["fast"] + (["compiled"] if C_AVAILABLE else []),
    ids=["python", "c"][: 1 + C_AVAILABLE],
)
def test_cold_misses_after_forget_history(engine):
    """Regression: across a forget_history() epoch, lines can be
    resident yet unseen; the C walker's cold classification must count
    the first *miss* of such lines, not their first occurrence."""
    def run(engine):
        mem = MemorySystem(1, HierarchyConfig(engine=engine))
        mem.execute_batch(
            0, 1, AccessBatch.from_addresses(np.arange(200) * 64), 0.0
        )
        mem.l1s[0].forget_history()
        mem.l2.forget_history()
        rng = np.random.default_rng(3)
        batch = AccessBatch.from_addresses(rng.integers(0, 300, 5000) * 64)
        mem.execute_batch(0, 1, batch, 100.0)
        return (
            mem.l1s[0].stats.per_owner,
            mem.l2_stats.per_owner,
            sorted(mem.l1s[0]._seen),
            sorted(mem.l2._seen),
        )

    assert run(engine) == run("reference")


def test_repartition_flushes_dirty_lines_to_dram():
    mem = build_system("fast", PartitionMode.SHARED)
    writes = AccessBatch.from_addresses([0, 64, 1 << 21], writes=True)
    mem.execute_batch(0, 1, writes, now=0.0)
    before = mem.memory.traffic.line_writes
    flushed = mem.repartition()
    # Each of the three written lines is dirty in its L1 *and* in the L2
    # (store misses install the line dirty at both levels).
    assert flushed == 6
    assert mem.memory.traffic.line_writes == before + 6
    assert mem.l2.resident_lines == 0
    for l1 in mem.l1s:
        assert l1.resident_lines == 0
    # The next access must miss again (caches really were invalidated)
    # but is not cold (the history survives a repartition).
    result = mem.execute_batch(0, 1, AccessBatch.from_addresses([0]), 10.0)
    assert result.l1_misses == 1


def test_repartition_in_way_mode():
    mem = build_system("fast", PartitionMode.WAY_PARTITIONED)
    writes = AccessBatch.from_addresses([0, 64], writes=True)
    mem.execute_batch(0, 1, writes, now=0.0)
    assert mem.repartition() == 4  # two dirty lines per level
