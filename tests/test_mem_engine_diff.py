"""Differential tests: the compiled engine against the oracle.

The compiled engine (persistent C state handle + one ``walk_batch``
call per batch) and its reference fallback must produce
*bit-identical* statistics to the reference engine:
every ``BatchResult``, every per-owner ``OwnerStats`` at both cache
levels, the eviction-attribution matrices, DRAM traffic and bus
accounting.  The streams below mix reads and writes, random and
streaming access (store-fill path), shared-buffer traffic (interval
owners) and private task footprints, across all three partition modes
and the L2 policies the C walk implements.

Task address regions are disjoint per task: the model requires a
stable line-to-set mapping, so a line not covered by the interval
table must always be issued by the same owner (the seed model shares
this contract -- violating it corrupts its bookkeeping too).
"""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryModelError
from repro.mem import cwalker
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import (
    MAX_DENSE_OWNERS,
    HierarchyConfig,
    MemorySystem,
    _CompiledState,
)
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


def assert_systems_identical(reference, other, context):
    other.sync_state()  # materialise compiled-tier state (no-op otherwise)
    for cpu in range(reference.n_cpus):
        ref_l1, other_l1 = reference.l1s[cpu].stats, other.l1s[cpu].stats
        assert ref_l1.per_owner == other_l1.per_owner, (context, "l1", cpu)
        assert ref_l1.eviction_matrix == other_l1.eviction_matrix, (
            context, "l1 matrix", cpu,
        )
    assert reference.l2_stats.per_owner == other.l2_stats.per_owner, context
    assert (reference.l2_stats.eviction_matrix
            == other.l2_stats.eviction_matrix), context
    assert vars(reference.memory.traffic) == vars(other.memory.traffic), \
        context
    assert reference.bus.total_transfers == other.bus.total_transfers, context
    assert (reference.bus.total_surcharge_cycles
            == other.bus.total_surcharge_cycles), context
    if reference.l2 is not None:
        # Same resident lines, owners and dirty bits, per set.
        assert reference.l2._owner_of == other.l2._owner_of, context
        assert reference.l2._dirty == other.l2._dirty, context
        for set_index in range(reference.l2.geometry.sets):
            assert (reference.l2.set_contents(set_index)
                    == other.l2.set_contents(set_index)), (context, set_index)
    else:
        # Way-managed L2: same occupied slots, owners, stamps, clock.
        # (Owner/stamp of an *empty* slot is dead state the model never
        # reads; the engines may differ there.)
        ref_way, other_way = reference.l2_way, other.l2_way
        assert ref_way._line == other_way._line, context
        assert ref_way._dirty == other_way._dirty, context
        assert ref_way._clock == other_way._clock, context
        for si, slot_lines in enumerate(ref_way._line):
            for way, line in enumerate(slot_lines):
                if line is None:
                    continue
                assert (ref_way._owner[si][way]
                        == other_way._owner[si][way]), (context, si, way)
                assert (ref_way._stamp[si][way]
                        == other_way._stamp[si][way]), (context, si, way)


def run_differential(mode, l2_policy, seed, engine, between=None,
                     convert=None):
    """Twelve mixed batches on both engines, compared batch by batch.

    ``between(reference, other, step)`` runs after every step;
    ``convert(batch)`` re-lays out each batch for ``other`` only.
    """
    reference = build_system("reference", mode, l2_policy)
    other = build_system(engine, mode, l2_policy)
    rng = np.random.default_rng(seed)
    for step in range(12):
        task = 1 + step % 2
        batch = generate_batch(rng, step, task)
        ref_result = reference.execute_batch(
            step % 2, task, batch, now=step * 500.0
        )
        other_result = other.execute_batch(
            step % 2, task,
            convert(batch) if convert is not None else batch,
            now=step * 500.0,
        )
        assert ref_result == other_result, (mode, l2_policy, seed, step)
        if between is not None:
            between(reference, other, step)
    assert_systems_identical(reference, other, (mode, l2_policy, seed))
    assert other.effective_engine == engine


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


def _quiesce_and_forget(reference, compiled, step):
    """Drop the C state after every batch; restart history every 4th."""
    compiled.quiesce()
    if step % 4 == 3:
        for mem in (reference, compiled):
            for cache in [*mem.l1s, mem.l2 or mem.l2_way]:
                cache.forget_history()


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
def test_compiled_state_round_trips_through_quiesce(mode):
    """quiesce() after every batch syncs the C state down and drops it;
    the next batch rebuilds it from the Python models.  The C-side
    counters and seen-sets must survive that round trip, across
    forget_history() epochs too."""
    run_differential(mode, "lru", 5, "compiled",
                     between=_quiesce_and_forget)


def _program_a_fresh_owner(reference, compiled, step):
    """From step 5 on, owner 20 walks a batch of its own after every
    step.  At step 5, with no quiesce, it first gets a partition: the
    five free sets 11..15 (a set partition the walk ignores in shared
    mode), or way 3 in way mode.  Owner 20 has issued nothing before,
    so none of its lines is resident: the model requires a stable
    line-to-set mapping."""
    if step < 5:
        return
    if step == 5:
        for mem in (reference, compiled):
            if mem.mode is PartitionMode.WAY_PARTITIONED:
                mem.way_map.assign(20, (3,))
            else:
                mem.set_map.assign(20, base=11, n_sets=5)
    batch = _private_batch(np.random.default_rng(step), 3 << 22)
    now = step * 500.0 + 250.0
    assert compiled.execute_batch(1, 20, batch, now) \
        == reference.execute_batch(1, 20, batch, now), step


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
def test_partition_programmed_mid_run_without_quiesce(mode):
    """The maps are per-call inputs of the C walk: programming one
    between two batches needs no sync, and the engines stay
    bit-identical."""
    run_differential(mode, "lru", 31, "compiled",
                     between=_program_a_fresh_owner)


def _same_l2_stats(reference, compiled, step):
    """No sync_state(): l2_stats alone must be current."""
    assert compiled.l2_stats.per_owner == reference.l2_stats.per_owner, step
    assert (compiled.l2_stats.eviction_matrix
            == reference.l2_stats.eviction_matrix), step


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
def test_l2_stats_current_mid_run_without_sync(mode):
    run_differential(mode, "lru", 17, "compiled", between=_same_l2_stats)


def _as_int32(batch):
    return AccessBatch(addrs=batch.addrs.astype(np.int32),
                       writes=batch.writes, instructions=batch.instructions)


def _as_strided(batch):
    """Every array a non-contiguous view; writes as truthy int8s."""
    n = batch.n_accesses
    addrs = np.empty(2 * n, dtype=np.int64)
    addrs[::2] = batch.addrs
    writes = np.zeros(3 * n, dtype=np.int8)
    writes[::3] = batch.writes * 7
    return AccessBatch(addrs=addrs[::2], writes=writes[::3],
                       instructions=batch.instructions)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("convert", [_as_int32, _as_strided],
                         ids=["int32", "strided"])
def test_compiled_engine_reads_any_integer_layout(mode, convert):
    """Regression: the C walk read the addresses as contiguous int64
    whatever their dtype, so an int32 batch crashed the interpreter.
    Any integer dtype and any layout must walk bit-identically."""
    run_differential(mode, "lru", 3, "compiled", convert=convert)


@pytest.mark.parametrize("engine", HierarchyConfig.ENGINES)
def test_negative_addresses_rejected_before_any_state_changes(engine):
    """Regression: the engines disagreed on negative addresses (the C
    writeback index truncated where SetPartition.translate floors, and
    could index outside the L2).  Both engines now reject the batch --
    also when the negative address comes last -- before it touches
    any state."""
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=64),
        l2_geometry=CacheGeometry(sets=16, ways=4, line_size=64),
        engine=engine,
    )
    mem = MemorySystem(1, config, mode=PartitionMode.SET_PARTITIONED)
    mem.set_map.assign(1, base=8, n_sets=3)
    dirty = AccessBatch.from_addresses(-64 * np.arange(1, 9), writes=True)
    late = AccessBatch.from_addresses(
        np.concatenate([64 * np.arange(40), [-64]]), writes=True
    )
    for batch in (dirty, late):
        with pytest.raises(MemoryModelError):
            mem.execute_batch(0, 1, batch, 0.0)
    mem.sync_state()
    assert mem.l2_stats.per_owner == {}
    assert mem.l1s[0].stats.per_owner == {}
    assert mem.l1s[0].resident_lines == 0 and mem.l2.resident_lines == 0
    assert mem.memory.traffic.total_lines == 0
    # Without a C walker the compiled engine has run the reference walk
    # from the start.
    assert mem.effective_engine == (engine if C_AVAILABLE else "reference")


def _private_batch(rng, base):
    addrs = base + (rng.integers(0, 1 << 16, 400) & ~3)
    return AccessBatch.from_addresses(addrs, writes=rng.random(400) < 0.4)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", [PartitionMode.SHARED,
                                  PartitionMode.WAY_PARTITIONED])
def test_owner_ids_beyond_the_first_counter_capacity(mode):
    """Owners 1 and 2 size the C counters; task owner 300, then an
    interval owner 700 turn up mid-run.  The counters grow (the task
    owner before the call, the interval owner through the walk's
    grow-and-retry) and the run stays bit-identical on the C tier."""
    reference = build_system("reference", mode)
    compiled = build_system("compiled", mode)
    rng = np.random.default_rng(8)
    for step in range(12):
        if step == 6:
            for mem in (reference, compiled):
                mem.resolver.intervals.add(3 << 20, (3 << 20) + 8192, 700)
        task = (1, 2, 300)[step % 3]
        base = {1: 1 << 22, 2: 2 << 22, 300: 3 << 22}[task]
        if step >= 6 and step % 2:
            base = 3 << 20  # the new interval
        batch = _private_batch(rng, base)
        assert compiled.execute_batch(step % 2, task, batch, step * 500.0) \
            == reference.execute_batch(step % 2, task, batch, step * 500.0)
    assert compiled._compiled.n_owners > 700
    assert compiled.effective_engine == "compiled"
    assert_systems_identical(reference, compiled, "grown counters")


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("owner", [MAX_DENSE_OWNERS, 10**9])
@pytest.mark.parametrize("source", ["task", "interval"])
def test_owner_ids_beyond_the_dense_counters_take_the_reference_walk(
    owner, source,
):
    """Ids no dense counter table covers send the compiled engine to
    the reference walk for good -- bit-identically, and it says so."""
    reference = build_system("reference", PartitionMode.SHARED)
    compiled = build_system("compiled", PartitionMode.SHARED)
    if source == "interval":
        for mem in (reference, compiled):
            mem.resolver.intervals.add(3 << 20, (3 << 20) + 8192, owner)
    rng = np.random.default_rng(4)
    for step in range(8):
        if step % 4 == 3:
            task = owner if source == "task" else 1
            base = 3 << 22 if source == "task" else 3 << 20
        else:
            task, base = 1 + step % 2, (1 + step % 2) << 22
        batch = _private_batch(rng, base)
        assert compiled.execute_batch(0, task, batch, step * 500.0) \
            == reference.execute_batch(0, task, batch, step * 500.0)
    assert compiled.effective_engine == "reference"
    assert compiled._compiled is None
    assert_systems_identical(reference, compiled, (owner, source))


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


def test_compiled_engine_without_c_walker_runs_reference(monkeypatch):
    """No C walker (no compiler, or REPRO_NO_CWALKER): the compiled
    engine takes the reference walk -- bit-identically -- and says so."""
    monkeypatch.setattr(cwalker, "load", lambda: None)
    reference = build_system("reference", PartitionMode.SET_PARTITIONED)
    compiled = build_system("compiled", PartitionMode.SET_PARTITIONED)
    assert compiled.effective_engine == "reference"
    assert compiled._compiled_state() is None
    rng = np.random.default_rng(11)
    for step in range(6):
        task = 1 + step % 2
        batch = generate_batch(rng, step, task)
        assert compiled.execute_batch(step % 2, task, batch, step * 500.0) \
            == reference.execute_batch(step % 2, task, batch, step * 500.0)
    assert compiled._compiled is None
    assert compiled.effective_engine == "reference"
    assert_systems_identical(reference, compiled, "no C walker")


def test_compiled_engine_after_failed_state_allocation_runs_reference(
    monkeypatch,
):
    """A C state that cannot be allocated sends the compiled engine to
    the reference walk for good -- bit-identically -- and says so."""
    def no_memory(self, mem, walker):
        raise MemoryError("walker_state_new failed")

    monkeypatch.setattr(_CompiledState, "__init__", no_memory)
    reference = build_system("reference", PartitionMode.SET_PARTITIONED)
    compiled = build_system("compiled", PartitionMode.SET_PARTITIONED)
    rng = np.random.default_rng(13)
    for step in range(6):
        task = 1 + step % 2
        batch = generate_batch(rng, step, task)
        assert compiled.execute_batch(step % 2, task, batch, step * 500.0) \
            == reference.execute_batch(step % 2, task, batch, step * 500.0)
    assert compiled._compiled is None
    assert compiled.effective_engine == "reference"
    assert_systems_identical(reference, compiled, "failed allocation")


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
    demote its MemorySystem to the reference walk for good."""
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


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("engine", ["compiled"], ids=["c"])
def test_cold_misses_after_forget_history(engine):
    """Regression: across a forget_history() epoch, lines can be
    resident yet unseen; the C walker's cold classification must count
    the first *miss* of such lines, not their first occurrence."""
    def run(engine):
        mem = MemorySystem(1, HierarchyConfig(engine=engine))
        mem.execute_batch(
            0, 1, AccessBatch.from_addresses(np.arange(200) * 64), 0.0
        )
        # Python-side mutations come after quiesce(); L1 stats and the
        # seen-sets are current after sync_state().
        mem.quiesce()
        mem.l1s[0].forget_history()
        mem.l2.forget_history()
        rng = np.random.default_rng(3)
        batch = AccessBatch.from_addresses(rng.integers(0, 300, 5000) * 64)
        mem.execute_batch(0, 1, batch, 100.0)
        mem.sync_state()
        return (
            mem.l1s[0].stats.per_owner,
            mem.l2_stats.per_owner,
            sorted(mem.l1s[0]._seen),
            sorted(mem.l2._seen),
        )

    assert run(engine) == run("reference")


def test_repartition_flushes_dirty_lines_to_dram():
    mem = build_system("compiled", PartitionMode.SHARED)
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
    mem = build_system("compiled", PartitionMode.WAY_PARTITIONED)
    writes = AccessBatch.from_addresses([0, 64], writes=True)
    mem.execute_batch(0, 1, writes, now=0.0)
    assert mem.repartition() == 4  # two dirty lines per level
