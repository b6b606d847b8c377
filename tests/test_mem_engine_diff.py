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

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryModelError
from repro.mem import cwalker
from repro.mem.address import Region, RegionKind
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import (
    MAX_DENSE_OWNERS,
    HierarchyConfig,
    MemorySystem,
    _CompiledState,
)
from repro.mem.partition import PartitionMode
from repro.mem.trace import AccessBatch
from repro.patterns import memo
from repro.patterns.streams import stream

C_AVAILABLE = cwalker.load() is not None


def build_system(engine, mode, l2_policy="lru", line_size=64):
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=line_size),
        l2_geometry=CacheGeometry(sets=32, ways=4, line_size=line_size),
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


# -- the run cache: read-only batches keep their runs -------------------------


def _kept_batch(seed):
    """A read-only batch of task 1: private, shared-buffer and
    streaming-store traffic in one ``concat``."""
    rng = np.random.default_rng(seed)
    return AccessBatch.concat([generate_batch(rng, step, 1)
                               for step in range(3)])


def _walk_both(reference, compiled, cpu, owner, batch, now):
    assert compiled.execute_batch(cpu, owner, batch, now) \
        == reference.execute_batch(cpu, owner, batch, now), (owner, now)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode,l2_policy", [
    (PartitionMode.SHARED, "lru"),
    (PartitionMode.SHARED, "fifo"),
    (PartitionMode.SET_PARTITIONED, "lru"),
    (PartitionMode.WAY_PARTITIONED, "lru"),
], ids=["lru", "fifo", "set", "way"])
def test_a_kept_batch_walked_between_fresh_ones(mode, l2_policy):
    """One read-only batch, walked after every fresh batch, is coalesced
    once and walks bit-identically from its kept runs."""
    kept = _kept_batch(41)
    first_runs = []

    def walk_kept(reference, compiled, step):
        _walk_both(reference, compiled, 0, 1, kept, step * 500.0 + 250.0)
        first_runs.append(kept._runs)

    run_differential(mode, l2_policy, 43, "compiled", between=walk_kept)
    assert first_runs[0] is not None
    assert all(runs is first_runs[0] for runs in first_runs)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_a_kept_batch_flips_between_line_sizes():
    """Walked alternately on 32- and 64-byte-line systems, one batch
    keeps the runs of the line size it was walked at last."""
    systems = {
        size: (build_system("reference", PartitionMode.SHARED,
                            line_size=size),
               build_system("compiled", PartitionMode.SHARED,
                            line_size=size))
        for size in (32, 64)
    }
    kept = _kept_batch(5)
    for step in range(8):
        reference, compiled = systems[(32, 64)[step % 2]]
        _walk_both(reference, compiled, step % 2, 1, kept, step * 500.0)
        assert kept._runs[0] == compiled._compiled.run_key
    assert systems[32][1]._compiled.run_key \
        != systems[64][1]._compiled.run_key
    for size, (reference, compiled) in systems.items():
        assert_systems_identical(reference, compiled, size)
        assert compiled.effective_engine == "compiled"


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_copies_of_a_kept_batch_coalesce_afresh():
    """Kept runs hold a raw pointer into their own array: a copy or an
    unpickled batch must not inherit them, and walks the same."""
    reference = build_system("reference", PartitionMode.SHARED)
    compiled = build_system("compiled", PartitionMode.SHARED)
    kept = _kept_batch(9)
    _walk_both(reference, compiled, 0, 1, kept, 0.0)
    assert kept._runs is not None
    copies = [copy.copy(kept), copy.deepcopy(kept),
              pickle.loads(pickle.dumps(kept))]
    for step, duplicate in enumerate(copies, start=1):
        assert duplicate._runs is None
        assert np.array_equal(duplicate.addrs, kept.addrs)
        _walk_both(reference, compiled, 0, 1, duplicate, step * 500.0)
    assert_systems_identical(reference, compiled, "copies")


#: Task 1's private region of the kept batches below.
_KEPT_BASE = 1 << 22


def _read_only(batch):
    return AccessBatch.concat([batch])


def _change_interval_table(mem):
    """Half the kept batch's region now belongs to interval owner 9."""
    mem.resolver.intervals.add(_KEPT_BASE, _KEPT_BASE + (1 << 15), 9)


def _grow_the_counters(mem):
    """... to interval owner 700, beyond the first counters."""
    mem.resolver.intervals.add(_KEPT_BASE, _KEPT_BASE + (1 << 15), 700)


def _program_a_set_partition(mem):
    """Owner 20 gets the free sets 11..15 (it has issued nothing)."""
    mem.set_map.assign(20, base=11, n_sets=5)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("change", [
    _change_interval_table, _grow_the_counters, _program_a_set_partition,
], ids=["interval-table", "counter-growth", "set-partition"])
def test_a_kept_batch_walks_against_the_current_tables(change):
    """Between two walks of one kept batch, the interval table changes,
    an owner beyond the counters turns up, or a set partition is
    programmed, with no quiesce: the C state rebinds (and grows) and
    the second walk still matches the reference.  Re-attribution in
    shared mode keeps the line-to-set mapping; the new set partition
    goes to an owner with no resident line."""
    mode = (PartitionMode.SET_PARTITIONED
            if change is _program_a_set_partition else PartitionMode.SHARED)
    reference = build_system("reference", mode)
    compiled = build_system("compiled", mode)
    rng = np.random.default_rng(2)
    kept = _read_only(_private_batch(rng, _KEPT_BASE))
    newcomer = _read_only(_private_batch(rng, 3 << 22))
    _walk_both(reference, compiled, 0, 1, kept, 0.0)
    runs = kept._runs
    for mem in (reference, compiled):
        change(mem)
    _walk_both(reference, compiled, 0, 1, kept, 500.0)
    if change is _program_a_set_partition:
        for step in range(2):
            _walk_both(reference, compiled, 1, 20, newcomer, 750.0 + step)
    assert kept._runs is runs
    assert compiled.effective_engine == "compiled"
    if change is _grow_the_counters:
        assert compiled._compiled.n_owners > 700
    assert_systems_identical(reference, compiled, change.__name__)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_a_writable_batch_walks_its_current_contents():
    """A batch with writable arrays keeps no runs: written into between
    two walks, it walks as its new contents."""
    reference = build_system("reference", PartitionMode.SHARED)
    compiled = build_system("compiled", PartitionMode.SHARED)
    batch = AccessBatch.from_addresses(_KEPT_BASE + 64 * np.arange(300),
                                       writes=False)
    _walk_both(reference, compiled, 0, 1, batch, 0.0)
    batch.addrs[:] += 1 << 16  # fresh lines: every access would miss
    batch.writes[::3] = True
    _walk_both(reference, compiled, 0, 1, batch, 500.0)
    assert batch._runs is None
    assert_systems_identical(reference, compiled, "written into")


@pytest.mark.parametrize("engine", HierarchyConfig.ENGINES)
def test_a_read_only_batch_with_a_negative_address_never_walks(engine):
    """Coalescing rejects the batch, on every walk, before any state
    changes -- and the batch keeps no runs."""
    mem = build_system(engine, PartitionMode.SET_PARTITIONED)
    bad = AccessBatch.concat([
        AccessBatch.from_addresses(_KEPT_BASE + 64 * np.arange(40),
                                   writes=True),
        AccessBatch.from_addresses([-64]),
    ])
    for _ in range(3):
        with pytest.raises(MemoryModelError):
            mem.execute_batch(0, 1, bad, 0.0)
    assert bad._runs is None
    mem.sync_state()
    assert mem.l2_stats.per_owner == {}
    assert mem.l1s[0].stats.per_owner == {}
    assert mem.l1s[0].resident_lines == 0 and mem.l2.resident_lines == 0
    assert mem.memory.traffic.total_lines == 0


def test_concat_returns_read_only_arrays():
    merged = AccessBatch.concat([AccessBatch.from_addresses([0, 64]),
                                 AccessBatch.from_addresses([128])])
    with pytest.raises(ValueError):
        merged.addrs[0] = 1
    with pytest.raises(ValueError):
        merged.writes[0] = True


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_threads_walk_one_memo_batch_at_two_line_sizes():
    """The pattern memo shares a batch between scenario threads, and
    ctypes releases the GIL inside the C calls: four threads walking
    one memo batch at 32- and 64-byte lines, so that its kept runs keep
    flipping, each match their reference."""
    region = Region("shared.stream", _KEPT_BASE, 1 << 16, RegionKind.DATA)
    memo.clear()
    batch = stream(region, 0, 1 << 15, elem=4)
    assert batch is stream(region, 0, 1 << 15, elem=4)
    assert not batch.addrs.flags.writeable
    failures = []

    def walk(line_size):
        try:
            reference = build_system("reference", PartitionMode.SHARED,
                                     line_size=line_size)
            compiled = build_system("compiled", PartitionMode.SHARED,
                                    line_size=line_size)
            for step in range(12):
                _walk_both(reference, compiled, step % 2, 1, batch,
                           step * 500.0)
            assert_systems_identical(reference, compiled, line_size)
        except Exception as exc:  # reported by the main thread
            failures.append((line_size, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(size,))
                   for size in (32, 64, 32, 64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    memo.clear()


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
