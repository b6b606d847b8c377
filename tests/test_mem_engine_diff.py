"""Differential tests: the compiled engine against the oracle.

The compiled engine (persistent C state handle + one ``walk_batch``
call per batch), and the reference walk it takes without a C walker,
must produce *bit-identical* statistics to the reference engine:
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
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError, MemoryModelError, PartitionError
from repro.mem import cwalker
from repro.mem.address import Region, RegionKind
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig, MemorySystem, _CompiledState
from repro.mem.intervals import MAX_OWNERS
from repro.mem.partition import PartitionMode
from repro.mem.trace import AccessBatch, coalesce_runs
from repro.patterns import memo
from repro.patterns.streams import stream

C_AVAILABLE = cwalker.load() is not None


def build_system(engine, mode, l2_policy="lru", line_size=64, l1_sets=4):
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(sets=l1_sets, ways=2, line_size=line_size),
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
    if reference.mode is not PartitionMode.WAY_PARTITIONED:
        # Same resident lines, owners and dirty bits, per set.
        assert reference.l2._owner_of == other.l2._owner_of, context
        assert reference.l2._dirty == other.l2._dirty, context
        for set_index in range(reference.l2.geometry.sets):
            assert (reference.l2.set_contents(set_index)
                    == other.l2.set_contents(set_index)), (context, set_index)
    else:
        # Way-managed L2: same occupied slots (way, line, owner, stamp)
        # per set, dirty lines and clock.  (Owner/stamp of an *empty*
        # slot is dead state the model never reads; the engines may
        # differ there.)
        ref_way, other_way = reference.l2, other.l2
        assert ref_way._dirty == other_way._dirty, context
        assert ref_way._clock == other_way._clock, context
        for set_index in range(ref_way.geometry.sets):
            assert (ref_way.set_contents(set_index)
                    == other_way.set_contents(set_index)), (context, set_index)


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


def _quiesce(reference, compiled, step):
    """Drop the C state after every batch."""
    compiled.quiesce()


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
def test_compiled_state_round_trips_through_quiesce(mode):
    """quiesce() after every batch syncs the C state down and drops it;
    the next batch rebuilds it from the Python models.  The cache
    contents and the C-side counters must survive that round trip."""
    run_differential(mode, "lru", 5, "compiled", between=_quiesce)


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


# -- runs-only batches: a walked batch held as its runs alone -----------------


#: Stretches of accesses on one line: the line (below 4 KB, so shared
#: ones fall in interval owner 7's buffer), how many accesses (words
#: wrap around the line), how they write and whether the line is in
#: the shared buffer or the task's private region.
_STRETCHES = st.lists(
    st.tuples(
        st.integers(0, 47),
        st.integers(1, 24),
        st.sampled_from(["load", "store", "first", "mixed"]),
        st.booleans(),
    ),
    max_size=40,
)


def _stretch_batch(stretches, private_base):
    """A read-only batch of the stretches, so a compiled walk keeps its
    runs: 16 stores on a 64-byte line make a store fill."""
    addrs, writes = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=bool)]
    for line, count, kind, shared in stretches:
        base = 0 if shared else private_base
        addrs.append(base + 64 * line + 4 * (np.arange(count) % 16))
        flags = np.zeros(count, dtype=bool)
        if kind == "store":
            flags[:] = True
        elif kind == "first":
            flags[0] = True
        elif kind == "mixed":
            flags[1::2] = True
        writes.append(flags)
    return _read_only(AccessBatch.from_addresses(
        np.concatenate(addrs), writes=np.concatenate(writes)
    ))


def _walked_runs_only(batches):
    """Each batch after a compiled walk, and its runs-only form."""
    first = build_system("compiled", PartitionMode.SHARED)
    compact = []
    for batch in batches:
        first.execute_batch(0, 1, batch, 0.0)
        _assert_folded(batch)
        compact.append(batch.runs_only())
    return compact


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
@settings(max_examples=15)
@given(per_task=st.lists(st.tuples(_STRETCHES, _STRETCHES), min_size=1,
                         max_size=3))
def test_runs_only_batches_walk_like_their_originals(mode, per_task):
    """A compiled system walking the runs-only batches ends
    bit-identical to one walking their originals."""
    batches = [_stretch_batch(stretches, task << 22)
               for pair in per_task
               for task, stretches in enumerate(pair, start=1)]
    compact = _walked_runs_only(batches)
    original = build_system("compiled", mode)
    runs_only = build_system("compiled", mode)
    for step, (batch, held) in enumerate(zip(batches, compact)):
        cpu, task = step % 2, 1 + step % 2
        assert original.execute_batch(cpu, task, batch, step * 500.0) \
            == runs_only.execute_batch(cpu, task, held, step * 500.0)
    original.sync_state()
    assert_systems_identical(original, runs_only, mode)
    assert runs_only.effective_engine == "compiled"


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_a_runs_only_batch_walks_in_c_and_nowhere_else():
    """A runs-only batch has no addresses: reading them, walking it on
    the reference engine or at another line size or L1 set count,
    copying and pickling it all raise ``MemoryModelError``, and the
    refused walks change no state.  Its repr reads no address."""
    batch = _kept_batch(3)
    assert batch.runs_only() is batch  # not walked yet: no runs to keep
    (compact,) = _walked_runs_only([batch])
    assert (compact.n_accesses, len(compact), compact.instructions) \
        == (batch.n_accesses, batch.n_accesses, batch.instructions)
    assert repr(compact) == (
        f"_RunsBatch(n_accesses={batch.n_accesses}, "
        f"n_runs={batch._runs[3]}, instructions={batch.instructions})"
    )
    forbidden = {
        "addrs": lambda: compact.addrs,
        "writes": lambda: compact.writes,
        "runs": lambda: compact.runs(6),
        "copy": lambda: copy.copy(compact),
        "deepcopy": lambda: copy.deepcopy(compact),
        "pickle": lambda: pickle.dumps(compact),
    }
    for call in forbidden.values():
        with pytest.raises(MemoryModelError):
            call()
    for engine, line_size, l1_sets in (("reference", 64, 4),
                                       ("compiled", 32, 4),
                                       ("compiled", 64, 8)):
        mem = build_system(engine, PartitionMode.SHARED,
                           line_size=line_size, l1_sets=l1_sets)
        with pytest.raises(MemoryModelError):
            mem.execute_batch(0, 1, compact, 0.0)
        untouched = build_system("reference", PartitionMode.SHARED,
                                 line_size=line_size, l1_sets=l1_sets)
        assert_systems_identical(untouched, mem, (engine, line_size, l1_sets))


# -- folding: a run on the line its L1 set last saw joins that run ------------


def _reference_fold(runs, l1_sets, full_line_count):
    """The compiled engine's fold of ``coalesce_runs``' unfolded runs,
    one run at a time, as ``[lines, counts, writes, store fills]``.

    A run joins the run that its L1 set last kept when that run is on
    its line -- unless it writes and that run does not.  A merged run
    keeps its flags.
    """
    lines, counts, write_any, write_all = (a.tolist() for a in runs)
    kept = []  # [line, count, write, store fill]
    last = {}  # L1 set -> index into kept
    for i, line in enumerate(lines):
        write = write_any[i]
        target = last.get(line % l1_sets)
        if (target is not None and kept[target][0] == line
                and (kept[target][2] or not write)):
            kept[target][1] += counts[i]
            continue
        last[line % l1_sets] = len(kept)
        kept.append([line, counts[i], write,
                     write_all[i] and counts[i] >= full_line_count])
    return [list(column) for column in zip(*kept)] or [[], [], [], []]


def _assert_folded(batch, l1_sets=4):
    """The runs ``batch`` kept are the reference fold of its runs."""
    key, runs = batch._runs[:2]
    lines, info = runs[:, 0].tolist(), runs[:, 1].tolist()
    want = _reference_fold(coalesce_runs(batch.addrs, batch.writes, key[0]),
                           l1_sets, key[1])
    assert [lines, [x >> 2 for x in info], [bool(x & 1) for x in info],
            [bool(x & 2) for x in info]] == want


#: Stretches over three lines of each of build_system's four L1 sets
#: (two ways each), so that runs revisit the line their set last saw,
#: and other lines of the set between: the set, which of its lines, how
#: many accesses (16 stores make a store fill), how they write and
#: whether the line is in the shared buffer or the task's region.
_REVISITS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(1, 20),
        st.sampled_from(["load", "store", "first", "mixed"]),
        st.booleans(),
    ),
    max_size=50,
)


def _revisit_batch(stretches, private_base):
    return _stretch_batch([(set_index + 4 * k, count, kind, shared)
                           for set_index, k, count, kind, shared
                           in stretches], private_base)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
@settings(max_examples=25)
@given(per_task=st.lists(st.tuples(_REVISITS, _REVISITS), min_size=1,
                         max_size=3))
def test_folded_runs_walk_like_the_reference(mode, per_task):
    """Batches full of revisits within an L1 set: the compiled engine
    walks their folded runs, and their runs-only forms, bit-identically
    to the reference engine's unfolded walk."""
    batches = [_revisit_batch(stretches, task << 22)
               for pair in per_task
               for task, stretches in enumerate(pair, start=1)]
    reference = build_system("reference", mode)
    compiled = build_system("compiled", mode)
    held = build_system("compiled", mode)
    for step, batch in enumerate(batches):
        cpu, task, now = step % 2, 1 + step % 2, step * 500.0
        want = reference.execute_batch(cpu, task, batch, now)
        assert compiled.execute_batch(cpu, task, batch, now) == want, step
        _assert_folded(batch)
        assert held.execute_batch(cpu, task, batch.runs_only(), now) \
            == want, step
    for mem in (compiled, held):
        assert_systems_identical(reference, mem, mode)
        assert mem.effective_engine == "compiled"


def _lines_batch(stretches):
    """A read-only batch of ``(line, count, kind)`` stretches in task
    1's private region (64-byte lines, four L1 sets)."""
    return _stretch_batch([(line, count, kind, False)
                           for line, count, kind in stretches], _KEPT_BASE)


#: Hand-made batches, the runs the compiled engine keeps for each, as
#: ``(line offset, count, write, store fill)``, and the rule they show.
#: Lines 0, 4 and 8 share L1 set 0; line 1 is in set 1.
_FOLD_CASES = {
    "revisits": (
        [(0, 3, "load"), (1, 2, "load"), (0, 4, "load"), (1, 1, "load"),
         (0, 2, "load"), (1, 5, "load")],
        [(0, 9, False, False), (1, 8, False, False)],
    ),
    "write-onto-a-read-run": (
        [(0, 3, "load"), (1, 2, "load"), (0, 1, "store"), (1, 2, "load")],
        [(0, 3, False, False), (1, 4, False, False), (0, 1, True, False)],
    ),
    "write-onto-a-written-run": (
        [(0, 3, "first"), (1, 2, "load"), (0, 2, "mixed"), (1, 1, "load")],
        [(0, 5, True, False), (1, 3, False, False)],
    ),
    "next-run-cannot-join-the-tail": (
        [(0, 3, "load"), (1, 2, "load"), (0, 4, "load"), (1, 1, "store")],
        [(0, 7, False, False), (1, 2, False, False), (1, 1, True, False)],
    ),
    "next-run-joins-the-tail": (
        [(0, 3, "load"), (1, 2, "first"), (0, 4, "load"), (1, 1, "store")],
        [(0, 7, False, False), (1, 3, True, False)],
    ),
    "store-fill-then-reads": (
        [(0, 16, "store"), (1, 2, "load"), (0, 5, "load"), (1, 3, "load")],
        [(0, 21, True, True), (1, 5, False, False)],
    ),
    "another-line-of-the-set-between": (
        [(0, 2, "load"), (4, 2, "load"), (0, 2, "load"), (8, 2, "load"),
         (0, 2, "load")],
        [(0, 2, False, False), (4, 2, False, False), (0, 2, False, False),
         (8, 2, False, False), (0, 2, False, False)],
    ),
}


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("case", list(_FOLD_CASES))
def test_fold_cases(mode, case):
    """Each hand-made batch keeps exactly the runs listed, and it and
    its runs-only form walk like the reference before, between and
    after a batch that reads every line of the cases again."""
    stretches, runs = _FOLD_CASES[case]
    batch = _lines_batch(stretches)
    again = _lines_batch([(line, 1, "load") for line in (0, 1, 4, 8)])
    reference = build_system("reference", mode)
    compiled = build_system("compiled", mode)
    held = build_system("compiled", mode)
    for step, walked in enumerate((batch, again, batch, again)):
        now = step * 500.0
        want = reference.execute_batch(0, 1, walked, now)
        assert compiled.execute_batch(0, 1, walked, now) == want, step
        assert held.execute_batch(0, 1, walked.runs_only(), now) == want, step
    _assert_folded(batch)
    first = _KEPT_BASE >> 6
    lines, info = batch._runs[1].T.tolist()
    assert [(line - first, x >> 2, bool(x & 1), bool(x & 2))
            for line, x in zip(lines, info)] == runs
    for mem in (compiled, held):
        assert_systems_identical(reference, mem, case)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_a_kept_batch_flips_between_l1_set_counts():
    """The fold depends on the L1 set count: at eight sets, lines 0, 4
    and 12 (x 64 B) fall in two sets, so the later runs on line 0 fold;
    at four sets they share one set and nothing folds.  Walked
    alternately, from eight sets, one batch keeps the runs of the set
    count it was walked at last."""
    systems = {
        sets: (build_system("reference", PartitionMode.SHARED,
                            l1_sets=sets),
               build_system("compiled", PartitionMode.SHARED, l1_sets=sets))
        for sets in (4, 8)
    }
    kept = _lines_batch([(0, 2, "load"), (4, 2, "load"), (0, 2, "load"),
                         (12, 2, "load"), (0, 1, "load"), (8, 1, "load")])
    n_runs = {}
    for step in range(6):
        sets = (8, 4)[step % 2]
        reference, compiled = systems[sets]
        _walk_both(reference, compiled, step % 2, 1, kept, step * 500.0)
        assert kept._runs[0] == compiled._compiled.run_key
        _assert_folded(kept, l1_sets=sets)
        n_runs[sets] = kept._runs[3]
    assert n_runs == {8: 4, 4: 6}
    for sets, (reference, compiled) in systems.items():
        assert_systems_identical(reference, compiled, sets)
        assert compiled.effective_engine == "compiled"


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


def _as_uint64(batch):
    return AccessBatch(addrs=batch.addrs.astype(np.uint64),
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
@pytest.mark.parametrize("convert", [_as_int32, _as_uint64, _as_strided],
                         ids=["int32", "uint64", "strided"])
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


def _line_batch(base, n_lines=64):
    """``n_lines`` loads, one per line from ``base``."""
    return AccessBatch.from_addresses(base + 64 * np.arange(n_lines))


@pytest.mark.parametrize("count", [2.9, np.float64(7.7), 100.0, -1, 2**63])
def test_a_float_or_out_of_range_instruction_count_is_refused(count):
    """Regression: the reference walk priced a float count as it stood
    (2.9: 1,274 cycles, 2.9 instructions) and the compiled engine
    truncated it (1,273 cycles, 2 instructions).  The count must be an
    integer the C walk's int64 holds."""
    with pytest.raises(MemoryModelError, match="instruction count"):
        AccessBatch(addrs=np.arange(0, 640, 4), writes=np.zeros(160, bool),
                    instructions=count)


@pytest.mark.parametrize("count", [np.int64(7), np.uint16(300), 2**62])
def test_an_integer_instruction_count_of_any_type_walks_identically(count):
    batch = AccessBatch(addrs=np.arange(0, 640, 4),
                        writes=np.zeros(160, bool), instructions=count)
    assert type(batch.instructions) is int and batch.instructions == count
    results = [
        MemorySystem(1, HierarchyConfig(engine=engine))
        .execute_batch(0, 0, batch, 0.0)
        for engine in HierarchyConfig.ENGINES
    ]
    assert results[0] == results[1]
    assert type(results[1].instructions) is int


def test_an_address_at_or_above_2_63_is_refused():
    """Regression: a uint64 address at or above ``2**63`` walked on the
    reference engine, and the compiled engine refused it as a negative
    address.  Only uint64 holds one; below it, uint64 walks
    bit-identically (``test_compiled_engine_reads_any_integer_layout``)."""
    for addr in (2**63, 2**63 + 64, 2**64 - 1):
        with pytest.raises(MemoryModelError, match="2\\*\\*63"):
            AccessBatch(addrs=np.array([64, addr], dtype=np.uint64),
                        writes=np.zeros(2, bool), instructions=1)
    below = AccessBatch(addrs=np.array([2**63 - 1], dtype=np.uint64),
                        writes=np.zeros(1, bool), instructions=1)
    assert below.n_accesses == 1


def test_a_nan_batch_time_is_refused_before_any_state_changes():
    """Regression: the Python bus clamps a NaN elapsed time to none,
    and the C bus kept the NaN in its demand: after a batch on CPU 1, a
    batch on CPU 0 at a NaN time walked 8,197 cycles on the reference
    engine and 8,677 on the compiled one.  Both engines now raise
    before any state changes, and an infinite time walks identically."""
    systems = [MemorySystem(2, HierarchyConfig(engine=engine))
               for engine in HierarchyConfig.ENGINES]
    for mem in systems:
        mem.execute_batch(1, 0, _line_batch(0), 10.0)
        with pytest.raises(MemoryModelError, match="NaN"):
            mem.execute_batch(0, 0, _line_batch(1 << 20), float("nan"))
    assert_systems_identical(*systems, "nan")
    reference, other = systems
    assert reference.bus._demand[0] == 0.0
    assert reference.l1s[0].stats.per_owner == {}
    _walk_both(reference, other, 0, 0, _line_batch(1 << 20), float("inf"))
    assert_systems_identical(reference, other, "inf")


def _private_batch(rng, base):
    addrs = base + (rng.integers(0, 1 << 16, 400) & ~3)
    return AccessBatch.from_addresses(addrs, writes=rng.random(400) < 0.4)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", [PartitionMode.SHARED,
                                  PartitionMode.WAY_PARTITIONED])
def test_owner_ids_beyond_the_first_counter_capacity(mode):
    """Owners 1 and 2 size the C counters; task owner 300, then an
    interval owner 700 turn up mid-run.  The counters grow where the
    tables are bound: for the task owner at its first batch, for the
    interval owner at the first batch after its interval was added,
    whether or not that batch touches the interval.  The run stays
    bit-identical on the C tier."""
    reference = build_system("reference", mode)
    compiled = build_system("compiled", mode)
    rng = np.random.default_rng(8)
    for step in range(12):
        if step == 6:
            for mem in (reference, compiled):
                mem.resolver.intervals.add(3 << 20, (3 << 20) + 8192, 700)
            assert compiled._compiled.n_owners <= 700
        task = (1, 2, 300)[step % 3]
        base = {1: 1 << 22, 2: 2 << 22, 300: 3 << 22}[task]
        if step >= 6 and step % 2:
            base = 3 << 20  # the new interval
        batch = _private_batch(rng, base)
        assert compiled.execute_batch(step % 2, task, batch, step * 500.0) \
            == reference.execute_batch(step % 2, task, batch, step * 500.0)
        if step == 6:
            # Bound, and covered, although no run resolved it yet.
            assert compiled._compiled.n_owners > 700
    assert compiled._compiled.n_owners > 700
    assert compiled.effective_engine == "compiled"
    assert_systems_identical(reference, compiled, "grown counters")


#: Owner ids by how the entry points must treat them; each edge of
#: ``[0, MAX_OWNERS)`` is drawn as often as a whole class.
_OWNER_IDS = st.one_of(
    st.integers(0, 63),                         # the first counters
    st.integers(64, MAX_OWNERS - 2),            # the counters grow
    st.just(MAX_OWNERS - 1),                    # the last owner id
    st.just(MAX_OWNERS),                        # the first refused one
    st.integers(MAX_OWNERS + 1, 10**9),
    st.just(-1),                                # never from the registry
    st.integers(-10**9, -2),
    st.sampled_from([2**63, -2**63 - 1]),       # outside int64
)
#: Interval slots of the steps below: slot k is [(4 + k) << 20, +8 KiB).
_SLOTS = 4
_TABLE_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, _SLOTS - 1), _OWNER_IDS),
    st.tuples(st.just("remove"), st.integers(0, _SLOTS - 1)),
    st.tuples(st.just("walk"), _OWNER_IDS, st.integers(0, _SLOTS - 1)),
), min_size=1, max_size=12)


@pytest.mark.parametrize("mode", [PartitionMode.SHARED,
                                  PartitionMode.WAY_PARTITIONED])
@settings(max_examples=40)
@given(steps=_TABLE_STEPS)
@example(steps=[("add", 0, 2**63), ("walk", 1, 0)])
@example(steps=[("add", 0, -2**63 - 1), ("walk", 1, 0)])
def test_owner_ids_are_checked_where_the_tables_are_bound(mode, steps):
    """Interval adds and removes between batches of any task owner.  An
    add or a walk with an owner outside ``[0, MAX_OWNERS)`` raises on
    both engines before any state changes; the others walk
    bit-identically, and on the C walk the counters cover every bound
    owner from the batch that binds it.  Set partitioning is left out:
    there a line's set follows its owner, so re-attributing resident
    lines breaks the model's contract."""
    reference = build_system("reference", mode)
    compiled = build_system("compiled", mode)
    table = {}  # slot -> interval owner (7 and 8 are build_system's)
    for i, step in enumerate(steps):
        if step[0] == "add" and step[1] not in table:
            base = (4 + step[1]) << 20
            if 0 <= step[2] < MAX_OWNERS:
                table[step[1]] = step[2]
                for mem in (reference, compiled):
                    mem.resolver.intervals.add(base, base + 8192, step[2])
                continue
            for mem in (reference, compiled):
                with pytest.raises(MemoryModelError):
                    mem.resolver.intervals.add(base, base + 8192, step[2])
                assert len(mem.resolver.intervals) == 2 + len(table)
        elif step[0] == "remove" and step[1] in table:
            del table[step[1]]
            for mem in (reference, compiled):
                mem.resolver.intervals.remove((4 + step[1]) << 20)
        elif step[0] == "walk":
            task = step[1]
            batch = _private_batch(np.random.default_rng(i),
                                   (4 + step[2]) << 20)
            if 0 <= task < MAX_OWNERS:
                _walk_both(reference, compiled, i % 2, task, batch, i * 500.0)
                if C_AVAILABLE:
                    assert compiled._compiled.n_owners \
                        > max(task, 7, 8, *table.values()), i
                continue
            for mem in (reference, compiled):
                with pytest.raises(MemoryModelError):
                    mem.execute_batch(i % 2, task, batch, i * 500.0)
    assert_systems_identical(reference, compiled, steps)
    assert compiled.effective_engine \
        == ("compiled" if C_AVAILABLE else "reference")


#: The calls through which an owner id enters a memory system, and the
#: partition mode each one is tried in.
_ENTRY_MODES = {
    "interval": PartitionMode.SHARED,
    "set-assign": PartitionMode.SET_PARTITIONED,
    "set-alias": PartitionMode.SET_PARTITIONED,
    "way-assign": PartitionMode.WAY_PARTITIONED,
    "task": PartitionMode.SHARED,
}


def _enter(entry, mem, owner, now):
    """Hand ``owner`` to ``mem`` through ``entry``: the interval table
    (over 3 MiB + 8 KiB), a partition map, or as the task owner of a
    batch in the owner's own region at ``3 << 22``, whose result this
    returns."""
    if entry == "interval":
        mem.resolver.intervals.add(3 << 20, (3 << 20) + 8192, owner)
    elif entry == "set-assign":
        mem.set_map.assign(owner, base=11, n_sets=5)
    elif entry == "set-alias":
        mem.set_map.alias(owner, 7)
    elif entry == "way-assign":
        mem.way_map.assign(owner, (3,))
    else:
        batch = AccessBatch.from_addresses((3 << 22) + 64 * np.arange(40))
        return mem.execute_batch(1, owner, batch, now)
    return None


def _owner_state(mem):
    """Everything the entry points write, with the tables' versions."""
    return (list(mem.resolver.intervals), mem.resolver.intervals.version,
            mem.set_map.partitions, dict(mem.set_map._aliases),
            mem.set_map.version, dict(mem.way_map._ways_of),
            mem.way_map._version)


@pytest.mark.parametrize("engine", HierarchyConfig.ENGINES)
@pytest.mark.parametrize("entry", list(_ENTRY_MODES))
@pytest.mark.parametrize("owner", [-1, MAX_OWNERS, 10**9, 2**63,
                                   -2**63 - 1])
def test_an_owner_outside_the_range_is_refused_where_it_enters(
    engine, entry, owner,
):
    """Each entry point raises for an owner outside ``[0, MAX_OWNERS)``
    -- ``PartitionError`` from the partition maps, else
    ``MemoryModelError`` -- on both engines, before any state changes:
    through batches before and after the call, the system stays
    identical to a reference system that never saw it."""
    mode = _ENTRY_MODES[entry]
    mem = build_system(engine, mode)
    untouched = build_system("reference", mode)
    rng = np.random.default_rng(5)
    for step in range(6):
        now = step * 500.0
        if step == 3:
            before = _owner_state(mem)
            error = PartitionError if entry.startswith(("set", "way")) \
                else MemoryModelError
            with pytest.raises(error, match=str(MAX_OWNERS)):
                _enter(entry, mem, owner, now)
            assert _owner_state(mem) == before
        batch = generate_batch(rng, step, 1 + step % 2)
        _walk_both(untouched, mem, step % 2, 1 + step % 2, batch, now)
    assert_systems_identical(untouched, mem, (entry, owner))


@pytest.mark.parametrize("engine", HierarchyConfig.ENGINES)
@pytest.mark.parametrize("entry", list(_ENTRY_MODES))
def test_the_last_owner_id_enters_everywhere(engine, entry):
    """Owner ``MAX_OWNERS - 1`` enters through each entry point and
    walks bit-identically to the reference engine, as the task owner of
    its own batches; on the C walk the counters grow to cover it."""
    mode = _ENTRY_MODES[entry]
    reference = build_system("reference", mode)
    mem = build_system(engine, mode)
    last = MAX_OWNERS - 1
    rng = np.random.default_rng(9)
    for step in range(8):
        now = step * 500.0
        if step == 3:
            assert _enter(entry, mem, last, now) \
                == _enter(entry, reference, last, now)
        if step >= 3 and step % 2:
            task, batch = last, _private_batch(rng, 3 << 22)
        else:
            task, batch = 1, _private_batch(rng, 3 << 20)
        _walk_both(reference, mem, step % 2, task, batch, now + 250.0)
    if mem.effective_engine == "compiled":
        assert mem._compiled.n_owners > last
    assert_systems_identical(reference, mem, entry)


def test_compiled_engine_without_c_walker_runs_reference(monkeypatch):
    """No C walker (no compiler, or REPRO_NO_CWALKER): the compiled
    engine takes the reference walk -- bit-identically -- and says so."""
    monkeypatch.setattr(cwalker, "load", lambda: None)
    reference = build_system("reference", PartitionMode.SET_PARTITIONED)
    compiled = build_system("compiled", PartitionMode.SET_PARTITIONED)
    assert compiled.effective_engine == "reference"
    rng = np.random.default_rng(11)
    for step in range(6):
        task = 1 + step % 2
        batch = generate_batch(rng, step, task)
        assert compiled.execute_batch(step % 2, task, batch, step * 500.0) \
            == reference.execute_batch(step % 2, task, batch, step * 500.0)
    assert compiled._compiled is None
    assert compiled.effective_engine == "reference"
    assert_systems_identical(reference, compiled, "no C walker")


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_compiled_engine_after_failed_state_allocation_raises(monkeypatch):
    """A C state that cannot be allocated raises ``MemoryError`` out of
    every batch that needs one, before any state changes; the engine
    stays compiled and takes no other walk."""
    def no_memory(self, mem, walker):
        raise MemoryError("walker_state_new failed")

    monkeypatch.setattr(_CompiledState, "__init__", no_memory)
    reference = build_system("reference", PartitionMode.SET_PARTITIONED)
    compiled = build_system("compiled", PartitionMode.SET_PARTITIONED)
    batch = generate_batch(np.random.default_rng(13), 0, 1)
    for step in range(2):
        with pytest.raises(MemoryError):
            compiled.execute_batch(0, 1, batch, step * 500.0)
    assert compiled._compiled is None
    assert compiled.effective_engine == "compiled"
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


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_ctypes_declarations_match_the_c_definitions():
    """ctypes cannot see its declarations drift from ``_walker.c``: a
    wrong parameter count or return type corrupts calls silently.  Each
    bound function takes as many parameters as its ``argtypes`` name,
    and returns ``void`` exactly when its ``restype`` is ``None``."""
    with open(cwalker._SOURCE) as fh:
        source = fh.read()
    bound = vars(cwalker.load())
    assert len(bound) == 5
    for function in bound.values():
        name = function.__name__
        match = re.search(
            rf"^(\w[\w ]*?)\s*(\*?)\s*{name}\(([^)]*)\)\s*\{{",
            source, re.MULTILINE,
        )
        assert match is not None, name
        params = [param for param in match.group(3).split(",")
                  if param.strip()]
        assert len(params) == len(function.argtypes), name
        returns_void = match.group(1) == "void" and not match.group(2)
        assert returns_void == (function.restype is None), name


def test_engine_config_validated():
    with pytest.raises(ConfigurationError):
        HierarchyConfig(engine="warp")
    for engine in HierarchyConfig.ENGINES:
        assert HierarchyConfig(engine=engine).engine == engine


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
    # The next access must miss again (caches really were invalidated).
    result = mem.execute_batch(0, 1, AccessBatch.from_addresses([0]), 10.0)
    assert result.l1_misses == 1


def test_repartition_in_way_mode():
    mem = build_system("compiled", PartitionMode.WAY_PARTITIONED)
    writes = AccessBatch.from_addresses([0, 64], writes=True)
    mem.execute_batch(0, 1, writes, now=0.0)
    assert mem.repartition() == 4  # two dirty lines per level
