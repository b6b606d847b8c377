"""Sparse per-set state of the cache models.

Both models keep per-set state only for the sets that hold a line.
These tests drive them against the dense models they replaced (one
list per set, built up front, kept here as the oracle), check the set
index range, and check that a memory system with a large L2 builds no
per-set state until its Python models hold lines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryModelError
from repro.mem import cwalker
from repro.mem.cache import (
    CacheGeometry,
    CacheStats,
    SetAssociativeCache,
    WayManagedCache,
)
from repro.mem.hierarchy import HierarchyConfig, MemorySystem
from repro.mem.partition import PartitionMode
from repro.mem.trace import AccessBatch

C_AVAILABLE = cwalker.load() is not None


class DenseSetAssociative:
    """One recency list per set, built up front."""

    def __init__(self, geometry, policy):
        self.geometry = geometry
        self.policy = policy
        self.stats = CacheStats()
        self.sets = [[] for _ in range(geometry.sets)]
        self.where = {}
        self.owner_of = {}
        self.dirty = set()

    def access(self, line, set_index, write, owner, n=1):
        lines = self.sets[set_index]
        stats = self.stats.owner(owner)
        stats.accesses += n
        if self.where.get(line) == set_index:
            stats.hits += n
            if self.policy == "lru" and lines[0] != line:
                lines.remove(line)
                lines.insert(0, line)
            if write:
                self.dirty.add(line)
            return True, None
        stats.misses += 1
        stats.hits += n - 1
        evicted = None
        if len(lines) >= self.geometry.ways:
            victim = lines.pop()
            del self.where[victim]
            victim_owner = self.owner_of.pop(victim)
            victim_dirty = victim in self.dirty
            if victim_dirty:
                self.dirty.discard(victim)
                self.stats.owner(victim_owner).writebacks += 1
            self.stats.owner(victim_owner).evictions_suffered += 1
            key = (owner, victim_owner)
            self.stats.eviction_matrix[key] = (
                self.stats.eviction_matrix.get(key, 0) + 1
            )
            evicted = (victim, victim_owner, victim_dirty)
        lines.insert(0, line)
        self.where[line] = set_index
        self.owner_of[line] = owner
        if write:
            self.dirty.add(line)
        return False, evicted

    def probe_writeback(self, line, set_index, owner):
        if self.where.get(line) == set_index:
            self.dirty.add(line)
            return True
        return False

    def invalidate_all(self):
        flushed = sorted((line, self.owner_of[line]) for line in self.dirty)
        for _line, owner in flushed:
            self.stats.owner(owner).writebacks += 1
        for lines in self.sets:
            lines.clear()
        self.where.clear()
        self.owner_of.clear()
        self.dirty.clear()
        return flushed

    def invalidate_owner(self, owner):
        victims = [line for line, who in self.owner_of.items() if who == owner]
        flushed = sorted(line for line in victims if line in self.dirty)
        for line in victims:
            del self.owner_of[line]
            del self.where[line]
            self.dirty.discard(line)
        if flushed:
            self.stats.owner(owner).writebacks += len(flushed)
        for lines in self.sets:
            lines[:] = [line for line in lines if line not in victims]
        return flushed

    def export_state(self):
        ways = self.geometry.ways
        n_slots = self.geometry.sets * ways
        lines = np.full(n_slots, -1, dtype=np.int64)
        owners = np.zeros(n_slots, dtype=np.int64)
        dirty = np.zeros(n_slots, dtype=np.uint8)
        lens = np.zeros(self.geometry.sets, dtype=np.int32)
        for set_index, slist in enumerate(self.sets):
            lens[set_index] = len(slist)
            for k, line in enumerate(slist):
                lines[set_index * ways + k] = line
                owners[set_index * ways + k] = self.owner_of[line]
                dirty[set_index * ways + k] = line in self.dirty
        return lines, owners, dirty, lens

    def import_state(self, lines, owners, dirty, lens):
        ways = self.geometry.ways
        self.where, self.owner_of, self.dirty = {}, {}, set()
        for set_index in range(self.geometry.sets):
            base = set_index * ways
            count = int(lens[set_index])
            self.sets[set_index] = lines[base:base + count].tolist()
            for k, line in enumerate(self.sets[set_index]):
                self.where[line] = set_index
                self.owner_of[line] = int(owners[base + k])
                if dirty[base + k]:
                    self.dirty.add(line)

    def set_contents(self, set_index):
        return tuple(self.sets[set_index])


class DenseWayManaged:
    """Three slot rows per set (line, owner, stamp), built up front."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.stats = CacheStats()
        sets, ways = geometry.sets, geometry.ways
        self.line = [[None] * ways for _ in range(sets)]
        self.owner = [[0] * ways for _ in range(sets)]
        self.stamp = [[0] * ways for _ in range(sets)]
        self.dirty = set()
        self.clock = 0

    def access(self, line, set_index, write, owner, alloc_ways, n=1):
        self.clock += 1
        slot_lines = self.line[set_index]
        stats = self.stats.owner(owner)
        stats.accesses += n
        for way, resident in enumerate(slot_lines):
            if resident == line:
                stats.hits += n
                self.stamp[set_index][way] = self.clock
                if write:
                    self.dirty.add(line)
                return True, None
        stats.misses += 1
        stats.hits += n - 1
        victim_way = next(
            (way for way in alloc_ways if slot_lines[way] is None), None
        )
        if victim_way is None:
            victim_way = min(alloc_ways, key=lambda w: self.stamp[set_index][w])
        evicted = None
        old_line = slot_lines[victim_way]
        if old_line is not None:
            old_owner = self.owner[set_index][victim_way]
            old_dirty = old_line in self.dirty
            self.dirty.discard(old_line)
            if old_dirty:
                self.stats.owner(old_owner).writebacks += 1
            self.stats.owner(old_owner).evictions_suffered += 1
            key = (owner, old_owner)
            self.stats.eviction_matrix[key] = (
                self.stats.eviction_matrix.get(key, 0) + 1
            )
            evicted = (old_line, old_owner, old_dirty)
        slot_lines[victim_way] = line
        self.owner[set_index][victim_way] = owner
        self.stamp[set_index][victim_way] = self.clock
        if write:
            self.dirty.add(line)
        return False, evicted

    def probe_writeback(self, line, set_index, owner):
        if line in self.line[set_index]:
            self.dirty.add(line)
            return True
        return False

    def invalidate_all(self):
        flushed = sorted(
            (line, self.owner[set_index][way])
            for set_index, slot_lines in enumerate(self.line)
            for way, line in enumerate(slot_lines)
            if line is not None and line in self.dirty
        )
        ways = self.geometry.ways
        for set_index in range(self.geometry.sets):
            self.line[set_index] = [None] * ways
            self.stamp[set_index] = [0] * ways
        for _line, owner in flushed:
            self.stats.owner(owner).writebacks += 1
        self.dirty.clear()
        return flushed

    def invalidate_owner(self, owner):
        flushed = []
        for set_index, slot_lines in enumerate(self.line):
            for way, line in enumerate(slot_lines):
                if line is None or self.owner[set_index][way] != owner:
                    continue
                if line in self.dirty:
                    self.dirty.discard(line)
                    flushed.append(line)
                slot_lines[way] = None
                self.owner[set_index][way] = 0
                self.stamp[set_index][way] = 0
        flushed.sort()
        if flushed:
            self.stats.owner(owner).writebacks += len(flushed)
        return flushed

    def export_state(self):
        ways = self.geometry.ways
        n_slots = self.geometry.sets * ways
        lines = np.full(n_slots, -1, dtype=np.int64)
        owners = np.zeros(n_slots, dtype=np.int64)
        dirty = np.zeros(n_slots, dtype=np.uint8)
        stamps = np.zeros(n_slots, dtype=np.int64)
        for set_index, slot_lines in enumerate(self.line):
            for way, line in enumerate(slot_lines):
                if line is None:
                    continue
                slot = set_index * ways + way
                lines[slot] = line
                owners[slot] = self.owner[set_index][way]
                stamps[slot] = self.stamp[set_index][way]
                dirty[slot] = line in self.dirty
        return lines, owners, dirty, stamps, self.clock

    def import_state(self, lines, owners, dirty, stamps, clock):
        ways = self.geometry.ways
        self.dirty = set()
        for set_index in range(self.geometry.sets):
            base = set_index * ways
            self.line[set_index] = [
                None if line == -1 else line
                for line in lines[base:base + ways].tolist()
            ]
            self.owner[set_index] = owners[base:base + ways].tolist()
            self.stamp[set_index] = stamps[base:base + ways].tolist()
            for way in range(ways):
                if dirty[base + way]:
                    self.dirty.add(int(lines[base + way]))
        self.clock = int(clock)

    def set_contents(self, set_index):
        return tuple(
            (way, line, self.owner[set_index][way], self.stamp[set_index][way])
            for way, line in enumerate(self.line[set_index])
            if line is not None
        )


def per_set_state(cache):
    """The set indices a sparse model holds state for."""
    if isinstance(cache, WayManagedCache):
        return set(cache._slots)
    return set(cache._sets)


def assert_same(sparse, dense, context):
    assert sparse.stats.per_owner == dense.stats.per_owner, context
    assert sparse.stats.eviction_matrix == dense.stats.eviction_matrix, \
        context
    got, want = sparse.export_state(), dense.export_state()
    for got_part, want_part in zip(got, want):
        assert np.array_equal(got_part, want_part), context
    holding = set()
    for set_index in range(sparse.geometry.sets):
        contents = sparse.set_contents(set_index)
        assert contents == dense.set_contents(set_index), (context, set_index)
        if contents:
            holding.add(set_index)
    # Per-set state exists for exactly the sets that hold a line.
    assert per_set_state(sparse) == holding, context


OWNERS = (1, 2, 3)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 47), st.booleans(),
                  st.sampled_from(OWNERS), st.integers(1, 3)),
        st.tuples(st.just("probe"), st.integers(0, 47),
                  st.sampled_from(OWNERS)),
        st.tuples(st.just("invalidate_owner"), st.sampled_from(OWNERS)),
        st.tuples(st.just("invalidate_all")),
        st.tuples(st.just("round_trip")),
    ),
    min_size=1,
    max_size=120,
)


def _geometry(sets_log, ways):
    return CacheGeometry(sets=1 << sets_log, ways=ways, line_size=64)


@settings(max_examples=150)
@given(policy=st.sampled_from(SetAssociativeCache.REPLACEMENT_POLICIES),
       sets_log=st.integers(0, 3), ways=st.integers(1, 3), ops=_OPS)
def test_set_associative_matches_the_dense_model(policy, sets_log, ways, ops):
    geometry = _geometry(sets_log, ways)
    sparse = SetAssociativeCache(geometry, policy=policy)
    dense = DenseSetAssociative(geometry, policy)
    sets = geometry.sets
    assert_same(sparse, dense, "built")
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "access":
            _, line, write, owner, n = op
            got = sparse.access(line, line % sets, write, owner, n=n)
            assert got == dense.access(line, line % sets, write, owner, n=n)
        elif kind == "probe":
            _, line, owner = op
            assert sparse.probe_writeback(line, line % sets, owner) \
                == dense.probe_writeback(line, line % sets, owner)
        elif kind == "invalidate_owner":
            assert sparse.invalidate_owner(op[1]) \
                == dense.invalidate_owner(op[1])
        elif kind == "invalidate_all":
            assert sparse.invalidate_all() == dense.invalidate_all()
        else:
            state = sparse.export_state()
            sparse.import_state(*state)
            dense.import_state(*dense.export_state())
        assert_same(sparse, dense, (step, op))


@settings(max_examples=150)
@given(sets_log=st.integers(0, 3), ways=st.integers(1, 4),
       columns=st.lists(st.sets(st.integers(0, 3), min_size=1),
                        min_size=len(OWNERS), max_size=len(OWNERS)),
       ops=_OPS)
def test_way_managed_matches_the_dense_model(sets_log, ways, columns, ops):
    geometry = _geometry(sets_log, ways)
    sparse = WayManagedCache(geometry)
    dense = DenseWayManaged(geometry)
    sets = geometry.sets
    # Each owner's allocation ways, folded into range (never empty).
    alloc = {
        owner: tuple(sorted({way % ways for way in ways_of}))
        for owner, ways_of in zip(OWNERS, columns)
    }
    assert_same(sparse, dense, "built")
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "access":
            _, line, write, owner, n = op
            got = sparse.access(line, line % sets, write, owner,
                                alloc[owner], n=n)
            assert got == dense.access(line, line % sets, write, owner,
                                       alloc[owner], n=n)
        elif kind == "probe":
            _, line, owner = op
            assert sparse.probe_writeback(line, line % sets, owner) \
                == dense.probe_writeback(line, line % sets, owner)
        elif kind == "invalidate_owner":
            assert sparse.invalidate_owner(op[1]) \
                == dense.invalidate_owner(op[1])
        elif kind == "invalidate_all":
            assert sparse.invalidate_all() == dense.invalidate_all()
        else:
            sparse.import_state(*sparse.export_state())
            dense.import_state(*dense.export_state())
        assert sparse._clock == dense.clock, (step, op)
        assert sparse._dirty == dense.dirty, (step, op)
        assert_same(sparse, dense, (step, op))


# -- set index range ---------------------------------------------------------


@pytest.mark.parametrize("set_index", [-1, -3, -8, 8, 9, 1 << 40])
def test_set_associative_rejects_a_set_index_out_of_range(set_index):
    cache = SetAssociativeCache(CacheGeometry(sets=8, ways=2, line_size=64))
    cache.access(7, 7, True, 1)
    with pytest.raises(MemoryModelError, match="set index"):
        cache.access(5, set_index, False, 2)
    with pytest.raises(MemoryModelError, match="set index"):
        cache.probe_writeback(7, set_index, 1)
    with pytest.raises(MemoryModelError, match="set index"):
        cache.set_contents(set_index)
    # Nothing changed: no line, no stats, no set.
    assert not cache.contains(5)
    assert set(cache.stats.per_owner) == {1}
    assert set(cache._sets) == {7}
    assert cache.set_contents(7) == (7,)


@pytest.mark.parametrize("set_index", [-1, -3, -8, 8, 9, 1 << 40])
def test_way_managed_rejects_a_set_index_out_of_range(set_index):
    cache = WayManagedCache(CacheGeometry(sets=8, ways=2, line_size=64))
    cache.access(5, 5, True, 1, (0, 1))
    with pytest.raises(MemoryModelError, match="set index"):
        cache.access(6, set_index, False, 2, (0, 1))
    with pytest.raises(MemoryModelError, match="set index"):
        cache.probe_writeback(5, set_index, 1)
    with pytest.raises(MemoryModelError, match="set index"):
        cache.set_contents(set_index)
    assert cache._clock == 1
    assert set(cache.stats.per_owner) == {1}
    assert set(cache._slots) == {5}
    assert cache.set_contents(5) == ((0, 5, 1, 1),)


def test_set_contents_of_an_untouched_set_creates_nothing():
    geometry = CacheGeometry(sets=1 << 14, ways=4, line_size=64)
    for cache in (SetAssociativeCache(geometry), WayManagedCache(geometry)):
        assert cache.set_contents(1 << 13) == ()
        assert not cache.probe_writeback(3, 1 << 13, 1)
        assert per_set_state(cache) == set()


# -- a memory system with a large L2 -----------------------------------------


def _big_system(engine, mode):
    config = HierarchyConfig(
        l2_geometry=CacheGeometry(sets=1 << 14, ways=4, line_size=64),
        engine=engine,
    )
    mem = MemorySystem(2, config, mode=mode)
    if mode is PartitionMode.SET_PARTITIONED:
        mem.set_map.assign(owner=1, base=0, n_sets=1 << 12)
        mem.set_map.assign(owner=2, base=1 << 12, n_sets=1 << 12)
    if mode is PartitionMode.WAY_PARTITIONED:
        mem.way_map.assign(1, (0, 1))
        mem.way_map.assign(2, (2, 3))
    return mem


def _l2(mem):
    return mem.l2 if mem.l2 is not None else mem.l2_way


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
def test_large_l2_holds_per_set_state_only_for_resident_lines(mode):
    mem = _big_system("compiled", mode)
    caches = [*mem.l1s, _l2(mem)]
    assert all(per_set_state(cache) == set() for cache in caches)

    rng = np.random.default_rng(5)
    for step in range(6):
        task = 1 + step % 2
        addrs = (task << 24) + (rng.integers(0, 1 << 20, 2000) & ~3)
        batch = AccessBatch.from_addresses(addrs, writes=rng.random(2000) < 0.3)
        mem.execute_batch(step % 2, task, batch, now=step * 1000.0)
    assert mem.effective_engine == "compiled"
    # The compiled walks hold the contents in C: the models stay empty.
    assert all(per_set_state(cache) == set() for cache in caches)

    mem.sync_state()
    state = mem._compiled
    l2 = _l2(mem)
    if mem.l2 is not None:
        held = set(np.flatnonzero(state.l2_len).tolist())
        assert held == set(l2._where.values())
    else:
        rows = state.l2_lines.reshape(-1, l2.geometry.ways)
        held = set(np.flatnonzero((rows != -1).any(axis=1)).tolist())
    assert 0 < len(held) < l2.geometry.sets
    assert per_set_state(l2) == held
    for cpu, l1 in enumerate(mem.l1s):
        lens = state.l1_len[cpu * state.l1_sets:(cpu + 1) * state.l1_sets]
        assert per_set_state(l1) == set(np.flatnonzero(lens).tolist())
