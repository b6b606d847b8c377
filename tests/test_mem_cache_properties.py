"""Property-based tests: the cache against a tiny reference model."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.mem.cache import CacheGeometry, SetAssociativeCache


class ReferenceLru:
    """Obviously correct LRU cache keyed by (set, line)."""

    def __init__(self, sets, ways):
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(sets)]

    def access(self, line, set_index):
        bucket = self.sets[set_index]
        if line in bucket:
            bucket.move_to_end(line)
            return True
        if len(bucket) >= self.ways:
            bucket.popitem(last=False)
        bucket[line] = None
        return False


@settings(max_examples=60)
@given(
    sets_log=st.integers(0, 3),
    ways=st.integers(1, 4),
    accesses=st.lists(st.integers(0, 63), min_size=1, max_size=400),
)
def test_lru_matches_reference_model(sets_log, ways, accesses):
    sets = 1 << sets_log
    cache = SetAssociativeCache(
        CacheGeometry(sets=sets, ways=ways, line_size=64)
    )
    reference = ReferenceLru(sets, ways)
    for line in accesses:
        set_index = line % sets
        got_hit, _ = cache.access(line, set_index, False, owner=1)
        assert got_hit == reference.access(line, set_index)
    stats = cache.stats.owner(1)
    assert stats.accesses == len(accesses)
    assert stats.hits + stats.misses == stats.accesses


@settings(max_examples=40)
@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 31), st.booleans()), min_size=1, max_size=200
    )
)
def test_dirty_lines_writeback_exactly_once(accesses):
    """Every dirty line is written back at most once per residence."""
    cache = SetAssociativeCache(CacheGeometry(sets=2, ways=2, line_size=64))
    writes_seen = 0
    for line, write in accesses:
        cache.access(line, line % 2, write, owner=1)
        if write:
            writes_seen += 1
    stats = cache.stats.owner(1)
    assert stats.writebacks <= writes_seen
    assert stats.evictions_suffered >= stats.writebacks


@settings(max_examples=40)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
def test_bigger_cache_never_misses_more(lines):
    """LRU inclusion: doubling ways cannot increase misses (same sets)."""
    results = []
    for ways in (2, 4):
        cache = SetAssociativeCache(
            CacheGeometry(sets=4, ways=ways, line_size=64)
        )
        for line in lines:
            cache.access(line, line % 4, False, owner=1)
        results.append(cache.stats.owner(1).misses)
    assert results[1] <= results[0]
