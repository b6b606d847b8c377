"""Tests for the set-associative cache models."""

import pytest

from repro.errors import MemoryModelError
from repro.mem.cache import CacheGeometry, SetAssociativeCache, WayManagedCache


def make_cache(sets=4, ways=2, policy="lru"):
    return SetAssociativeCache(
        CacheGeometry(sets=sets, ways=ways, line_size=64), policy=policy
    )


def test_geometry_properties():
    geometry = CacheGeometry(sets=2048, ways=4, line_size=64)
    assert geometry.size_bytes == 512 * 1024
    assert geometry.line_shift == 6
    assert geometry.index_mask == 2047
    assert geometry.natural_index((2048 + 5)) == 5
    assert "512KiB" in str(geometry)


def test_geometry_validation():
    with pytest.raises(MemoryModelError):
        CacheGeometry(sets=3, ways=2, line_size=64)
    with pytest.raises(MemoryModelError):
        CacheGeometry(sets=4, ways=0, line_size=64)
    with pytest.raises(MemoryModelError):
        CacheGeometry.from_size(1000, 4, 64)


def test_first_access_is_cold_miss():
    cache = make_cache()
    hit, cold, evicted = cache.access(10, set_index=0, write=False, owner=1)
    assert not hit and cold and evicted is None
    stats = cache.stats.owner(1)
    assert stats.accesses == 1 and stats.misses == 1 and stats.cold_misses == 1


def test_second_access_hits():
    cache = make_cache()
    cache.access(10, 0, False, 1)
    hit, cold, _ = cache.access(10, 0, False, 1)
    assert hit and not cold
    assert cache.stats.owner(1).hits == 1


def test_run_multiplicity_counts_extra_hits():
    cache = make_cache()
    cache.access(10, 0, False, 1, n=5)
    stats = cache.stats.owner(1)
    assert stats.accesses == 5
    assert stats.misses == 1 and stats.hits == 4


def test_lru_eviction_order():
    cache = make_cache(sets=1, ways=2)
    cache.access(1, 0, False, 1)
    cache.access(2, 0, False, 1)
    cache.access(1, 0, False, 1)  # 1 becomes MRU
    _hit, _cold, evicted = cache.access(3, 0, False, 1)
    assert evicted is not None and evicted[0] == 2  # LRU victim


def test_fifo_policy_ignores_recency():
    cache = make_cache(sets=1, ways=2, policy="fifo")
    cache.access(1, 0, False, 1)
    cache.access(2, 0, False, 1)
    cache.access(1, 0, False, 1)  # hit; FIFO does not reorder
    _hit, _cold, evicted = cache.access(3, 0, False, 1)
    assert evicted[0] == 1  # oldest inserted


def test_dirty_writeback_accounting():
    cache = make_cache(sets=1, ways=1)
    cache.access(1, 0, True, owner=1)  # dirty fill
    _hit, _cold, evicted = cache.access(2, 0, False, owner=2)
    assert evicted == (1, 1, True)
    assert cache.stats.owner(1).writebacks == 1
    assert cache.stats.owner(1).evictions_suffered == 1


def test_eviction_matrix_attribution():
    cache = make_cache(sets=1, ways=1)
    cache.access(1, 0, False, owner=1)
    cache.access(2, 0, False, owner=2)  # owner 2 evicts owner 1
    assert cache.stats.eviction_matrix == {(2, 1): 1}
    assert cache.stats.cross_owner_evictions() == 1


def test_probe_writeback_updates_in_place():
    cache = make_cache()
    cache.access(5, 1, False, 1)
    assert cache.probe_writeback(5, 1, 1)
    assert not cache.probe_writeback(99, 1, 1)
    # A hit probe marks dirty: evicting it must report dirty.
    cache_small = make_cache(sets=1, ways=1)
    cache_small.access(1, 0, False, 1)
    cache_small.probe_writeback(1, 0, 1)
    _h, _c, evicted = cache_small.access(2, 0, False, 1)
    assert evicted[2] is True


def test_invalidate_owner_and_all():
    cache = make_cache()
    cache.access(1, 0, False, owner=1)
    cache.access(2, 1, True, owner=2)
    # Owner 1 has no dirty lines: nothing to flush, line still dropped.
    assert cache.invalidate_owner(1) == []
    assert not cache.contains(1)
    assert cache.contains(2)
    # Line 2 was dirty: it is returned for the caller to write back and
    # counted as a writeback of its owner.
    assert cache.invalidate_all() == [(2, 2)]
    assert cache.stats.owner(2).writebacks == 1
    assert cache.resident_lines == 0


def test_invalidate_owner_returns_dirty_lines():
    cache = make_cache()
    cache.access(1, 0, True, owner=1)
    cache.access(5, 1, True, owner=1)
    cache.access(2, 0, False, owner=1)
    assert cache.invalidate_owner(1) == [1, 5]
    assert cache.stats.owner(1).writebacks == 2
    assert cache.resident_lines == 0
    # A fresh fill works after the wipe (membership map consistent).
    hit, cold, _ = cache.access(1, 0, False, owner=1)
    assert not hit


def test_forget_history_resets_cold_classifier():
    cache = make_cache(sets=1, ways=1)
    cache.access(1, 0, False, 1)
    cache.access(2, 0, False, 1)  # evicts 1
    cache.forget_history()
    cache.access(1, 0, False, 1)
    # Two initial cold misses plus the re-classified one after reset.
    assert cache.stats.owner(1).cold_misses == 3


def test_stats_total():
    cache = make_cache()
    cache.access(1, 0, False, 1)
    cache.access(1, 0, False, 2)
    assert cache.stats.total.accesses == 2


def test_miss_rate_property():
    cache = make_cache()
    cache.access(1, 0, False, 1)
    cache.access(1, 0, False, 1)
    assert cache.stats.owner(1).miss_rate == pytest.approx(0.5)


# -- way-managed (column caching) baseline -------------------------------


def test_way_cache_hit_on_any_way_alloc_restricted():
    cache = WayManagedCache(CacheGeometry(sets=1, ways=4, line_size=64))
    cache.access(1, 0, False, owner=1, alloc_ways=(0, 1))
    cache.access(2, 0, False, owner=2, alloc_ways=(2, 3))
    # Owner 2 can hit owner 1's line...
    hit, _c, _e = cache.access(1, 0, False, owner=2, alloc_ways=(2, 3))
    assert hit
    # ...but never evicts outside its columns.
    cache.access(3, 0, False, owner=2, alloc_ways=(2, 3))
    _hit, _cold, evicted = cache.access(4, 0, False, owner=2, alloc_ways=(2, 3))
    assert evicted is not None and evicted[1] == 2


def test_way_cache_lru_within_columns():
    cache = WayManagedCache(CacheGeometry(sets=1, ways=2, line_size=64))
    cache.access(1, 0, False, 1, alloc_ways=(0, 1))
    cache.access(2, 0, False, 1, alloc_ways=(0, 1))
    cache.access(1, 0, False, 1, alloc_ways=(0, 1))
    _h, _c, evicted = cache.access(3, 0, False, 1, alloc_ways=(0, 1))
    assert evicted[0] == 2


def test_way_cache_empty_alloc_rejected():
    cache = WayManagedCache(CacheGeometry(sets=1, ways=2, line_size=64))
    with pytest.raises(MemoryModelError):
        cache.access(1, 0, False, 1, alloc_ways=())


def test_way_cache_writeback_probe():
    cache = WayManagedCache(CacheGeometry(sets=1, ways=2, line_size=64))
    cache.access(1, 0, False, 1, alloc_ways=(0,))
    assert cache.probe_writeback(1, 0, 1)
    assert not cache.probe_writeback(9, 0, 1)
