"""Tests for owner registry, resolver and partition maps."""

import pytest

from repro.errors import PartitionError
from repro.mem.intervals import IntervalTable
from repro.mem.partition import (
    OWNER_SHARED,
    OwnerRegistry,
    OwnerResolver,
    SetPartition,
    SetPartitionMap,
    WayPartitionMap,
)


def test_registry_roundtrip_and_idempotence():
    registry = OwnerRegistry()
    a = registry.register("task:a")
    assert registry.register("task:a") == a
    assert registry.id_of("task:a") == a
    assert registry.name_of(a) == "task:a"
    assert "task:a" in registry


def test_registry_unknown_lookups():
    registry = OwnerRegistry()
    with pytest.raises(PartitionError):
        registry.id_of("nope")
    with pytest.raises(PartitionError):
        registry.name_of(99)


def test_resolver_prefers_interval_table():
    table = IntervalTable()
    table.add(1000, 2000, owner=42)
    resolver = OwnerResolver(table)
    assert resolver.resolve(1500, task_owner=7) == 42
    assert resolver.resolve(2500, task_owner=7) == 7


def test_set_partition_translate_power_of_two():
    partition = SetPartition(owner=1, base=16, n_sets=8)
    for line in range(64):
        index = partition.translate(line)
        assert 16 <= index < 24
        assert index == 16 + (line & 7)


def test_set_partition_translate_non_power_of_two_balanced():
    partition = SetPartition(owner=1, base=0, n_sets=6)
    counts = [0] * 6
    for line in range(600):
        counts[partition.translate(line)] += 1
    assert max(counts) == min(counts) == 100


def test_set_partition_validation():
    with pytest.raises(PartitionError):
        SetPartition(owner=1, base=0, n_sets=0)
    with pytest.raises(PartitionError):
        SetPartition(owner=1, base=-4, n_sets=4)


def test_partition_map_assign_and_map_index():
    pmap = SetPartitionMap(total_sets=64)
    pmap.assign(owner=1, base=0, n_sets=16)
    pmap.assign(owner=2, base=16, n_sets=8)
    assert pmap.map_index(1, 100) == 100 & 15
    assert pmap.map_index(2, 100) == 16 + (100 & 7)
    # Unpartitioned: conventional indexing over all sets.
    assert pmap.map_index(3, 100) == 100 & 63
    assert sum(p.n_sets for p in pmap.partitions.values()) == 24


def test_partition_map_overlap_rejected():
    pmap = SetPartitionMap(total_sets=64)
    pmap.assign(owner=1, base=0, n_sets=16)
    with pytest.raises(PartitionError):
        pmap.assign(owner=2, base=8, n_sets=16)
    # Re-assigning the same owner is allowed (reprogramming).
    pmap.assign(owner=1, base=32, n_sets=8)
    pmap.validate_disjoint()


def test_partition_map_bounds_and_shared_owner():
    pmap = SetPartitionMap(total_sets=32)
    with pytest.raises(PartitionError):
        pmap.assign(owner=1, base=24, n_sets=16)
    with pytest.raises(PartitionError):
        pmap.assign(owner=OWNER_SHARED, base=0, n_sets=8)


def test_partition_map_remove_and_clear():
    pmap = SetPartitionMap(total_sets=32)
    pmap.assign(owner=1, base=0, n_sets=8)
    pmap.remove(owner=1)
    assert 1 not in pmap.partitions
    pmap.assign(owner=2, base=0, n_sets=8)
    pmap.clear()
    assert pmap.partitions == {}


def test_way_map_assign_and_defaults():
    wmap = WayPartitionMap(total_ways=4)
    assert wmap.ways_of(9) == (0, 1, 2, 3)
    wmap.assign(owner=1, ways=(0, 1))
    wmap.assign(owner=2, ways=(2,))
    assert wmap.ways_of(1) == (0, 1)
    with pytest.raises(PartitionError):
        wmap.assign(owner=3, ways=(1, 2))
    with pytest.raises(PartitionError):
        wmap.assign(owner=3, ways=(4,))
    with pytest.raises(PartitionError):
        wmap.assign(owner=3, ways=())


def test_effective_partition_resolves_aliases():
    pmap = SetPartitionMap(total_sets=32)
    partition = pmap.assign(owner=1, base=0, n_sets=8)
    pmap.alias(2, 1)
    assert pmap.effective_partition(1) == partition
    assert pmap.effective_partition(2) == partition
    assert pmap.effective_partition(9) is None
