"""Tests for regions, address spaces and memory maps."""

import pytest

from repro.errors import AddressError, MemoryModelError
from repro.mem.address import AddressSpace, MemoryMap, Region, RegionKind


def test_region_contains_and_offset():
    region = Region("r", base=0x1000, size=256, kind=RegionKind.DATA)
    assert region.contains(0x1000)
    assert region.contains(0x10FF)
    assert not region.contains(0x1100)
    assert region.offset(0x1010) == 0x10
    with pytest.raises(AddressError):
        region.offset(0x2000)


def test_region_validation():
    with pytest.raises(MemoryModelError):
        Region("bad", base=0, size=0, kind=RegionKind.DATA)
    with pytest.raises(MemoryModelError):
        Region("bad", base=-1, size=4, kind=RegionKind.DATA)


def test_bump_allocation_is_aligned_and_disjoint():
    space = AddressSpace(base=0, alignment=64)
    a = space.allocate("a", 100, RegionKind.CODE)
    b = space.allocate("b", 100, RegionKind.DATA)
    assert a.base % 64 == 0 and b.base % 64 == 0
    assert b.base >= a.end


def test_duplicate_region_name_rejected():
    space = AddressSpace()
    space.allocate("a", 64, RegionKind.CODE)
    with pytest.raises(MemoryModelError):
        space.allocate("a", 64, RegionKind.CODE)


def test_bad_alignment_rejected():
    with pytest.raises(MemoryModelError):
        AddressSpace(alignment=48)
    space = AddressSpace()
    with pytest.raises(MemoryModelError):
        space.allocate("x", 64, RegionKind.CODE, alignment=3)


def test_lookup_by_name():
    space = AddressSpace()
    region = space.allocate("heap", 128, RegionKind.HEAP, owner_name="t")
    assert space.region("heap") is region
    assert "heap" in space
    with pytest.raises(AddressError):
        space.region("nope")


def test_memory_map_find():
    space = AddressSpace(base=0)
    a = space.allocate("a", 64, RegionKind.CODE)
    b = space.allocate("b", 64, RegionKind.DATA)
    memory_map = MemoryMap(space)
    assert memory_map.find(a.base) is a
    assert memory_map.find(b.base + 10) is b
    with pytest.raises(AddressError):
        memory_map.find(b.end + 1024)


def test_memory_map_footprint():
    space = AddressSpace()
    space.allocate("f1", 64, RegionKind.FIFO)
    space.allocate("c", 64, RegionKind.CODE)
    space.allocate("f2", 64, RegionKind.FIFO)
    assert MemoryMap(space).footprint() == 192


def test_scatter_is_deterministic_and_disjoint():
    def build(seed):
        space = AddressSpace(base=0, placement="scatter", seed=seed,
                             arena=1 << 22)
        for i in range(20):
            space.allocate(f"r{i}", 3000, RegionKind.DATA)
        return [r.base for r in space.regions]

    bases1 = build(1)
    bases2 = build(1)
    bases3 = build(2)
    assert bases1 == bases2
    assert bases1 != bases3
    spans = sorted((b, b + 3000) for b in bases1)
    for (b1, e1), (b2, _e2) in zip(spans, spans[1:]):
        assert e1 <= b2


def test_scatter_bases_are_page_aligned():
    space = AddressSpace(base=0, placement="scatter", seed=9)
    region = space.allocate("x", 100, RegionKind.DATA)
    assert region.base % AddressSpace.PAGE == 0


def test_scatter_arena_exhaustion():
    space = AddressSpace(base=0, placement="scatter", seed=1, arena=8192)
    space.allocate("a", 8000, RegionKind.DATA)
    with pytest.raises(MemoryModelError):
        space.allocate("b", 8000, RegionKind.DATA)
