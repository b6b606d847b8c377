"""Tests for regions, address spaces and memory maps."""

import hashlib
import random

import pytest

from repro.apps import mpeg2_workload, two_jpeg_canny_workload
from repro.errors import AddressError, MemoryModelError
from repro.mem.address import AddressSpace, MemoryMap, Region, RegionKind
from repro.rtos import build_memory_layout

PAGE = AddressSpace.PAGE


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


def test_scatter_refuses_a_base_that_is_not_page_aligned():
    """Regression: scatter bases are whole pages above ``base``, so a
    base 16 bytes past a page put every region 16 bytes past a line,
    and two regions could share a cache line."""
    with pytest.raises(MemoryModelError):
        AddressSpace(base=0x1000_0010, placement="scatter")
    bump = AddressSpace(base=0x1000_0010)
    assert bump.allocate("a", 100, RegionKind.DATA).base % 64 == 0


def test_scatter_refuses_an_alignment_above_a_page():
    """Regression: a scatter space ignored an alignment above a page
    (``alignment=16384`` gave a base 8192 past a multiple of it).  It
    refuses one now, from ``allocate`` or from the space's default;
    up to a page, every base meets it."""
    space = AddressSpace(placement="scatter", seed=3)
    with pytest.raises(MemoryModelError):
        space.allocate("big", 100, RegionKind.DATA, alignment=4 * PAGE)
    assert len(space) == 0
    region = space.allocate("paged", 100, RegionKind.DATA, alignment=PAGE)
    assert region.base % PAGE == 0
    with pytest.raises(MemoryModelError):
        AddressSpace(alignment=4 * PAGE, placement="scatter").allocate(
            "x", 100, RegionKind.DATA
        )
    bump = AddressSpace()
    assert bump.allocate("big", 100, RegionKind.DATA,
                         alignment=4 * PAGE).base % (4 * PAGE) == 0


def _hashed_page(seed, name, n_pages):
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % n_pages


def _scan_layout(allocations, base, arena, seed):
    """Scatter bases of ``(name, size)`` allocations, each found by
    scanning every placed region for every candidate page; the layout
    stops at the first allocation that finds no room."""
    n_pages = max(1, arena // PAGE)
    placed = []
    for name, size in allocations:
        page = _hashed_page(seed, name, n_pages)
        size_pages = -(-size // PAGE)
        for _attempt in range(n_pages):
            candidate = base + (page % n_pages) * PAGE
            cand_end = candidate + size_pages * PAGE
            if cand_end <= base + arena and not any(
                candidate < end and start < cand_end for start, end in placed
            ):
                placed.append((candidate, candidate + size))
                break
            page += 1
        else:
            break
    return [start for start, _end in placed]


@pytest.mark.parametrize("workload", [two_jpeg_canny_workload,
                                      mpeg2_workload])
def test_paper_app_layouts_equal_an_overlap_scan(workload):
    network = workload()
    for seed in range(50):
        space = build_memory_layout(network, seed=seed).memory_map.space
        allocations = [(r.name, r.size) for r in space.regions]
        assert [r.base for r in space.regions] == _scan_layout(
            allocations, space.base, space.arena, seed
        ), seed


def test_a_crowded_arena_places_as_an_overlap_scan():
    """Sixteen pages and regions of up to three: candidates probe past
    taken pages and wrap around the arena's end until a region finds
    no room, which raises."""
    arena, base = 16 * PAGE, 1 << 20
    probed = wrapped = 0
    for seed in range(20):
        sizes = random.Random(seed).choices(
            [100, PAGE, 5000, 2 * PAGE, 3 * PAGE], k=40
        )
        allocations = [(f"r{i}", size) for i, size in enumerate(sizes)]
        expected = _scan_layout(allocations, base, arena, seed)
        assert len(expected) < len(allocations)
        space = AddressSpace(base=base, placement="scatter", seed=seed,
                             arena=arena)
        for name, size in allocations[:len(expected)]:
            space.allocate(name, size, RegionKind.DATA)
        with pytest.raises(MemoryModelError):
            space.allocate(*allocations[len(expected)], RegionKind.DATA)
        assert [r.base for r in space.regions] == expected, seed
        for region in space.regions:
            page = (region.base - base) // PAGE
            hashed = _hashed_page(seed, region.name, 16)
            probed += page != hashed
            wrapped += page < hashed
    assert probed and wrapped
