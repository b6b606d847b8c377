"""Linear address space, regions and memory maps.

The CAKE platform has a single linear address space (paper §4.2).  Every
memory-active entity -- a task's code/data/bss/stack/heap, each FIFO
buffer, each frame buffer, the application-wide and run-time-system
data/bss -- occupies a :class:`Region` carved out of one
:class:`AddressSpace` by a deterministic bump allocator.

Determinism of the layout matters: the paper (§4.1) points out that with
a shared heap the addresses of task data depend on allocation order,
which breaks compositionality of a *shared* cache.  Our
:class:`AddressSpace` therefore records the allocation order, and the
malloc-order ablation permutes it explicitly.
"""

from __future__ import annotations

import enum
import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.errors import AddressError, MemoryModelError

__all__ = ["AddressSpace", "MemoryMap", "Region", "RegionKind"]


class RegionKind(enum.Enum):
    """Classification of a memory region by its role."""

    CODE = "code"
    DATA = "data"  # statically initialised variables
    BSS = "bss"  # statically uninitialised variables
    STACK = "stack"
    HEAP = "heap"
    FIFO = "fifo"
    FRAME = "frame"  # frame buffer


@dataclass(frozen=True)
class Region:
    """A contiguous, immutable address range ``[base, base + size)``."""

    name: str
    base: int
    size: int
    kind: RegionKind
    owner_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise MemoryModelError(f"region {self.name!r} has size {self.size}")
        if self.base < 0:
            raise MemoryModelError(f"region {self.name!r} has base {self.base}")

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside the region."""
        return self.base <= addr < self.end

    def offset(self, addr: int) -> int:
        """Byte offset of ``addr`` from the region base."""
        if not self.contains(addr):
            raise AddressError(f"{addr:#x} outside region {self.name!r}")
        return addr - self.base

    def __repr__(self) -> str:
        return (
            f"Region({self.name!r}, base={self.base:#x}, size={self.size}, "
            f"kind={self.kind.value})"
        )


class AddressSpace:
    """A linear address space with a deterministic bump allocator.

    Regions are allocated upward from ``base``; each allocation is
    aligned (default: 64-byte cache lines, so distinct regions never
    share a line, mirroring the paper's assumption that buffers can be
    cached independently).

    Two placement modes:

    - ``placement="bump"`` -- dense sequential packing.  Unrealistically
      uniform over cache indices: consecutive regions never collide in
      the same sets, which hides exactly the inter-task conflicts the
      paper is about.
    - ``placement="scatter"`` (the platform default) -- each region gets
      an independent, name-derived page-aligned base inside ``arena``
      bytes, with deterministic linear probing to avoid overlap.  This
      models what real allocators/linkers produce: regions landing at
      arbitrary page offsets whose cache-index footprints overlap
      unevenly, so some sets are oversubscribed -- the "tasks may flush
      each other's data out of the cache in an unpredictable manner"
      phenomenon, and the address-placement sensitivity §4.1 discusses.
      Placement depends only on ``(seed, region name)``, keeping
      layouts bit-reproducible.
    """

    PAGE = 4096
    PLACEMENTS = ("bump", "scatter")

    def __init__(
        self,
        base: int = 0x1000_0000,
        alignment: int = 64,
        placement: str = "bump",
        arena: int = 64 * 1024 * 1024,
        seed: int = 0,
    ):
        if alignment <= 0 or alignment & (alignment - 1):
            raise MemoryModelError(f"alignment must be a power of two: {alignment}")
        if placement not in self.PLACEMENTS:
            raise MemoryModelError(
                f"placement must be one of {self.PLACEMENTS}, got {placement!r}"
            )
        if arena <= 0:
            raise MemoryModelError("arena must be positive")
        self.base = base
        self.alignment = alignment
        self.placement = placement
        self.arena = arena
        self.seed = seed
        self._cursor = base
        self._regions: List[Region] = []
        self._by_name: Dict[str, Region] = {}

    @property
    def regions(self) -> tuple:
        """Regions in allocation order."""
        return tuple(self._regions)

    def allocate(
        self,
        name: str,
        size: int,
        kind: RegionKind,
        owner_name: Optional[str] = None,
        alignment: Optional[int] = None,
    ) -> Region:
        """Carve a new region off the top of the space."""
        if name in self._by_name:
            raise MemoryModelError(f"duplicate region name {name!r}")
        align = alignment or self.alignment
        if align <= 0 or align & (align - 1):
            raise MemoryModelError(f"alignment must be a power of two: {align}")
        if self.placement == "scatter":
            base = self._scatter_base(name, size)
        else:
            base = (self._cursor + align - 1) & ~(align - 1)
            self._cursor = base + size
        region = Region(name=name, base=base, size=size, kind=kind,
                        owner_name=owner_name)
        self._regions.append(region)
        self._by_name[name] = region
        return region

    def _scatter_base(self, name: str, size: int) -> int:
        """Deterministic page-aligned placement with linear probing."""
        n_pages = max(1, self.arena // self.PAGE)
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        page = int.from_bytes(digest[:8], "little") % n_pages
        size_pages = -(-size // self.PAGE)
        occupied = sorted((r.base, r.end) for r in self._regions)
        for _attempt in range(n_pages):
            candidate = self.base + (page % n_pages) * self.PAGE
            cand_end = candidate + size_pages * self.PAGE
            if cand_end <= self.base + self.arena and not any(
                candidate < end and start < cand_end for start, end in occupied
            ):
                return candidate
            page += 1
        raise MemoryModelError(
            f"arena of {self.arena} bytes cannot fit region {name!r}"
        )

    def region(self, name: str) -> Region:
        """Look a region up by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise AddressError(f"unknown region {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)


@dataclass
class MemoryMap:
    """A finished memory layout with fast address-to-region lookup."""

    space: AddressSpace
    _bases: List[int] = field(default_factory=list, repr=False)
    _sorted: List[Region] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._sorted = sorted(self.space.regions, key=lambda r: r.base)
        self._bases = [r.base for r in self._sorted]

    def find(self, addr: int) -> Region:
        """Region containing ``addr`` (raises :class:`AddressError`)."""
        idx = bisect_right(self._bases, addr) - 1
        if idx >= 0:
            region = self._sorted[idx]
            if region.contains(addr):
                return region
        raise AddressError(f"address {addr:#x} maps to no region")

    def footprint(self) -> int:
        """Total bytes covered by all regions (without padding)."""
        return sum(r.size for r in self._sorted)
