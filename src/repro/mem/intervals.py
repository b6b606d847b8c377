"""OS-loaded table of shared-memory intervals.

The paper (§4.2) discusses three ways for the cache to learn which
communication buffer an access belongs to and picks the third: *"keep a
table with intervals of shared memory.  This table needs to be loaded by
the operating system.  Then for every access the cache can lookup if the
address has an associated buffer id."*

:class:`IntervalTable` is that table: a sorted set of non-overlapping
``[base, end)`` intervals, each tagged with an owner id, kept as plain
parallel lists.  The reference walk calls :meth:`IntervalTable.lookup`
(a binary search) once per run; the compiled engine passes
:meth:`IntervalTable.as_array` to its C call, memoized on
:attr:`IntervalTable.version`, and searches it there.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import MemoryModelError

__all__ = ["IntervalTable"]


class IntervalTable:
    """Sorted, non-overlapping address intervals mapping to owner ids."""

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._owners: List[int] = []
        #: Bumped on every mutation; lets callers (the compiled
        #: walker's copy of the table) memoize derived arrays cheaply.
        self._version = 0

    def __len__(self) -> int:
        return len(self._bases)

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(base, end, owner)`` triples in address order."""
        return iter(zip(self._bases, self._ends, self._owners))

    @property
    def version(self) -> int:
        """Mutation counter (memoization key for derived arrays)."""
        return self._version

    def as_array(self) -> np.ndarray:
        """The table as one ``(3, n)`` ``int64`` array.

        Rows are the sorted bases, the ends and the owners.
        """
        return np.array(
            [self._bases, self._ends, self._owners], dtype=np.int64
        )

    def add(self, base: int, end: int, owner: int) -> None:
        """Register ``[base, end)`` as belonging to ``owner``.

        Overlapping intervals are rejected: a byte of shared memory
        belongs to exactly one buffer.
        """
        if end <= base:
            raise MemoryModelError(f"empty interval [{base:#x}, {end:#x})")
        idx = bisect_right(self._bases, base)
        if idx > 0 and self._ends[idx - 1] > base:
            raise MemoryModelError(
                f"interval [{base:#x}, {end:#x}) overlaps "
                f"[{self._bases[idx - 1]:#x}, {self._ends[idx - 1]:#x})"
            )
        if idx < len(self._bases) and self._bases[idx] < end:
            raise MemoryModelError(
                f"interval [{base:#x}, {end:#x}) overlaps "
                f"[{self._bases[idx]:#x}, {self._ends[idx]:#x})"
            )
        self._bases.insert(idx, base)
        self._ends.insert(idx, end)
        self._owners.insert(idx, owner)
        self._version += 1

    def remove(self, base: int) -> None:
        """Drop the interval starting at ``base``."""
        idx = bisect_right(self._bases, base) - 1
        if idx < 0 or self._bases[idx] != base:
            raise MemoryModelError(f"no interval starts at {base:#x}")
        del self._bases[idx], self._ends[idx], self._owners[idx]
        self._version += 1

    def lookup(self, addr: int) -> Optional[int]:
        """Owner id of ``addr`` or ``None`` when not in any interval."""
        idx = bisect_right(self._bases, addr) - 1
        if idx >= 0 and addr < self._ends[idx]:
            return self._owners[idx]
        return None

    def lookup_many(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lookup` over an address array.

        Returns an ``int64`` array of owner ids with ``-1`` where an
        address falls in no interval (owner ids are non-negative by
        construction, see :class:`repro.mem.partition.OwnerRegistry`).
        One ``searchsorted`` replaces a per-access binary search.  The
        compiled hierarchy engine no longer calls this -- its C walk
        searches :meth:`as_array` itself -- so this is the vectorised
        oracle behind :meth:`~repro.mem.partition.OwnerResolver.resolve_many`.
        """
        addrs = np.asarray(addrs)
        if not self._bases:
            return np.full(addrs.shape, -1, dtype=np.int64)
        bases, ends, owners = self.as_array()
        idx = np.searchsorted(bases, addrs, side="right") - 1
        clipped = np.maximum(idx, 0)
        inside = (idx >= 0) & (addrs < ends[clipped])
        return np.where(inside, owners[clipped], np.int64(-1))

    def clear(self) -> None:
        """Drop every interval (used when the OS reprograms the table)."""
        self._bases.clear()
        self._ends.clear()
        self._owners.clear()
        self._version += 1
