"""OS-loaded table of shared-memory intervals.

The paper (§4.2) discusses three ways for the cache to learn which
communication buffer an access belongs to and picks the third: *"keep a
table with intervals of shared memory.  This table needs to be loaded by
the operating system.  Then for every access the cache can lookup if the
address has an associated buffer id."*

:class:`IntervalTable` is that table: a sorted set of non-overlapping
``[base, end)`` intervals, each tagged with an owner id, kept as plain
parallel lists.  The reference walk calls :meth:`IntervalTable.lookup`
(a binary search) once per run; the compiled engine binds
:meth:`IntervalTable.as_array` into its C state whenever
:attr:`IntervalTable.version` changes, and searches it there.

An owner id is an integer in ``[0, MAX_OWNERS)``: every call through
which one enters the memory system checks it before any state changes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import MemoryModelError

__all__ = ["IntervalTable", "MAX_OWNERS", "check_owner"]

#: One past the largest owner id.  The compiled engine counts per-owner
#: statistics in dense counters: its eviction matrices take
#: ``(n_cpus + 1) x MAX_OWNERS**2`` int64 counters at most (40 MiB for
#: four CPUs).  The owner registry hands out ids from 0.
MAX_OWNERS = 1024


def check_owner(owner: int, error=MemoryModelError) -> None:
    """Raise ``error`` unless ``owner`` lies in ``[0, MAX_OWNERS)``."""
    if not 0 <= owner < MAX_OWNERS:
        raise error(f"owner id {owner} outside [0, {MAX_OWNERS})")


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
        belongs to exactly one buffer.  So are bounds outside
        ``0 <= base < end < 2**63``: addresses are non-negative, and
        the compiled engine holds the bounds as int64; and so is an
        owner outside ``[0, MAX_OWNERS)``.
        """
        check_owner(owner)
        if end <= base:
            raise MemoryModelError(f"empty interval [{base:#x}, {end:#x})")
        if base < 0 or end >= 2**63:
            raise MemoryModelError(
                f"interval [{base:#x}, {end:#x}): bounds must satisfy "
                f"0 <= base < end < 2**63"
            )
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

    def clear(self) -> None:
        """Drop every interval (used when the OS reprograms the table)."""
        self._bases.clear()
        self._ends.clear()
        self._owners.clear()
        self._version += 1
