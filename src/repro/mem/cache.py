"""Set-associative cache models with per-owner accounting.

Two cache classes share one statistics implementation:

- :class:`SetAssociativeCache` -- the main model.  Hit probes are O(1):
  a dict maps each resident line address to the set index it lives in,
  so membership is one hash lookup instead of a scan over the ways.
  Each set additionally keeps a plain Python list of line addresses in
  recency order (index 0 = MRU) -- the array-based LRU/FIFO order used
  for victim selection (the tail is the victim for both policies).
  The *set index is supplied by the caller*, because under the paper's
  partitioning scheme the index is computed by translating the
  conventional index field through a per-owner table
  (:mod:`repro.mem.partition`).  Consequently lines are identified by
  their full line address ("full-line tags"): with index translation,
  two addresses with different natural indices can land in the same set,
  so the usual truncated tag would alias.  The model assumes the
  line-to-set mapping is stable between accesses; reprogramming the
  partition map requires invalidating affected lines first (see
  :meth:`SetAssociativeCache.invalidate_owner` and
  :meth:`~repro.mem.hierarchy.MemorySystem.repartition`).

- :class:`WayManagedCache` -- the column-caching baseline ([10], [8] in
  the paper).  Sets are arrays of explicit ways; an owner may *hit* on
  any way but may only *allocate* into the ways it owns.

Both record, per owner id: accesses, hits, misses, cold misses,
evictions suffered and writebacks, plus an eviction-attribution matrix
``(evictor, victim) -> count``.  The matrix is the measurable definition
of inter-task interference: exclusive partitions must drive every
cross-owner entry to zero (this is unit-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MemoryModelError

__all__ = [
    "CacheGeometry",
    "CacheStats",
    "OwnerStats",
    "SetAssociativeCache",
    "WayManagedCache",
]


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of a cache: number of sets, ways and the line size."""

    sets: int
    ways: int
    line_size: int

    def __post_init__(self) -> None:
        for name, value in (("sets", self.sets), ("ways", self.ways),
                            ("line_size", self.line_size)):
            if value <= 0:
                raise MemoryModelError(f"{name} must be positive, got {value}")
        if self.sets & (self.sets - 1):
            raise MemoryModelError(f"sets must be a power of two, got {self.sets}")
        if self.line_size & (self.line_size - 1):
            raise MemoryModelError(
                f"line_size must be a power of two, got {self.line_size}"
            )

    @classmethod
    def from_size(cls, size_bytes: int, ways: int, line_size: int) -> "CacheGeometry":
        """Build a geometry from a total capacity in bytes."""
        sets = size_bytes // (ways * line_size)
        if sets * ways * line_size != size_bytes:
            raise MemoryModelError(
                f"{size_bytes} bytes is not divisible into {ways} ways of "
                f"{line_size}-byte lines"
            )
        return cls(sets=sets, ways=ways, line_size=line_size)

    @property
    def size_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.sets * self.ways * self.line_size

    @property
    def line_shift(self) -> int:
        """log2 of the line size."""
        return self.line_size.bit_length() - 1

    @property
    def index_mask(self) -> int:
        """Mask extracting the natural set index from a line address."""
        return self.sets - 1

    def natural_index(self, line_addr: int) -> int:
        """Conventional set index of a line address (no translation)."""
        return line_addr & (self.sets - 1)

    def __str__(self) -> str:
        kib = self.size_bytes / 1024
        return f"{kib:g}KiB/{self.ways}way/{self.line_size}B({self.sets} sets)"


@dataclass
class OwnerStats:
    """Access statistics attributed to one owner id."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    cold_misses: int = 0
    evictions_suffered: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0.0 for an idle owner)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "OwnerStats") -> None:
        """Accumulate another stats record into this one."""
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.cold_misses += other.cold_misses
        self.evictions_suffered += other.evictions_suffered
        self.writebacks += other.writebacks


@dataclass
class CacheStats:
    """Aggregate and per-owner statistics of one cache instance."""

    per_owner: Dict[int, OwnerStats] = field(default_factory=dict)
    eviction_matrix: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def owner(self, owner_id: int) -> OwnerStats:
        """Stats record for ``owner_id`` (created on first use)."""
        stats = self.per_owner.get(owner_id)
        if stats is None:
            stats = OwnerStats()
            self.per_owner[owner_id] = stats
        return stats

    @property
    def total(self) -> OwnerStats:
        """Sum over all owners."""
        result = OwnerStats()
        for stats in self.per_owner.values():
            result.merge(stats)
        return result

    def cross_owner_evictions(self) -> int:
        """Evictions where evictor and victim differ (interference)."""
        return sum(
            count
            for (evictor, victim), count in self.eviction_matrix.items()
            if evictor != victim
        )


class SetAssociativeCache:
    """Set-associative cache with externally supplied set indices.

    Parameters
    ----------
    geometry:
        Sets/ways/line-size shape.
    policy:
        ``"lru"`` (default) or ``"fifo"`` replacement.
    name:
        For diagnostics.
    """

    REPLACEMENT_POLICIES = ("lru", "fifo")

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str = "lru",
        name: str = "cache",
    ):
        if policy not in self.REPLACEMENT_POLICIES:
            raise MemoryModelError(
                f"unknown replacement policy {policy!r}; "
                f"pick one of {self.REPLACEMENT_POLICIES}"
            )
        self.geometry = geometry
        self.policy = policy
        self.name = name
        self.stats = CacheStats()
        # One recency-ordered list of line addresses per set (0 = MRU).
        self._sets: List[List[int]] = [[] for _ in range(geometry.sets)]
        # line address -> set index it is resident in: the O(1) hit probe.
        self._where: Dict[int, int] = {}
        # line address -> owner id, for eviction attribution.
        self._owner_of: Dict[int, int] = {}
        # Dirty lines (write-back policy).
        self._dirty: set = set()
        # Lines ever seen, to classify cold misses.
        self._seen: set = set()

    # -- queries ------------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return len(self._owner_of)

    def contains(self, line_addr: int) -> bool:
        """True if the line is currently resident."""
        return line_addr in self._owner_of

    def set_contents(self, set_index: int) -> tuple:
        """Snapshot of the lines of one set in recency order."""
        return tuple(self._sets[set_index])

    # -- the hot path --------------------------------------------------------

    def access(
        self,
        line_addr: int,
        set_index: int,
        write: bool,
        owner: int,
        n: int = 1,
    ) -> Tuple[bool, bool, Optional[Tuple[int, int, bool]]]:
        """Perform ``n`` back-to-back accesses to one line.

        The first access decides hit or miss; the remaining ``n - 1``
        are guaranteed hits (the caller got them from run-length
        coalescing).  Returns ``(hit, cold, evicted)`` where ``evicted``
        is ``(victim_line, victim_owner, victim_dirty)`` when the fill
        displaced a line.
        """
        lines = self._sets[set_index]
        stats = self.stats.per_owner.get(owner)
        if stats is None:
            stats = OwnerStats()
            self.stats.per_owner[owner] = stats
        stats.accesses += n

        if self._where.get(line_addr) == set_index:
            # Hit -- one dict probe, no scan over the ways.
            stats.hits += n
            if self.policy == "lru" and lines[0] != line_addr:
                lines.remove(line_addr)
                lines.insert(0, line_addr)
            if write:
                self._dirty.add(line_addr)
            return True, False, None

        # Miss.
        cold = line_addr not in self._seen
        self._seen.add(line_addr)
        stats.misses += 1
        stats.hits += n - 1
        if cold:
            stats.cold_misses += 1

        evicted: Optional[Tuple[int, int, bool]] = None
        if len(lines) >= self.geometry.ways:
            victim = self._select_victim(lines)
            del self._where[victim]
            victim_owner = self._owner_of.pop(victim)
            victim_dirty = victim in self._dirty
            if victim_dirty:
                self._dirty.discard(victim)
                self.stats.owner(victim_owner).writebacks += 1
            self.stats.owner(victim_owner).evictions_suffered += 1
            key = (owner, victim_owner)
            self.stats.eviction_matrix[key] = (
                self.stats.eviction_matrix.get(key, 0) + 1
            )
            evicted = (victim, victim_owner, victim_dirty)

        lines.insert(0, line_addr)
        self._where[line_addr] = set_index
        self._owner_of[line_addr] = owner
        if write:
            self._dirty.add(line_addr)
        return False, cold, evicted

    def _select_victim(self, lines: List[int]) -> int:
        """Remove and return the line to evict from a full set."""
        # For both LRU and FIFO the victim is the tail of the list: LRU
        # reorders on hit, FIFO does not, so the tail is respectively the
        # least recently used and the oldest inserted line.
        return lines.pop()

    def probe_writeback(self, line_addr: int, set_index: int, owner: int) -> bool:
        """Non-allocating write-back probe.

        A dirty victim arriving from an upper level updates the line in
        place when present (returns True) and is otherwise forwarded to
        the next level *without allocating* -- the standard
        victim-write path.  Does not touch recency order and is not
        counted as a demand access.
        """
        if self._where.get(line_addr) == set_index:
            self._dirty.add(line_addr)
            return True
        return False

    # -- maintenance ----------------------------------------------------------

    def invalidate_all(self) -> List[Tuple[int, int]]:
        """Drop every line; returns the dirty victims for the caller to flush.

        The result is a list of ``(line_addr, owner)`` pairs in address
        order (deterministic, so a caller flushing them to DRAM sees a
        reproducible bank sequence).  Each dirty victim is counted as a
        writeback of its owner -- invalidation must not silently lose
        DRAM traffic.
        """
        flushed = sorted(
            (line, self._owner_of[line]) for line in self._dirty
        )
        for _line, owner in flushed:
            self.stats.owner(owner).writebacks += 1
        for lines in self._sets:
            lines.clear()
        self._where.clear()
        self._owner_of.clear()
        self._dirty.clear()
        return flushed

    def invalidate_owner(self, owner: int) -> List[int]:
        """Drop all lines of one owner (partition reprogramming).

        Returns the owner's dirty line addresses in address order; the
        caller is responsible for writing them back.  Dirty victims are
        counted in the owner's ``writebacks``.
        """
        victims = [line for line, who in self._owner_of.items() if who == owner]
        flushed = sorted(line for line in victims if line in self._dirty)
        for line in victims:
            self._owner_of.pop(line)
            self._where.pop(line)
            self._dirty.discard(line)
        if flushed:
            self.stats.owner(owner).writebacks += len(flushed)
        if victims:
            victim_set = set(victims)
            for lines in self._sets:
                lines[:] = [line for line in lines if line not in victim_set]
        return flushed

    def forget_history(self) -> None:
        """Reset the cold-miss classifier (new measurement epoch)."""
        self._seen.clear()

    # -- bulk state exchange with the C walker -------------------------------

    def export_state(self):
        """Flatten the contents to parallel arrays for the C walker.

        Returns ``(lines, owners, dirty, lens)``: per set, ``ways``
        slots in recency order (slot 0 = MRU, unused slots hold -1 /
        zero), plus the per-set occupancy.  See
        :mod:`repro.mem.cwalker`.
        """
        geometry = self.geometry
        ways = geometry.ways
        n_slots = geometry.sets * ways
        lines = np.full(n_slots, -1, dtype=np.int64)
        owners = np.zeros(n_slots, dtype=np.int64)
        dirty = np.zeros(n_slots, dtype=np.uint8)
        lens = np.zeros(geometry.sets, dtype=np.int32)
        owner_of = self._owner_of
        dirty_set = self._dirty
        for set_index, slist in enumerate(self._sets):
            if not slist:
                continue
            lens[set_index] = len(slist)
            base = set_index * ways
            for k, line in enumerate(slist):
                lines[base + k] = line
                owners[base + k] = owner_of[line]
                if line in dirty_set:
                    dirty[base + k] = 1
        return lines, owners, dirty, lens

    def import_state(self, lines, owners, dirty, lens) -> None:
        """Rebuild the dict/list state from :meth:`export_state` arrays."""
        ways = self.geometry.ways
        lines_l = lines.tolist()
        owners_l = owners.tolist()
        dirty_l = dirty.tolist()
        lens_l = lens.tolist()
        sets = self._sets
        where: Dict[int, int] = {}
        owner_of: Dict[int, int] = {}
        dirty_set: set = set()
        for set_index in range(self.geometry.sets):
            count = lens_l[set_index]
            base = set_index * ways
            slist = lines_l[base:base + count]
            sets[set_index] = slist
            for k in range(count):
                line = slist[k]
                where[line] = set_index
                owner_of[line] = owners_l[base + k]
                if dirty_l[base + k]:
                    dirty_set.add(line)
        self._where = where
        self._owner_of = owner_of
        self._dirty = dirty_set

    def __repr__(self) -> str:
        return (
            f"<SetAssociativeCache {self.name!r} {self.geometry} "
            f"policy={self.policy}>"
        )


class WayManagedCache:
    """Column-caching baseline: partitioning by ways, not by sets.

    Each set holds ``ways`` explicit slots.  An access may hit on any
    way; on a miss the fill may only evict a way the owner is allowed to
    allocate into (its *columns*).  This reproduces the granularity
    restriction the paper criticises: with a 4-way cache at most four
    owners can have exclusive space.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "way-cache"):
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        sets, ways = geometry.sets, geometry.ways
        self._line: List[List[Optional[int]]] = [
            [None] * ways for _ in range(sets)
        ]
        self._owner: List[List[int]] = [[0] * ways for _ in range(sets)]
        self._stamp: List[List[int]] = [[0] * ways for _ in range(sets)]
        self._dirty: set = set()
        self._seen: set = set()
        self._clock = 0

    def access(
        self,
        line_addr: int,
        set_index: int,
        write: bool,
        owner: int,
        alloc_ways: Tuple[int, ...],
        n: int = 1,
    ) -> Tuple[bool, bool, Optional[Tuple[int, int, bool]]]:
        """Access with an allocation-way restriction; see class docs."""
        if not alloc_ways:
            raise MemoryModelError(f"owner {owner} has no allocation ways")
        self._clock += 1
        slot_lines = self._line[set_index]
        stats = self.stats.owner(owner)
        stats.accesses += n

        for way, resident in enumerate(slot_lines):
            if resident == line_addr:
                stats.hits += n
                self._stamp[set_index][way] = self._clock
                if write:
                    self._dirty.add(line_addr)
                return True, False, None

        cold = line_addr not in self._seen
        self._seen.add(line_addr)
        stats.misses += 1
        stats.hits += n - 1
        if cold:
            stats.cold_misses += 1

        # Prefer an empty allowed way; otherwise evict LRU allowed way.
        victim_way = None
        for way in alloc_ways:
            if slot_lines[way] is None:
                victim_way = way
                break
        if victim_way is None:
            victim_way = min(alloc_ways, key=lambda w: self._stamp[set_index][w])

        evicted: Optional[Tuple[int, int, bool]] = None
        old_line = slot_lines[victim_way]
        if old_line is not None:
            old_owner = self._owner[set_index][victim_way]
            old_dirty = old_line in self._dirty
            self._dirty.discard(old_line)
            if old_dirty:
                self.stats.owner(old_owner).writebacks += 1
            self.stats.owner(old_owner).evictions_suffered += 1
            key = (owner, old_owner)
            self.stats.eviction_matrix[key] = (
                self.stats.eviction_matrix.get(key, 0) + 1
            )
            evicted = (old_line, old_owner, old_dirty)

        slot_lines[victim_way] = line_addr
        self._owner[set_index][victim_way] = owner
        self._stamp[set_index][victim_way] = self._clock
        if write:
            self._dirty.add(line_addr)
        return False, cold, evicted

    def probe_writeback(self, line_addr: int, set_index: int, owner: int) -> bool:
        """Non-allocating write-back probe (see SetAssociativeCache)."""
        for resident in self._line[set_index]:
            if resident == line_addr:
                self._dirty.add(line_addr)
                return True
        return False

    def invalidate_all(self) -> List[Tuple[int, int]]:
        """Drop every line; returns dirty ``(line, owner)`` victims to flush.

        Mirrors :meth:`SetAssociativeCache.invalidate_all`: dirty victims
        are counted as writebacks of their owner and handed to the caller
        in address order.
        """
        flushed: List[Tuple[int, int]] = []
        for set_index, slot_lines in enumerate(self._line):
            for way, line in enumerate(slot_lines):
                if line is not None and line in self._dirty:
                    flushed.append((line, self._owner[set_index][way]))
            slot_lines[:] = [None] * self.geometry.ways
            self._stamp[set_index] = [0] * self.geometry.ways
        flushed.sort()
        for _line, owner in flushed:
            self.stats.owner(owner).writebacks += 1
        self._dirty.clear()
        return flushed

    def invalidate_owner(self, owner: int) -> List[int]:
        """Drop all lines of one owner (partition reprogramming).

        Mirrors :meth:`SetAssociativeCache.invalidate_owner`: returns
        the owner's dirty line addresses in address order, counted in
        the owner's ``writebacks``; the caller writes them back.
        Emptied slots reset their stamp to 0, preserving the
        empty-slot-stamp invariant of :meth:`export_state`.
        """
        flushed: List[int] = []
        for set_index, slot_lines in enumerate(self._line):
            owner_row = self._owner[set_index]
            stamp_row = self._stamp[set_index]
            for way, line in enumerate(slot_lines):
                if line is None or owner_row[way] != owner:
                    continue
                if line in self._dirty:
                    self._dirty.discard(line)
                    flushed.append(line)
                slot_lines[way] = None
                owner_row[way] = 0
                stamp_row[way] = 0
        flushed.sort()
        if flushed:
            self.stats.owner(owner).writebacks += len(flushed)
        return flushed

    def forget_history(self) -> None:
        """Reset the cold-miss classifier."""
        self._seen.clear()

    # -- bulk state exchange with the compiled walker ------------------------

    def export_state(self):
        """Flatten the contents to parallel arrays for the C walker.

        Returns ``(lines, owners, dirty, stamps, clock)``: per set,
        ``ways`` explicit slots (empty slots hold line -1), the
        recency stamps, and the global stamp clock.  Empty slots carry
        stamp 0 -- which is exactly their reference value, since slots
        only start empty or become empty through :meth:`invalidate_all`
        / :meth:`invalidate_owner` (all reset stamps to 0) and victim
        selection never reads the stamp of an empty slot.
        """
        geometry = self.geometry
        ways = geometry.ways
        n_slots = geometry.sets * ways
        lines = np.full(n_slots, -1, dtype=np.int64)
        owners = np.zeros(n_slots, dtype=np.int64)
        dirty = np.zeros(n_slots, dtype=np.uint8)
        stamps = np.zeros(n_slots, dtype=np.int64)
        dirty_set = self._dirty
        for set_index, slot_lines in enumerate(self._line):
            base = set_index * ways
            owner_row = self._owner[set_index]
            stamp_row = self._stamp[set_index]
            for way, line in enumerate(slot_lines):
                if line is None:
                    continue
                lines[base + way] = line
                owners[base + way] = owner_row[way]
                stamps[base + way] = stamp_row[way]
                if line in dirty_set:
                    dirty[base + way] = 1
        return lines, owners, dirty, stamps, self._clock

    def import_state(self, lines, owners, dirty, stamps, clock) -> None:
        """Rebuild the slot state from :meth:`export_state` arrays."""
        ways = self.geometry.ways
        lines_l = lines.tolist()
        owners_l = owners.tolist()
        dirty_l = dirty.tolist()
        stamps_l = stamps.tolist()
        dirty_set: set = set()
        for set_index in range(self.geometry.sets):
            base = set_index * ways
            self._line[set_index] = [
                None if lines_l[base + way] == -1 else lines_l[base + way]
                for way in range(ways)
            ]
            self._owner[set_index] = owners_l[base:base + ways]
            self._stamp[set_index] = stamps_l[base:base + ways]
            for way in range(ways):
                if dirty_l[base + way]:
                    dirty_set.add(lines_l[base + way])
        self._dirty = dirty_set
        self._clock = int(clock)

    def __repr__(self) -> str:
        return f"<WayManagedCache {self.name!r} {self.geometry}>"
