"""Set-associative cache models with per-owner accounting.

Two cache classes share one statistics implementation:

- :class:`SetAssociativeCache` -- the main model.  Hit probes are O(1):
  a dict maps each resident line address to the set index it lives in,
  so membership is one hash lookup instead of a scan over the ways.
  Each set that holds a line additionally keeps a plain Python list of
  line addresses in recency order (index 0 = MRU) -- the array-based
  LRU/FIFO order used for victim selection (the tail is the victim for
  both policies).
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

A cache costs what it holds.  Both models keep per-set state (the
recency list, or the way model's slot rows) only for the sets that hold
a line: a set gets it at its first fill and loses it when an
invalidation empties it.  So building a cache allocates nothing per
set, whatever its set count -- the profiling sweep's virtual L2s reach
16,384 sets, and the compiled engine, which holds the contents in C,
fills the Python models only when it syncs them back.
:meth:`~SetAssociativeCache.export_state`,
:meth:`~SetAssociativeCache.import_state` and the invalidations walk
the sets that hold lines, not every set (the exported arrays are the
one full-size part, which numpy fills in one pass).  A set index
outside ``[0, sets)`` raises :class:`~repro.errors.MemoryModelError`
in ``access``, ``probe_writeback`` and ``set_contents`` of both models.

Both record, per owner id: accesses, hits, misses, evictions suffered
and writebacks, plus an eviction-attribution matrix ``(evictor,
victim) -> count``.  The matrix is the measurable definition of
inter-task interference: exclusive partitions must drive every
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


def _set_index_error(cache, set_index: int) -> MemoryModelError:
    return MemoryModelError(
        f"{cache.name}: set index {set_index} outside "
        f"[0, {cache.geometry.sets})"
    )


class SetAssociativeCache:
    """Set-associative cache with externally supplied set indices.

    A set gets its recency list at its first fill and loses it when an
    invalidation empties it, so a cache holds no per-set object for a
    set without a line.  A set index outside ``[0, sets)`` raises
    :class:`~repro.errors.MemoryModelError`.

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
        # Set index -> its recency-ordered line addresses (0 = MRU), for
        # the sets that hold a line.
        self._sets: Dict[int, List[int]] = {}
        # line address -> set index it is resident in: the O(1) hit probe.
        self._where: Dict[int, int] = {}
        # line address -> owner id, for eviction attribution.
        self._owner_of: Dict[int, int] = {}
        # Dirty lines (write-back policy).
        self._dirty: set = set()

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
        if not 0 <= set_index < self.geometry.sets:
            raise _set_index_error(self, set_index)
        return tuple(self._sets.get(set_index, ()))

    # -- the hot path --------------------------------------------------------

    def access(
        self,
        line_addr: int,
        set_index: int,
        write: bool,
        owner: int,
        n: int = 1,
    ) -> Tuple[bool, Optional[Tuple[int, int, bool]]]:
        """Perform ``n`` back-to-back accesses to one line.

        The first access decides hit or miss; the remaining ``n - 1``
        are guaranteed hits (the caller got them from run-length
        coalescing).  Returns ``(hit, evicted)`` where ``evicted``
        is ``(victim_line, victim_owner, victim_dirty)`` when the fill
        displaced a line.
        """
        if not 0 <= set_index < self.geometry.sets:
            raise _set_index_error(self, set_index)
        stats = self.stats.per_owner.get(owner)
        if stats is None:
            stats = OwnerStats()
            self.stats.per_owner[owner] = stats
        stats.accesses += n

        if self._where.get(line_addr) == set_index:
            # Hit -- one dict probe, no scan over the ways.
            stats.hits += n
            if self.policy == "lru":
                lines = self._sets[set_index]
                if lines[0] != line_addr:
                    lines.remove(line_addr)
                    lines.insert(0, line_addr)
            if write:
                self._dirty.add(line_addr)
            return True, None

        # Miss.
        stats.misses += 1
        stats.hits += n - 1

        lines = self._sets.get(set_index)
        if lines is None:
            lines = self._sets[set_index] = []
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
        return False, evicted

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
        if not 0 <= set_index < self.geometry.sets:
            raise _set_index_error(self, set_index)
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
        self._sets.clear()
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
        sets = self._sets
        for line in victims:
            self._owner_of.pop(line)
            set_index = self._where.pop(line)
            self._dirty.discard(line)
            lines = sets[set_index]
            lines.remove(line)
            if not lines:
                del sets[set_index]
        if flushed:
            self.stats.owner(owner).writebacks += len(flushed)
        return flushed

    # -- bulk state exchange with the C walker -------------------------------

    def export_state(self):
        """Flatten the contents to parallel arrays for the C walker.

        Returns ``(lines, owners, dirty, lens)``: per set, ``ways``
        slots in recency order (slot 0 = MRU, unused slots hold -1 /
        zero), plus the per-set occupancy.  Only the sets that hold a
        line are walked.  See :mod:`repro.mem.cwalker`.
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
        for set_index, slist in self._sets.items():
            lens[set_index] = len(slist)
            base = set_index * ways
            for k, line in enumerate(slist):
                lines[base + k] = line
                owners[base + k] = owner_of[line]
                if line in dirty_set:
                    dirty[base + k] = 1
        return lines, owners, dirty, lens

    def import_state(self, lines, owners, dirty, lens) -> None:
        """Rebuild the dict/list state from :meth:`export_state` arrays.

        Only the sets with a nonzero occupancy get a list.
        """
        held = np.flatnonzero(lens)
        counts = lens[held].astype(np.int64)
        starts = np.cumsum(counts) - counts
        # The occupied slots, set by set in recency order.
        slots = (np.repeat(held * self.geometry.ways - starts, counts)
                 + np.arange(counts.sum()))
        resident = lines[slots].tolist()
        self._where = dict(zip(resident, np.repeat(held, counts).tolist()))
        self._owner_of = dict(zip(resident, owners[slots].tolist()))
        self._dirty = set(lines[slots[dirty[slots] != 0]].tolist())
        self._sets = {
            set_index: resident[start:start + count]
            for set_index, start, count in zip(
                held.tolist(), starts.tolist(), counts.tolist()
            )
        }

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

    A set gets its slot rows at its first fill and loses them when an
    invalidation empties it, as in :class:`SetAssociativeCache`; a set
    index outside ``[0, sets)`` raises
    :class:`~repro.errors.MemoryModelError`.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "way-cache"):
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        # Set index -> its ``(lines, owners, stamps)`` rows, one slot
        # per way, for the sets that hold a line.  Rows start empty:
        # line None, owner 0, stamp 0.
        self._slots: Dict[
            int, Tuple[List[Optional[int]], List[int], List[int]]
        ] = {}
        self._dirty: set = set()
        self._clock = 0

    def set_contents(self, set_index: int) -> tuple:
        """Snapshot of one set's occupied slots: ``(way, line, owner,
        stamp)`` in way order."""
        if not 0 <= set_index < self.geometry.sets:
            raise _set_index_error(self, set_index)
        rows = self._slots.get(set_index)
        if rows is None:
            return ()
        slot_lines, owner_row, stamp_row = rows
        return tuple(
            (way, line, owner_row[way], stamp_row[way])
            for way, line in enumerate(slot_lines) if line is not None
        )

    def access(
        self,
        line_addr: int,
        set_index: int,
        write: bool,
        owner: int,
        alloc_ways: Tuple[int, ...],
        n: int = 1,
    ) -> Tuple[bool, Optional[Tuple[int, int, bool]]]:
        """Access with an allocation-way restriction; see class docs."""
        if not alloc_ways:
            raise MemoryModelError(f"owner {owner} has no allocation ways")
        if not 0 <= set_index < self.geometry.sets:
            raise _set_index_error(self, set_index)
        self._clock += 1
        stats = self.stats.owner(owner)
        stats.accesses += n

        rows = self._slots.get(set_index)
        if rows is None:
            ways = self.geometry.ways
            rows = self._slots[set_index] = (
                [None] * ways, [0] * ways, [0] * ways
            )
        slot_lines, owner_row, stamp_row = rows
        for way, resident in enumerate(slot_lines):
            if resident == line_addr:
                stats.hits += n
                stamp_row[way] = self._clock
                if write:
                    self._dirty.add(line_addr)
                return True, None

        stats.misses += 1
        stats.hits += n - 1

        # Prefer an empty allowed way; otherwise evict LRU allowed way.
        victim_way = None
        for way in alloc_ways:
            if slot_lines[way] is None:
                victim_way = way
                break
        if victim_way is None:
            victim_way = min(alloc_ways, key=stamp_row.__getitem__)

        evicted: Optional[Tuple[int, int, bool]] = None
        old_line = slot_lines[victim_way]
        if old_line is not None:
            old_owner = owner_row[victim_way]
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
        owner_row[victim_way] = owner
        stamp_row[victim_way] = self._clock
        if write:
            self._dirty.add(line_addr)
        return False, evicted

    def probe_writeback(self, line_addr: int, set_index: int, owner: int) -> bool:
        """Non-allocating write-back probe (see SetAssociativeCache)."""
        if not 0 <= set_index < self.geometry.sets:
            raise _set_index_error(self, set_index)
        rows = self._slots.get(set_index)
        if rows is not None and line_addr in rows[0]:
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
        for slot_lines, owner_row, _stamp_row in self._slots.values():
            for way, line in enumerate(slot_lines):
                if line is not None and line in self._dirty:
                    flushed.append((line, owner_row[way]))
        self._slots.clear()
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
        Emptied slots reset their owner and stamp to 0, preserving the
        empty-slot-stamp invariant of :meth:`export_state`, and a set
        left without a line loses its rows.
        """
        flushed: List[int] = []
        for set_index, rows in list(self._slots.items()):
            slot_lines, owner_row, stamp_row = rows
            for way, line in enumerate(slot_lines):
                if line is None or owner_row[way] != owner:
                    continue
                if line in self._dirty:
                    self._dirty.discard(line)
                    flushed.append(line)
                slot_lines[way] = None
                owner_row[way] = 0
                stamp_row[way] = 0
            if slot_lines.count(None) == len(slot_lines):
                del self._slots[set_index]
        flushed.sort()
        if flushed:
            self.stats.owner(owner).writebacks += len(flushed)
        return flushed

    # -- bulk state exchange with the compiled walker ------------------------

    def export_state(self):
        """Flatten the contents to parallel arrays for the C walker.

        Returns ``(lines, owners, dirty, stamps, clock)``: per set,
        ``ways`` explicit slots (empty slots hold line -1), the
        recency stamps, and the global stamp clock.  Only the sets that
        hold a line are walked.  Empty slots carry stamp 0 -- which is
        exactly their reference value, since a set's rows start with
        stamp 0, slots only become empty through :meth:`invalidate_all`
        / :meth:`invalidate_owner` (which drop the rows or reset the
        stamp to 0), and victim selection never reads the stamp of an
        empty slot.
        """
        geometry = self.geometry
        ways = geometry.ways
        n_slots = geometry.sets * ways
        lines = np.full(n_slots, -1, dtype=np.int64)
        owners = np.zeros(n_slots, dtype=np.int64)
        dirty = np.zeros(n_slots, dtype=np.uint8)
        stamps = np.zeros(n_slots, dtype=np.int64)
        dirty_set = self._dirty
        for set_index, rows in self._slots.items():
            slot_lines, owner_row, stamp_row = rows
            base = set_index * ways
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
        """Rebuild the slot state from :meth:`export_state` arrays.

        Only the sets with an occupied slot get rows: the C walk never
        empties a slot, so an all-empty set still holds the stamp 0
        its rows would start with.
        """
        ways = self.geometry.ways
        line_rows = lines.reshape(-1, ways)
        held = np.flatnonzero((line_rows != -1).any(axis=1))
        slots: Dict[int, Tuple[List[Optional[int]], List[int], List[int]]] = {}
        dirty_set: set = set()
        for set_index, row, owner_row, stamp_row, dirty_row in zip(
            held.tolist(),
            line_rows[held].tolist(),
            owners.reshape(-1, ways)[held].tolist(),
            stamps.reshape(-1, ways)[held].tolist(),
            dirty.reshape(-1, ways)[held].tolist(),
        ):
            slots[set_index] = (
                [None if line == -1 else line for line in row],
                owner_row,
                stamp_row,
            )
            for line, is_dirty in zip(row, dirty_row):
                if is_dirty:
                    dirty_set.add(line)
        self._slots = slots
        self._dirty = dirty_set
        self._clock = int(clock)

    def __repr__(self) -> str:
        return f"<WayManagedCache {self.name!r} {self.geometry}>"
