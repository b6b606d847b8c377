"""Multi-level memory hierarchy walker.

:class:`MemorySystem` ties together the per-CPU private L1 caches, the
shared (optionally partitioned) L2, the bus and DRAM, and prices a batch
of memory accesses in cycles:

``cycles = instructions x issue_cpi``
``        + L2 read accesses x l2_hit_cycles``
``        + L2 misses x DRAM latency``
``        + bus transfer + contention cycles``

Writebacks (dirty evictions) generate traffic but do not stall the CPU
-- the usual write-buffer simplification.  All per-owner hit/miss
accounting lives in the caches' :class:`~repro.mem.cache.CacheStats`.

The walker consumes *runs* (see :mod:`repro.mem.trace`): one cache probe
per run, with the run length counted as accesses.  L1 and L2 must share
a line size for the run semantics to be exact; the constructor enforces
this.  Addresses must be non-negative integers: both engines reject a
batch with a negative address before it touches any state.

Two engines implement the walk:

- ``engine="compiled"`` (the default) -- the C tier.  A persistent
  C-side state handle (:class:`_CompiledState`) keeps every L1, the
  shared L2 (including the way-partitioned column cache), the DRAM
  bank timers, the bus demand model, per-owner statistics counters and
  one seen-set per cache resident between calls.  Every batch,
  whatever its size, is one C call that takes the raw addresses and
  write flags and coalesces them into runs, resolves each run's owner
  through the interval table, translates the L2 set index, walks, and
  counts the per-owner statistics.  The contract for reading state:

  * :attr:`MemorySystem.l2_stats` is always current (reading it folds
    the C-side L2 counters in);
  * the L1 stats, every cache's contents and its ``_seen`` set are
    current after :meth:`MemorySystem.sync_state`;
  * the interval table and the partition maps are per-call inputs
    (memoized on their ``version``), so changing them between two
    calls needs no sync;
  * edits to Python-side cache state (``forget_history``, direct cache
    edits) come after :meth:`MemorySystem.quiesce`, which syncs and
    drops the C state so the next call re-exports it.
- ``engine="reference"`` -- one method call per run into the cache
  models.  Slow but obviously faithful; it is the differential-testing
  oracle and the compiled engine's fallback.

Both engines produce bit-identical statistics, which the differential
test suite asserts.  The compiled engine falls back to the reference
walk when no C compiler is available (or ``REPRO_NO_CWALKER`` is set)
and when the C state cannot be allocated or grown.  A negative owner
id degrades it to the reference walk too -- the owner registry never
produces one -- and so does an owner id of :data:`MAX_DENSE_OWNERS` or
more, which the dense C counters do not cover.  Each check runs before the C call touches any state.  Every
fallback is for good, and :attr:`MemorySystem.effective_engine`
reports the engine that walks after it.
"""

from __future__ import annotations

import ctypes
import itertools

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, MemoryModelError
from repro.mem import cwalker
from repro.mem.bus import BusConfig, SharedBus
from repro.mem.cache import CacheGeometry, SetAssociativeCache, WayManagedCache
from repro.mem.memory import DramConfig, MainMemory
from repro.mem.partition import (
    OwnerResolver,
    PartitionMode,
    SetPartitionMap,
    WayPartitionMap,
)
from repro.mem.trace import AccessBatch

__all__ = ["BatchResult", "HierarchyConfig", "MemorySystem"]

#: Owner ids the compiled engine's dense per-owner counters cover: the
#: eviction matrices take ``(n_cpus + 1) x MAX_DENSE_OWNERS**2`` int64
#: counters at most (40 MiB for four CPUs).  A run resolving a larger
#: id sends the engine to the reference walk.
MAX_DENSE_OWNERS = 1024


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometries and timing of the whole memory system."""

    #: 8 KB 4-way private L1 (TriMedia-class data cache pressure: small
    #: enough that task working sets spill to the shared L2, which is
    #: where the paper's interference effect lives).
    l1_geometry: CacheGeometry = CacheGeometry(sets=32, ways=4, line_size=64)
    #: 512 KB 4-way shared L2 -- the paper's instance.
    l2_geometry: CacheGeometry = CacheGeometry(sets=2048, ways=4, line_size=64)
    #: Base cycles per instruction of the VLIW core (no memory stalls).
    issue_cpi: float = 0.55
    #: Stall cycles for an L2 hit (L1 miss served on-tile).
    l2_hit_cycles: int = 12
    dram: DramConfig = field(default_factory=DramConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    #: Replacement policy of the set-associative L2: ``"lru"`` or
    #: ``"fifo"`` (the way-partitioned L2 has its own).
    l2_policy: str = "lru"
    #: ``"compiled"`` (persistent C state, one C call per batch; the
    #: default) or ``"reference"`` (per-run method calls; the
    #: differential-testing oracle the compiled engine falls back to).
    #: See the module docstring.
    engine: str = "compiled"

    ENGINES = ("reference", "compiled")

    def __post_init__(self) -> None:
        if self.l1_geometry.line_size != self.l2_geometry.line_size:
            raise ConfigurationError(
                "L1 and L2 must share a line size for run coalescing"
            )
        if self.issue_cpi <= 0:
            raise ConfigurationError("issue_cpi must be positive")
        if self.l2_hit_cycles < 0:
            raise ConfigurationError("l2_hit_cycles must be >= 0")
        if self.engine not in self.ENGINES:
            raise ConfigurationError(
                f"engine must be one of {', '.join(self.ENGINES)}, "
                f"got {self.engine!r}"
            )


@dataclass
class BatchResult:
    """Cost and traffic of executing one access batch."""

    cycles: int = 0
    instructions: int = 0
    accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    dram_lines: int = 0
    bus_cycles: int = 0
    store_fills: int = 0


class _CompiledState:
    """Persistent C-side state of one :class:`MemorySystem`.

    Owns the numpy arrays the C handle points into (cache contents of
    every level, DRAM bank timers, bus demand/totals, per-owner
    counters) and the opaque ``walker_state`` capsule built over them,
    which also holds one seen-set per cache.  Between calls the arrays
    *are* the authoritative cache state, and the counters hold the
    statistics the C walk counted since they were last folded into the
    caches' :class:`~repro.mem.cache.CacheStats`.  :meth:`flush_stats`
    folds them (every :attr:`MemorySystem.l2_stats` read does so for the
    L2); :meth:`sync_down` materialises everything -- contents, every
    counter, the newly seen lines -- back into the Python models when
    something needs that view (repartitioning, tests, diagnostics).
    The C seen-sets start from the caches' ``_seen`` sets, so those
    round-trip across a drop and rebuild like the contents do.

    The counters are dense: per cache (every L1 by cpu id, then the
    L2), ``counts[cache]`` has one row per field of :data:`_FIELDS` and
    ``matrix[cache]`` is the ``(evictor, victim)`` eviction matrix,
    both indexed by owner id below :attr:`n_owners`.
    """

    #: Counter rows per cache; must match ``_walker.c``.  ``hits`` is
    #: ``accesses - misses`` (only a run's first access can miss).
    _FIELDS = ("accesses", "misses", "cold_misses", "evictions_suffered",
               "writebacks")

    def __init__(self, mem: "MemorySystem", walker):
        self.walker = walker
        config = mem.config
        n_cpus = mem.n_cpus
        l1_geometry = config.l1_geometry
        l2_geometry = config.l2_geometry
        self.l1_sets = l1_geometry.sets
        self.l1_ways = l1_geometry.ways

        l1_parts = [l1.export_state() for l1 in mem.l1s]
        self.l1_lines = np.concatenate([p[0] for p in l1_parts])
        self.l1_owners = np.concatenate([p[1] for p in l1_parts])
        self.l1_dirty = np.concatenate([p[2] for p in l1_parts])
        self.l1_len = np.concatenate([p[3] for p in l1_parts])

        if mem.l2 is not None:
            lines, owners, dirty, lens = mem.l2.export_state()
            stamps = np.zeros(1, dtype=np.int64)
            clock = 0
            mode = (
                cwalker.L2_MODE_LRU if mem.l2.policy == "lru"
                else cwalker.L2_MODE_FIFO
            )
            l2_cache = mem.l2
        else:
            lines, owners, dirty, stamps, clock = mem.l2_way.export_state()
            lens = np.zeros(l2_geometry.sets, dtype=np.int32)
            mode = cwalker.L2_MODE_WAY
            l2_cache = mem.l2_way
        self.l2_mode = mode
        self.l2_lines = lines
        self.l2_owners = owners
        self.l2_dirty = dirty
        self.l2_len = lens
        self.l2_stamp = stamps
        self.way_clock = np.array([clock], dtype=np.int64)
        #: Every cache in counter order: the L1s by cpu id, then the L2.
        self.caches = [*mem.l1s, l2_cache]

        dram = config.dram
        bank_free = mem.memory._bank_free_at
        self.bank_free = np.array(
            [bank_free.get(b, 0.0) for b in range(dram.n_banks)],
            dtype=np.float64,
        )

        bus = mem.bus
        self.bus_demand = np.array(
            [bus._demand[c] for c in range(n_cpus)], dtype=np.float64
        )
        self.bus_last = np.array(
            [bus._last_update[c] for c in range(n_cpus)], dtype=np.float64
        )
        self.bus_transfers = np.array([bus.total_transfers], dtype=np.int64)
        self.bus_surcharge = np.array(
            [bus.total_surcharge_cycles], dtype=np.float64
        )

        # Resident owners came from earlier walks, so they are in range.
        self._alloc_counters(
            max(int(self.l1_owners.max()), int(self.l2_owners.max()))
        )

        seen_counts = np.array(
            [len(cache._seen) for cache in self.caches], dtype=np.int64
        )
        seen_lines = np.fromiter(
            itertools.chain.from_iterable(
                cache._seen for cache in self.caches
            ),
            dtype=np.int64, count=int(seen_counts.sum()),
        )
        handle = walker.state_new(
            n_cpus, l1_geometry.line_shift, l1_geometry.line_size // 4,
            l1_geometry.sets, l1_geometry.ways,
            self.l1_lines.ctypes.data, self.l1_owners.ctypes.data,
            self.l1_dirty.ctypes.data, self.l1_len.ctypes.data,
            l2_geometry.ways, mode,
            self.l2_lines.ctypes.data, self.l2_owners.ctypes.data,
            self.l2_dirty.ctypes.data, self.l2_len.ctypes.data,
            self.l2_stamp.ctypes.data, self.way_clock.ctypes.data,
            dram.n_banks - 1, dram.bank_busy_cycles,
            dram.access_cycles, dram.bank_penalty_cycles,
            self.bank_free.ctypes.data,
            config.bus.transfer_cycles, config.bus.lines_per_cycle,
            config.bus.decay_cycles, config.bus.max_surcharge,
            self.bus_demand.ctypes.data, self.bus_last.ctypes.data,
            self.bus_transfers.ctypes.data, self.bus_surcharge.ctypes.data,
            config.issue_cpi, config.l2_hit_cycles,
            seen_lines.ctypes.data, seen_counts.ctypes.data,
        )
        if not handle:
            raise MemoryError("walker_state_new failed")
        self.handle = ctypes.c_void_p(handle)

        #: The walk's eight scalar outputs (see ``walk_batch``).
        self.out = np.zeros(8, dtype=np.int64)
        self.out_ptr = self.out.ctypes.data
        #: The set table of conventional indexing over the whole L2
        #: (one default row), for every mode but set partitioning.
        self.natural_table = np.array(
            [[0, l2_geometry.sets]], dtype=np.int64
        )
        self.natural_table_ptr = self.natural_table.ctypes.data

    def _alloc_counters(self, max_owner: int) -> None:
        """Fresh zeroed counters covering owner ids up to ``max_owner``."""
        n_owners = 64
        while n_owners <= max_owner:
            n_owners *= 2
        n_caches = len(self.caches)
        self.n_owners = n_owners
        self.counts = np.zeros(
            (n_caches, len(self._FIELDS), n_owners), dtype=np.int64
        )
        self.matrix = np.zeros((n_caches, n_owners, n_owners), dtype=np.int64)
        self.counts_ptr = self.counts.ctypes.data
        self.matrix_ptr = self.matrix.ctypes.data

    def grow(self, owner: int) -> None:
        """Re-size the counters to cover ``owner``, keeping their counts."""
        counts, matrix, n_owners = self.counts, self.matrix, self.n_owners
        self._alloc_counters(owner)
        self.counts[:, :, :n_owners] = counts
        self.matrix[:, :n_owners, :n_owners] = matrix

    def flush_stats(self, which) -> None:
        """Fold the counters of caches ``which`` into their stats; zero them."""
        n_owners = self.n_owners
        for index in which:
            stats = self.caches[index].stats
            counts = self.counts[index]
            active = np.flatnonzero(counts.any(axis=0))
            if active.shape[0]:
                for owner, (acc, miss, cold, evicted, wb) in zip(
                    active.tolist(), counts[:, active].T.tolist()
                ):
                    owner_stats = stats.owner(owner)
                    owner_stats.accesses += acc
                    owner_stats.hits += acc - miss
                    owner_stats.misses += miss
                    owner_stats.cold_misses += cold
                    owner_stats.evictions_suffered += evicted
                    owner_stats.writebacks += wb
                counts[:, active] = 0
            matrix = self.matrix[index].reshape(-1)
            pairs = np.flatnonzero(matrix)
            if pairs.shape[0]:
                evictions = stats.eviction_matrix
                for key, n in zip(pairs.tolist(), matrix[pairs].tolist()):
                    pair = divmod(key, n_owners)
                    evictions[pair] = evictions.get(pair, 0) + n
                matrix[pairs] = 0

    def sync_down(self, mem: "MemorySystem") -> None:
        """Write the C-resident state back into the Python models."""
        self.flush_stats(range(len(self.caches)))
        for index, cache in enumerate(self.caches):
            fresh = self.walker.seen_fresh(self.handle, index)
            if fresh:
                lines = np.empty(fresh, dtype=np.int64)
                self.walker.seen_take(self.handle, index, lines.ctypes.data)
                cache._seen.update(lines.tolist())
        span = self.l1_sets * self.l1_ways
        for i, l1 in enumerate(mem.l1s):
            l1.import_state(
                self.l1_lines[i * span:(i + 1) * span],
                self.l1_owners[i * span:(i + 1) * span],
                self.l1_dirty[i * span:(i + 1) * span],
                self.l1_len[i * self.l1_sets:(i + 1) * self.l1_sets],
            )
        if mem.l2 is not None:
            mem.l2.import_state(
                self.l2_lines, self.l2_owners, self.l2_dirty, self.l2_len
            )
        else:
            mem.l2_way.import_state(
                self.l2_lines, self.l2_owners, self.l2_dirty,
                self.l2_stamp, int(self.way_clock[0]),
            )
        bank_free = mem.memory._bank_free_at
        for bank, value in enumerate(self.bank_free.tolist()):
            bank_free[bank] = value
        bus = mem.bus
        demand = self.bus_demand.tolist()
        last = self.bus_last.tolist()
        for cpu in range(mem.n_cpus):
            bus._demand[cpu] = demand[cpu]
            bus._last_update[cpu] = last[cpu]
        bus.total_transfers = int(self.bus_transfers[0])
        bus.total_surcharge_cycles = float(self.bus_surcharge[0])

    def close(self) -> None:
        """Free the C capsule (idempotent)."""
        handle, self.handle = getattr(self, "handle", None), None
        if handle:
            try:
                self.walker.state_free(handle)
            except Exception:  # pragma: no cover - interpreter teardown
                pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        self.close()


class MemorySystem:
    """L1s + shared L2 + bus + DRAM for an ``n_cpus`` tile."""

    def __init__(
        self,
        n_cpus: int,
        config: HierarchyConfig,
        resolver: Optional[OwnerResolver] = None,
        mode: PartitionMode = PartitionMode.SHARED,
    ):
        if n_cpus <= 0:
            raise ConfigurationError("n_cpus must be positive")
        self.n_cpus = n_cpus
        self.config = config
        self.mode = mode
        self.resolver = resolver if resolver is not None else OwnerResolver()
        self.l1s: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1_geometry, name=f"l1.cpu{i}")
            for i in range(n_cpus)
        ]
        if mode is PartitionMode.WAY_PARTITIONED:
            self.l2_way = WayManagedCache(config.l2_geometry, name="l2")
            self.l2 = None
        else:
            self.l2 = SetAssociativeCache(
                config.l2_geometry, policy=config.l2_policy, name="l2"
            )
            self.l2_way = None
        self.set_map = SetPartitionMap(config.l2_geometry.sets)
        self.way_map = WayPartitionMap(config.l2_geometry.ways)
        self.memory = MainMemory(config.dram)
        self.bus = SharedBus(config.bus, n_cpus=n_cpus)
        #: Lazily built persistent C state (engine="compiled" only).
        self._compiled: Optional[_CompiledState] = None
        #: Whether batches try the C tier.  Cleared for good when the C
        #: state cannot be allocated or grown, or a run resolves an
        #: owner id outside ``[0, MAX_DENSE_OWNERS)``.
        self._use_compiled = config.engine == "compiled"
        #: (version, (n_table, table, pointer)) memo of the dense
        #: set-translation table.
        self._set_table_memo: Optional[tuple] = None
        #: (version, (way_rows, table, pointer)) memo of the
        #: way-allocation table.
        self._way_table_memo: Optional[tuple] = None
        #: (table, version, (n, array, pointer)) memo of the interval
        #: table as the C walk reads it.
        self._interval_memo: Optional[tuple] = None

    # -- configuration -----------------------------------------------------

    @property
    def l2_stats(self):
        """Per-owner stats of the L2 (whichever implementation is live).

        Always current: on the compiled engine, reading it first folds
        the C-side L2 counters into the returned stats.
        """
        if self._compiled is not None:
            self._compiled.flush_stats((self.n_cpus,))
        cache = self.l2 if self.l2 is not None else self.l2_way
        return cache.stats

    def repartition(self, now: float = 0.0) -> int:
        """Flush and invalidate every cache level; returns the writebacks.

        The OS must call this before reprogramming the partition maps:
        index translation moves lines between sets, so stale residents
        would alias, and silently dropping dirty lines would lose DRAM
        traffic.  Every dirty victim is written back to DRAM (traffic
        only -- reprogramming is not on the CPUs' critical path).
        """
        self.quiesce()
        flushed = 0
        caches = list(self.l1s)
        caches.append(self.l2 if self.l2 is not None else self.l2_way)
        for cache in caches:
            for line, _owner in cache.invalidate_all():
                self.memory.access(line, True, now)
                flushed += 1
        return flushed

    def quiesce(self) -> None:
        """Hand the cache state back to the Python models.

        Syncs the C-resident state down (:meth:`sync_state`) and frees
        the C handle, so an edit to the Python-side cache state starts
        from an up-to-date view and the next compiled call re-exports
        the edited models.  Idempotent, and a no-op on the reference
        engine.  Only edits to what the C state holds need it: cache
        contents (:meth:`repartition`, :meth:`repartition_owners`,
        direct cache edits) and seen-sets (``forget_history()``).  The
        interval table and the partition maps are read on every call,
        so changing them needs no quiesce.
        """
        self.sync_state()
        if self._compiled is not None:
            self._compiled.close()
            self._compiled = None

    def repartition_owners(self, owners, now: float = 0.0) -> int:
        """Selectively flush+invalidate the given owner ids; returns writebacks.

        The online-transition replan path uses this instead of
        :meth:`repartition`: only the owners whose partitions move (a
        departing group, a reshaped allocation) lose their residency --
        survivors keep their cache contents, which is what makes a
        transition invisible to them.  Dirty victims are written back
        to DRAM in deterministic (level, owner, address) order.
        """
        self.quiesce()
        flushed = 0
        caches = list(self.l1s)
        caches.append(self.l2 if self.l2 is not None else self.l2_way)
        for cache in caches:
            for owner in sorted(set(owners)):
                for line in cache.invalidate_owner(owner):
                    self.memory.access(line, True, now)
                    flushed += 1
        return flushed

    # -- compiled-tier state management ------------------------------------

    def sync_state(self) -> None:
        """Materialise C-resident state back into the Python models.

        A no-op unless the compiled tier is live.  Cache contents,
        per-owner statistics, the caches' seen-sets, DRAM bank timers
        and bus demand live C-side between compiled calls; anything
        that wants their Python view (direct cache or L1 stats
        inspection, the differential tests) calls this first.
        :attr:`l2_stats` needs no sync.  Idempotent -- the arrays stay
        authoritative and further compiled calls continue from them.
        """
        if self._compiled is not None:
            self._compiled.sync_down(self)

    def _fall_back(self) -> None:
        """Walk on the reference engine for good, from up-to-date models."""
        self.quiesce()
        self._use_compiled = False

    @property
    def effective_engine(self) -> str:
        """The engine that walks the next batch, after every fallback.

        ``"compiled"`` or ``"reference"``: the requested
        :attr:`HierarchyConfig.engine` unless the compiled tier is down
        (no C walker, a failed state allocation, an owner id outside
        ``[0, MAX_DENSE_OWNERS)``) -- then ``"reference"``.
        """
        if self._use_compiled and cwalker.load() is not None:
            return "compiled"
        return "reference"

    def _compiled_state(self) -> Optional[_CompiledState]:
        """The live persistent C state, (re)built on demand.

        ``None`` unless :attr:`effective_engine` is ``"compiled"``.
        """
        if self._compiled is None and self.effective_engine == "compiled":
            try:
                self._compiled = _CompiledState(self, cwalker.load())
            except MemoryError:
                self._use_compiled = False
        return self._compiled

    def _interval_table(self):
        """The interval table as the C walk reads it (memoized).

        ``(n, array, pointer)``: the interval count, the table's
        :meth:`~repro.mem.intervals.IntervalTable.as_array` form and its
        address.
        """
        table = self.resolver.intervals
        memo = self._interval_memo
        if memo is None or memo[0] is not table \
                or memo[1] != table.version:
            array = table.as_array()
            memo = (table, table.version,
                    (array.shape[1], array, array.ctypes.data))
            self._interval_memo = memo
        return memo[2]

    def _set_translation_table(self):
        """Dense owner -> set-group table for the C walk (memoized).

        ``(n_table, table, pointer)``.  Row layout matches
        ``_walker.c``: ``(base, n_sets)`` per row; rows
        ``0..n_table-1`` are the per-owner effective partitions
        (default mapping where none), row ``n_table`` is the default
        mapping itself; owners beyond the table use the default row,
        which is correct because every partitioned or aliased owner is
        covered by construction.
        """
        version = self.set_map.version
        if self._set_table_memo is not None \
                and self._set_table_memo[0] == version:
            return self._set_table_memo[1]
        covered = set(self.set_map._partitions) | set(self.set_map._aliases)
        n_table = (max(covered) + 1) if covered else 0
        pool = self.set_map.default_pool
        if pool is not None:
            default_row = (pool.base, pool.n_sets)
        else:
            default_row = (0, self.config.l2_geometry.sets)
        rows = []
        for owner in range(n_table):
            partition = self.set_map.effective_partition(owner)
            rows.append(
                (partition.base, partition.n_sets)
                if partition is not None else default_row
            )
        rows.append(default_row)
        array = np.array(rows, dtype=np.int64)
        table = (n_table, array, array.ctypes.data)
        self._set_table_memo = (version, table)
        return table

    def _way_allocation_table(self):
        """Dense owner -> allocation-way table for the C walker (memoized).

        ``(way_rows, table, pointer)``: ``way_rows + 1`` rows of
        ``l2_ways`` slots, -1 padded, in the owner's allocation-preference
        order; the last row (and every uncovered owner) gets all ways --
        the unpartitioned default.
        """
        version = self.way_map._version
        if self._way_table_memo is not None \
                and self._way_table_memo[0] == version:
            return self._way_table_memo[1]
        ways = self.config.l2_geometry.ways
        assigned = self.way_map._ways_of
        way_rows = (max(assigned) + 1) if assigned else 0
        table = np.full((way_rows + 1) * ways, -1, dtype=np.int64)
        for owner in range(way_rows + 1):
            row = self.way_map.ways_of(owner) if owner < way_rows \
                else tuple(range(ways))
            for k, way in enumerate(row):
                table[owner * ways + k] = way
        result = (way_rows, table, table.ctypes.data)
        self._way_table_memo = (version, result)
        return result

    # -- execution -----------------------------------------------------------

    def execute_batch(
        self, cpu_id: int, task_owner: int, batch: AccessBatch, now: float
    ) -> BatchResult:
        """Run ``batch`` on ``cpu_id`` on behalf of ``task_owner``.

        Returns the :class:`BatchResult` with the cycle cost; caches,
        bus and DRAM state advance as side effects.  Dispatches to the
        engine selected by :attr:`HierarchyConfig.engine`.
        """
        if not 0 <= cpu_id < self.n_cpus:
            raise MemoryModelError(f"cpu {cpu_id} out of range")
        if self._use_compiled:
            result = self._execute_batch_compiled(
                cpu_id, task_owner, batch, now
            )
            if result is not None:
                return result
        return self._execute_batch_reference(cpu_id, task_owner, batch, now)

    #: Placeholder for the removed multi-entry segment walk: the
    #: repository benchmark's traced run (``perfbench/scenarios.py``)
    #: still wraps this attribute by name.  Nothing calls it.
    execute_segment = None

    def _execute_batch_compiled(
        self, cpu_id: int, task_owner: int, batch: AccessBatch, now: float
    ) -> Optional[BatchResult]:
        """One C call over the batch; ``None`` when unsupported.

        Unsupported means: the compiled tier is down (no C walker, a
        failed state allocation) or the C call declined the batch
        before touching any state -- a run resolves an owner id outside
        ``[0, MAX_DENSE_OWNERS)`` or a seen-set cannot grow.
        Both send this system to the reference walk for good.  An owner
        id beyond the current counters grows them and walks again.
        """
        state = self._compiled_state()
        if state is None:
            return None
        if state.n_owners <= task_owner < MAX_DENSE_OWNERS:
            state.grow(task_owner)
        # The C walk reads contiguous int64 addresses and one flag byte
        # per access; both conversions are no-ops for the usual batch.
        addrs = np.ascontiguousarray(batch.addrs, dtype=np.int64)
        writes = batch.writes
        if writes.dtype != np.bool_ or not writes.flags.c_contiguous:
            writes = np.ascontiguousarray(writes, dtype=np.bool_)
        n_intervals, _, intervals_ptr = self._interval_table()
        if self.mode is PartitionMode.SET_PARTITIONED:
            n_table, _, set_table_ptr = self._set_translation_table()
        else:
            n_table, set_table_ptr = 0, state.natural_table_ptr
        if self.mode is PartitionMode.WAY_PARTITIONED:
            way_rows, _, way_table_ptr = self._way_allocation_table()
        else:
            way_rows, way_table_ptr = 0, None  # read in way mode only
        instructions = int(batch.instructions)
        addrs_ptr = addrs.ctypes.data
        writes_ptr = writes.ctypes.data
        n = addrs.shape[0]
        while True:
            status = state.walker.walk_batch(
                state.handle, cpu_id, task_owner, instructions, float(now),
                addrs_ptr, writes_ptr, n,
                intervals_ptr, n_intervals,
                set_table_ptr, n_table,
                way_table_ptr, way_rows,
                state.counts_ptr, state.matrix_ptr, state.n_owners,
                state.out_ptr,
            )
            if status != cwalker.WALK_GROW:
                break
            owner = int(state.out[0])
            if owner >= MAX_DENSE_OWNERS:
                self._fall_back()
                return None
            state.grow(owner)
        if status == cwalker.WALK_NEGATIVE_ADDRESS:
            raise MemoryModelError(
                f"negative address in a batch on cpu {cpu_id}"
            )
        if status != cwalker.WALK_OK:
            # A negative owner id or a failed seen-set allocation.
            self._fall_back()
            return None
        (cycles, l1_misses, dram_reads, dram_writes, bus_cycles,
         store_fills, read_conflicts, write_conflicts) = state.out.tolist()

        traffic = self.memory.traffic
        traffic.line_reads += dram_reads
        traffic.line_writes += dram_writes
        traffic.bank_conflicts += read_conflicts + write_conflicts
        return BatchResult(
            cycles=cycles,
            instructions=instructions,
            accesses=batch.n_accesses,
            l1_misses=l1_misses,
            l2_accesses=l1_misses,
            l2_misses=dram_reads,
            dram_lines=dram_reads + dram_writes,
            bus_cycles=bus_cycles,
            store_fills=store_fills,
        )

    def _execute_batch_reference(
        self, cpu_id: int, task_owner: int, batch: AccessBatch, now: float
    ) -> BatchResult:
        """The oracle walk: one cache-model method call per run."""
        config = self.config
        l1 = self.l1s[cpu_id]
        line_shift = config.l1_geometry.line_shift
        l1_mask = config.l1_geometry.index_mask
        l2_mask = config.l2_geometry.index_mask
        resolve = self.resolver.resolve
        set_partitioned = self.mode is PartitionMode.SET_PARTITIONED
        way_partitioned = self.mode is PartitionMode.WAY_PARTITIONED
        translate = self.set_map.map_index
        ways_of = self.way_map.ways_of

        result = BatchResult(
            instructions=batch.instructions, accesses=batch.n_accesses
        )
        stall_cycles = 0.0
        transfers = 0
        # A write-only run touching at least this many spots filled the
        # whole line, so the allocation needs no fetch (write-validate).
        full_line_count = config.l1_geometry.line_size // 4

        line_addrs, counts, write_any, write_all = batch.runs(line_shift)
        if line_addrs.shape[0] and int(line_addrs.min()) < 0:
            raise MemoryModelError(
                f"negative address in a batch on cpu {cpu_id}"
            )
        for i in range(line_addrs.shape[0]):
            line = int(line_addrs[i])
            count = int(counts[i])
            write = bool(write_any[i])
            owner = resolve(line << line_shift, task_owner)

            l1_hit, _cold, l1_evicted = l1.access(
                line, line & l1_mask, write, owner, n=count
            )
            if l1_hit:
                continue
            result.l1_misses += 1
            transfers += 1

            # Dirty L1 victim is written back into the L2 first.  The
            # write-back is non-allocating: it updates the L2 copy when
            # present and otherwise goes straight to DRAM.
            if l1_evicted is not None and l1_evicted[2]:
                wb_line, wb_owner = l1_evicted[0], l1_evicted[1]
                if way_partitioned:
                    wb_hit = self.l2_way.probe_writeback(
                        wb_line, wb_line & l2_mask, wb_owner
                    )
                else:
                    wb_index = (
                        translate(wb_owner, wb_line)
                        if set_partitioned
                        else wb_line & l2_mask
                    )
                    wb_hit = self.l2.probe_writeback(wb_line, wb_index, wb_owner)
                if not wb_hit:
                    self.memory.access(wb_line, True, now)
                    result.dram_lines += 1
                transfers += 1

            # Full-line streaming stores allocate without a DRAM fetch
            # (write-validate).  The line is installed dirty in the L2
            # as well -- the L2 is the tile's communication point, so a
            # consumer on another CPU finds the producer's data there.
            # The allocation counts as an access but not as a miss.
            if bool(write_all[i]) and count >= full_line_count:
                result.store_fills += 1
                self._l2_store_fill(
                    line, owner, l2_mask, set_partitioned, way_partitioned,
                    translate, ways_of, now, result,
                )
                continue

            # The demand fill.
            l2_hit = self._l2_access(
                line,
                owner,
                write,
                l2_mask,
                set_partitioned,
                way_partitioned,
                translate,
                ways_of,
                now,
                result,
            )
            stall_cycles += config.l2_hit_cycles
            if not l2_hit:
                stall_cycles += self.memory.access(line, False, now)
                result.dram_lines += 1

        bus_cycles = self.bus.price_transfers(cpu_id, transfers, now)
        result.bus_cycles = bus_cycles
        result.cycles = int(
            round(batch.instructions * config.issue_cpi)
            + int(stall_cycles)
            + bus_cycles
        )
        return result

    def _l2_store_fill(
        self,
        line: int,
        owner: int,
        l2_mask: int,
        set_partitioned: bool,
        way_partitioned: bool,
        translate,
        ways_of,
        now: float,
        result: BatchResult,
    ) -> None:
        """Install a fully written line in the L2 without fetching.

        Uses the normal allocation path (so evictions and their
        attribution happen as usual) but cancels the miss/DRAM-read
        accounting: a write-validated allocation transfers nothing from
        memory.
        """
        result.l2_accesses += 1
        if way_partitioned:
            cache = self.l2_way
            hit, cold, evicted = cache.access(
                line, line & l2_mask, True, owner, ways_of(owner)
            )
        else:
            cache = self.l2
            index = translate(owner, line) if set_partitioned else line & l2_mask
            hit, cold, evicted = cache.access(line, index, True, owner)
        if not hit:
            # Not a demand miss: undo the miss counting of access().
            stats = cache.stats.owner(owner)
            stats.misses -= 1
            stats.hits += 1
            if cold:
                stats.cold_misses -= 1
        if evicted is not None and evicted[2]:
            self.memory.access(evicted[0], True, now)
            result.dram_lines += 1

    def _l2_access(
        self,
        line: int,
        owner: int,
        write: bool,
        l2_mask: int,
        set_partitioned: bool,
        way_partitioned: bool,
        translate,
        ways_of,
        now: float,
        result: BatchResult,
    ) -> bool:
        """One L2 probe; handles translation, way masks and writebacks."""
        result.l2_accesses += 1
        if way_partitioned:
            hit, _cold, evicted = self.l2_way.access(
                line, line & l2_mask, write, owner, ways_of(owner)
            )
        else:
            index = translate(owner, line) if set_partitioned else line & l2_mask
            hit, _cold, evicted = self.l2.access(line, index, write, owner)
        if not hit:
            result.l2_misses += 1
        if evicted is not None and evicted[2]:
            # Dirty L2 victim goes to DRAM; traffic only, no CPU stall.
            self.memory.access(evicted[0], True, now)
            result.dram_lines += 1
        return hit

