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
  shared L2 (including the way-partitioned column cache), the DRAM bank
  timers, the bus demand model and per-owner statistics counters
  resident between calls.  A batch's raw addresses and write flags
  become line runs in one C coalescing call, on its first walk only when
  the batch is read-only: such a batch keeps its runs for the line
  geometry and the L1 set count (see
  :class:`~repro.mem.trace.AccessBatch`).  The call also folds every run
  on the line that its L1 set last saw earlier in the batch into that
  earlier run: such a run hits in slot 0 and moves nothing, so the C
  walk probes fewer runs than the reference walk and counts the same
  statistics.  The interval table, the partition maps and the counters
  are bound into the C state when they change or the task owner lies
  beyond the counters, which then grow to cover the task owner and
  every interval owner.  Then every batch, whatever its size, is one C
  walk over its runs that resolves each run's owner through the
  interval table, translates the L2 set index, walks, and counts the
  per-owner statistics.  The walk allocates nothing and checks nothing,
  so it cannot refuse a batch.  The contract for reading state:

  * :attr:`MemorySystem.l2_stats` is always current (reading it folds
    the C-side L2 counters in);
  * the L1 stats and every cache's contents are current after
    :meth:`MemorySystem.sync_state`;
  * the interval table and the partition maps are bound again when
    their ``version`` changes, so changing them between two calls
    needs no sync;
  * direct edits to Python-side cache state come after
    :meth:`MemorySystem.quiesce`, which syncs and drops the C state so
    the next call re-exports it.
- ``engine="reference"`` -- one loop over the batch's runs that calls
  the cache models step by step in the order of ``walk_run`` in
  ``_walker.c``: resolve the owner, probe the L1, write a dirty L1
  victim back through the L2 (or to DRAM), make one L2 access (a
  demand access or a store fill), send a dirty L2 victim to DRAM, then
  undo the store fill's miss or add the demand's stall and DRAM read.
  Slow but obviously faithful; it is the differential-testing oracle,
  and what the compiled engine walks without a C walker.

Both engines produce bit-identical statistics, which the differential
test suite asserts.  Owner ids are checked where they enter, against
:data:`repro.mem.intervals.MAX_OWNERS` (the reach of the dense C
counters), so the C walk never meets one it cannot count.  The compiled
engine walks in C exactly when a C walker loaded (a C compiler is
available and ``REPRO_NO_CWALKER`` is unset), else on the reference
walk, as :attr:`MemorySystem.effective_engine` reports for the
system's life.  A C state that cannot be allocated raises
:class:`MemoryError`.
"""

from __future__ import annotations

import ctypes

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError, MemoryModelError
from repro.mem import cwalker
from repro.mem.bus import BusConfig, SharedBus
from repro.mem.cache import CacheGeometry, SetAssociativeCache, WayManagedCache
from repro.mem.intervals import MAX_OWNERS
from repro.mem.memory import DramConfig, MainMemory
from repro.mem.partition import (
    OwnerResolver,
    PartitionMode,
    SetPartitionMap,
    WayPartitionMap,
)
from repro.mem.trace import AccessBatch

__all__ = ["BatchResult", "HierarchyConfig", "MemorySystem"]


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
    #: default) or ``"reference"`` (one Python loop over the runs; the
    #: differential-testing oracle, and the compiled engine's walk
    #: without a C walker).  See the module docstring.
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
        policies = SetAssociativeCache.REPLACEMENT_POLICIES
        if self.l2_policy not in policies:
            raise ConfigurationError(
                f"l2_policy must be one of {', '.join(policies)}, "
                f"got {self.l2_policy!r}"
            )
        if self.engine not in self.ENGINES:
            raise ConfigurationError(
                f"engine must be one of {', '.join(self.ENGINES)}, "
                f"got {self.engine!r}"
            )

    @property
    def run_key(self) -> tuple:
        """What a batch's runs depend on besides the batch: the line
        shift, the accesses that make a store fill (one per 4-byte word
        of a line) and the L1 set count, within which the compiled
        engine folds revisits.  The compiled engine keeps runs under
        it."""
        geometry = self.l1_geometry
        return (geometry.line_shift, geometry.line_size // 4, geometry.sets)


@dataclass(slots=True)
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
    counters) and the opaque ``walker_state`` capsule built over them.
    Between calls the arrays *are* the authoritative cache state, and
    the counters hold the statistics the C walk counted since they were
    last folded into the caches' :class:`~repro.mem.cache.CacheStats`.  :meth:`flush_stats`
    folds them (every :attr:`MemorySystem.l2_stats` read does so for the
    L2); :meth:`sync_down` materialises everything -- contents and
    every counter -- back into the Python models when something needs
    that view (repartitioning, tests, diagnostics).

    The counters are dense: per cache (every L1 by cpu id, then the
    L2), ``counts[cache]`` has one row per field of :data:`_FIELDS` and
    ``matrix[cache]`` is the ``(evictor, victim)`` eviction matrix,
    both indexed by owner id below :attr:`n_owners`.
    """

    #: Counter rows per cache; must match ``_walker.c``.  ``hits`` is
    #: ``accesses - misses`` (only a run's first access can miss).
    _FIELDS = ("accesses", "misses", "evictions_suffered", "writebacks")

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

        l2 = mem.l2
        if mem.mode is PartitionMode.WAY_PARTITIONED:
            lines, owners, dirty, stamps, clock = l2.export_state()
            lens = np.zeros(l2_geometry.sets, dtype=np.int32)
            mode = cwalker.L2_MODE_WAY
        else:
            lines, owners, dirty, lens = l2.export_state()
            stamps = np.zeros(1, dtype=np.int64)
            clock = 0
            mode = (
                cwalker.L2_MODE_LRU if l2.policy == "lru"
                else cwalker.L2_MODE_FIFO
            )
        self.l2_mode = mode
        self.l2_lines = lines
        self.l2_owners = owners
        self.l2_dirty = dirty
        self.l2_len = lens
        self.l2_stamp = stamps
        self.way_clock = np.array([clock], dtype=np.int64)
        #: Every cache in counter order: the L1s by cpu id, then the L2.
        self.caches = [*mem.l1s, l2]

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

        handle = walker.state_new(
            n_cpus, l1_geometry.line_shift,
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
        )
        if not handle:
            raise MemoryError("walker_state_new failed")
        self.handle = ctypes.c_void_p(handle)

        #: The walk's eight scalar outputs (see ``walk_batch``).
        self.out = np.zeros(8, dtype=np.int64)
        self.out_ptr = self.out.ctypes.data
        #: The key of the runs a batch keeps (:meth:`coalesce`).
        self.run_key = config.run_key
        #: The coalescing's scratch: one slot per L1 set.
        self.last_run = np.empty(l1_geometry.sets, dtype=np.int64)
        #: The set table of conventional indexing over the whole L2
        #: (one default row), for every mode but set partitioning.
        self.natural_table = np.array(
            [[0, l2_geometry.sets]], dtype=np.int64
        )
        #: What the C state's bound inputs were built from: the
        #: interval table, its version and the partition maps' versions
        #: (see :meth:`MemorySystem._execute_batch_compiled`); ``None``
        #: until the first bind.
        self.bound: Optional[tuple] = None
        #: The bound tables, referenced while the C state reads them.
        self.bound_tables: tuple = ()

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

    def grow(self, owner: int) -> None:
        """Re-size the counters to cover ``owner``, keeping their counts."""
        counts, matrix, n_owners = self.counts, self.matrix, self.n_owners
        self._alloc_counters(owner)
        self.counts[:, :, :n_owners] = counts
        self.matrix[:, :n_owners, :n_owners] = matrix

    def coalesce(self, batch: AccessBatch) -> Optional[tuple]:
        """The batch as line runs: ``(key, runs, pointer, n_runs)``.

        One C call, which touches no state.  It folds every run on the
        line its L1 set last saw earlier in the batch into that earlier
        run (see ``walker_coalesce``), so there are fewer runs than
        :meth:`~repro.mem.trace.AccessBatch.runs` gives, and they walk
        the same.  A read-only batch keeps the result.  ``None`` when an
        address is negative.
        """
        # The C coalescing reads contiguous int64 addresses and one flag
        # byte per access; both conversions are no-ops for the usual
        # batch.
        addrs = np.ascontiguousarray(batch.addrs, dtype=np.int64)
        writes = batch.writes
        if writes.dtype != np.bool_ or not writes.flags.c_contiguous:
            writes = np.ascontiguousarray(writes, dtype=np.bool_)
        n = addrs.shape[0]
        buffer = np.empty((n, 2), dtype=np.int64)
        line_shift, full_line_count, l1_sets = self.run_key
        n_runs = self.walker.coalesce(
            addrs.ctypes.data, writes.ctypes.data, n,
            line_shift, full_line_count, l1_sets,
            self.last_run.ctypes.data, buffer.ctypes.data,
        )
        if n_runs < 0:
            return None
        runs = buffer[:n_runs].copy()
        result = (self.run_key, runs, runs.ctypes.data, n_runs)
        batch._keep_runs(result)
        return result

    def bind(self, key: tuple, tables) -> None:
        """Store the walk's per-call inputs in the C state.

        ``tables`` are the interval, set-translation and way-allocation
        tables as :meth:`MemorySystem._bind_tables` builds them, and
        ``key`` what they were built from (:attr:`bound`); the counters
        are this state's own.
        """
        (intervals, (n_table, set_table),
         (way_rows, way_table)) = tables
        self.walker.bind(
            self.handle, intervals.ctypes.data, intervals.shape[1],
            set_table.ctypes.data, n_table,
            None if way_table is None else way_table.ctypes.data, way_rows,
            self.counts.ctypes.data, self.matrix.ctypes.data,
            self.n_owners,
        )
        self.bound_tables = tables
        self.bound = key

    def flush_stats(self, which) -> None:
        """Fold the counters of caches ``which`` into their stats; zero them."""
        n_owners = self.n_owners
        for index in which:
            stats = self.caches[index].stats
            counts = self.counts[index]
            active = np.flatnonzero(counts.any(axis=0))
            if active.shape[0]:
                for owner, (acc, miss, evicted, wb) in zip(
                    active.tolist(), counts[:, active].T.tolist()
                ):
                    owner_stats = stats.owner(owner)
                    owner_stats.accesses += acc
                    owner_stats.hits += acc - miss
                    owner_stats.misses += miss
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
        span = self.l1_sets * self.l1_ways
        for i, l1 in enumerate(mem.l1s):
            l1.import_state(
                self.l1_lines[i * span:(i + 1) * span],
                self.l1_owners[i * span:(i + 1) * span],
                self.l1_dirty[i * span:(i + 1) * span],
                self.l1_len[i * self.l1_sets:(i + 1) * self.l1_sets],
            )
        if self.l2_mode == cwalker.L2_MODE_WAY:
            mem.l2.import_state(
                self.l2_lines, self.l2_owners, self.l2_dirty,
                self.l2_stamp, int(self.way_clock[0]),
            )
        else:
            mem.l2.import_state(
                self.l2_lines, self.l2_owners, self.l2_dirty, self.l2_len
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
        #: The shared L2: the column cache in way mode, else the
        #: set-associative cache with the configured policy.
        self.l2: Union[SetAssociativeCache, WayManagedCache]
        if mode is PartitionMode.WAY_PARTITIONED:
            self.l2 = WayManagedCache(config.l2_geometry, name="l2")
        else:
            self.l2 = SetAssociativeCache(
                config.l2_geometry, policy=config.l2_policy, name="l2"
            )
        self.set_map = SetPartitionMap(config.l2_geometry.sets)
        self.way_map = WayPartitionMap(config.l2_geometry.ways)
        self.memory = MainMemory(config.dram)
        self.bus = SharedBus(config.bus, n_cpus=n_cpus)
        #: Lazily built persistent C state (engine="compiled" only).
        self._compiled: Optional[_CompiledState] = None
        #: The C walker that walks every batch, or ``None``: the engine
        #: is reference, or no C walker loaded.  Fixed for good.
        self._walker = (
            cwalker.load() if config.engine == "compiled" else None
        )

    # -- configuration -----------------------------------------------------

    @property
    def l2_stats(self):
        """Per-owner stats of the L2.

        Always current: on the compiled engine, reading it first folds
        the C-side L2 counters into the returned stats.
        """
        if self._compiled is not None:
            self._compiled.flush_stats((self.n_cpus,))
        return self.l2.stats

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
        for cache in (*self.l1s, self.l2):
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
        direct cache edits).  The interval table and the partition maps are bound again whenever
        their ``version`` changes, so changing them needs no quiesce.
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
        for cache in (*self.l1s, self.l2):
            for owner in sorted(set(owners)):
                for line in cache.invalidate_owner(owner):
                    self.memory.access(line, True, now)
                    flushed += 1
        return flushed

    # -- compiled-tier state management ------------------------------------

    def sync_state(self) -> None:
        """Materialise C-resident state back into the Python models.

        A no-op unless the compiled tier is live.  Cache contents,
        per-owner statistics, DRAM bank timers and bus demand live
        C-side between compiled calls; anything
        that wants their Python view (direct cache or L1 stats
        inspection, the differential tests) calls this first.
        :attr:`l2_stats` needs no sync.  Idempotent -- the arrays stay
        authoritative and further compiled calls continue from them.
        """
        if self._compiled is not None:
            self._compiled.sync_down(self)

    @property
    def effective_engine(self) -> str:
        """The engine that walks every batch of this system.

        ``"compiled"`` when the requested :attr:`HierarchyConfig.engine`
        is compiled and a C walker loaded, else ``"reference"``.
        """
        return "reference" if self._walker is None else "compiled"

    def _bind_tables(self, state: _CompiledState) -> tuple:
        """The walk's per-call tables, as :meth:`_CompiledState.bind`
        takes them: the interval table, ``(n_table, set table)`` and
        ``(way_rows, way table)``.

        Built only on the bind slow path of
        :meth:`_execute_batch_compiled`.
        """
        intervals = self.resolver.intervals.as_array()
        if self.mode is PartitionMode.SET_PARTITIONED:
            set_table = self._set_translation_table()
        else:
            set_table = (0, state.natural_table)
        if self.mode is PartitionMode.WAY_PARTITIONED:
            way_table = self._way_allocation_table()
        else:
            way_table = (0, None)  # read in way mode only
        return intervals, set_table, way_table

    def _set_translation_table(self):
        """Dense owner -> set-group table for the C walk.

        ``(n_table, table)``.  Row layout matches ``_walker.c``:
        ``(base, n_sets)`` per row; rows ``0..n_table-1`` are the
        per-owner effective partitions (default mapping where none),
        row ``n_table`` is the default mapping itself; owners beyond
        the table use the default row, which is correct because every
        partitioned or aliased owner is covered by construction.
        """
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
        return n_table, np.array(rows, dtype=np.int64)

    def _way_allocation_table(self):
        """Dense owner -> allocation-way table for the C walker.

        ``(way_rows, table)``: ``way_rows + 1`` rows of ``l2_ways``
        slots, -1 padded, in the owner's allocation-preference order;
        the last row (and every uncovered owner) gets all ways -- the
        unpartitioned default.
        """
        ways = self.config.l2_geometry.ways
        assigned = self.way_map._ways_of
        way_rows = (max(assigned) + 1) if assigned else 0
        table = np.full((way_rows + 1) * ways, -1, dtype=np.int64)
        for owner in range(way_rows + 1):
            row = self.way_map.ways_of(owner) if owner < way_rows \
                else tuple(range(ways))
            for k, way in enumerate(row):
                table[owner * ways + k] = way
        return way_rows, table

    # -- execution -----------------------------------------------------------

    def execute_batch(
        self, cpu_id: int, task_owner: int, batch: AccessBatch, now: float
    ) -> BatchResult:
        """Run ``batch`` on ``cpu_id`` on behalf of ``task_owner``.

        Returns the :class:`BatchResult` with the cycle cost; caches,
        bus and DRAM state advance as side effects.  Dispatches to the
        engine that :attr:`effective_engine` names.  A ``cpu_id`` out of
        range, a ``task_owner`` outside ``[0, MAX_OWNERS)``, a NaN
        ``now`` or issue cycles (``instructions x issue_cpi``) of
        ``2**62`` or more raise :class:`MemoryModelError` before any
        state changes.
        """
        if not 0 <= cpu_id < self.n_cpus:
            raise MemoryModelError(f"cpu {cpu_id} out of range")
        if not 0 <= task_owner < MAX_OWNERS:
            raise MemoryModelError(
                f"task owner id {task_owner} outside [0, {MAX_OWNERS})"
            )
        if now != now:
            # NaN: the Python bus clamps it to no elapsed time, the C
            # bus would keep it in the demand.
            raise MemoryModelError(f"batch time is NaN on cpu {cpu_id}")
        if batch.instructions * self.config.issue_cpi >= 2**62:
            # The C walk rounds the issue cycles into an int64 and adds
            # the stall and bus cycles; the bound leaves room for both.
            raise MemoryModelError(
                f"{batch.instructions} instructions at issue CPI "
                f"{self.config.issue_cpi} reach 2**62 cycles"
            )
        if self._walker is not None:
            return self._execute_batch_compiled(
                cpu_id, task_owner, batch, now
            )
        return self._execute_batch_reference(cpu_id, task_owner, batch, now)

    #: Placeholder for the removed multi-entry segment walk: the
    #: repository benchmark's traced run (``perfbench/scenarios.py``)
    #: still wraps this attribute by name.  Nothing calls it.
    execute_segment = None

    def _execute_batch_compiled(
        self, cpu_id: int, task_owner: int, batch: AccessBatch, now: float
    ) -> BatchResult:
        """One C walk over the batch's runs.

        The C state is built at the first batch, and again at the first
        after a :meth:`quiesce`.  The runs come from the batch when it
        kept them for this line geometry and L1 set count, else from
        one C coalescing call, which raises the negative-address
        :class:`MemoryModelError` before any state changes.  The tables
        are bound when one changed or the task owner lies beyond the
        counters; that slow path grows the counters to the larger of
        the task owner and the largest owner in the bound interval
        table, all of them in range by the owner checks.
        """
        state = self._compiled
        if state is None:
            state = self._compiled = _CompiledState(self, self._walker)
        runs = batch._runs
        if runs is None or runs[0] != state.run_key:
            runs = state.coalesce(batch)
            if runs is None:
                raise MemoryModelError(
                    f"negative address in a batch on cpu {cpu_id}"
                )
        intervals = self.resolver.intervals
        key = (intervals, intervals._version, self.set_map._version,
               self.way_map._version)
        if key != state.bound or task_owner >= state.n_owners:
            tables = self._bind_tables(state)
            # Row 2 of the interval array holds the interval owners.
            highest = max(task_owner, int(tables[0][2].max(initial=0)))
            if highest >= state.n_owners:
                state.grow(highest)
            state.bind(key, tables)
        instructions = batch.instructions
        state.walker.walk_batch(
            state.handle, cpu_id, task_owner, instructions, now,
            runs[2], runs[3], state.out_ptr,
        )
        (cycles, l1_misses, dram_reads, dram_writes, bus_cycles,
         store_fills, read_conflicts, write_conflicts) = state.out.tolist()

        traffic = self.memory.traffic
        traffic.line_reads += dram_reads
        traffic.line_writes += dram_writes
        traffic.bank_conflicts += read_conflicts + write_conflicts
        # Positional: cycles, instructions, accesses, L1 misses, L2
        # accesses, L2 misses, DRAM lines, bus cycles, store fills.
        return BatchResult(
            cycles, instructions, batch.n_accesses, l1_misses, l1_misses,
            dram_reads, dram_reads + dram_writes, bus_cycles, store_fills,
        )

    def _execute_batch_reference(
        self, cpu_id: int, task_owner: int, batch: AccessBatch, now: float
    ) -> BatchResult:
        """The oracle walk: ``walk_run`` of ``_walker.c``, step by step.

        One loop body per run of :meth:`AccessBatch.runs`:

        1. resolve the owner: the interval table's, else the task's;
        2. probe the L1 (which fills on a miss); a hit ends the run;
        3. send a dirty L1 victim through the L2's non-allocating
           ``probe_writeback``, or to DRAM when the L2 does not hold it;
        4. make one L2 access: a store fill (a write-only run covering
           the whole line, installed dirty without a fetch -- the L2 is
           the tile's communication point, where a consumer on another
           CPU finds the data) or a demand access;
        5. send a dirty L2 victim to DRAM (traffic, no stall);
        6. undo the store fill's miss -- an allocation that transfers
           nothing from memory is an access and a hit -- or add the
           demand's L2 hit stall and, on a miss, its DRAM read.

        The bus prices the batch's transfers at the end: one per L1
        miss and one per dirty L1 victim.
        """
        config = self.config
        line_shift = config.l1_geometry.line_shift
        l1_mask = config.l1_geometry.index_mask
        l2_mask = config.l2_geometry.index_mask
        # A write-only run of one access per 4-byte word covers its line.
        full_line_count = config.l1_geometry.line_size // 4
        l2_hit_cycles = config.l2_hit_cycles
        resolve = self.resolver.resolve
        l1_access = self.l1s[cpu_id].access
        l2 = self.l2
        dram = self.memory.access
        if self.mode is PartitionMode.SET_PARTITIONED:
            l2_index = self.set_map.map_index
        else:
            def l2_index(_owner: int, line: int) -> int:
                return line & l2_mask
        ways_of = (
            self.way_map.ways_of
            if self.mode is PartitionMode.WAY_PARTITIONED else None
        )

        lines, counts, write_any, write_all = batch.runs(line_shift)
        if lines.shape[0] and int(lines.min()) < 0:
            raise MemoryModelError(
                f"negative address in a batch on cpu {cpu_id}"
            )
        l1_misses = l2_misses = dram_lines = store_fills = 0
        stall = transfers = 0
        for line, count, write, write_only in zip(
            lines.tolist(), counts.tolist(),
            write_any.tolist(), write_all.tolist(),
        ):
            owner = resolve(line << line_shift, task_owner)

            hit, victim = l1_access(line, line & l1_mask, write, owner, count)
            if hit:
                continue
            l1_misses += 1
            transfers += 1

            if victim is not None and victim[2]:
                victim_line, victim_owner = victim[0], victim[1]
                transfers += 1
                if not l2.probe_writeback(
                    victim_line, l2_index(victim_owner, victim_line),
                    victim_owner,
                ):
                    dram(victim_line, True, now)
                    dram_lines += 1

            index = l2_index(owner, line)
            if ways_of is None:
                hit, victim = l2.access(line, index, write, owner)
            else:
                hit, victim = l2.access(
                    line, index, write, owner, ways_of(owner)
                )

            if victim is not None and victim[2]:
                dram(victim[0], True, now)
                dram_lines += 1

            if write_only and count >= full_line_count:
                store_fills += 1
                if not hit:
                    stats = l2.stats.owner(owner)
                    stats.misses -= 1
                    stats.hits += 1
            else:
                stall += l2_hit_cycles
                if not hit:
                    l2_misses += 1
                    stall += dram(line, False, now)
                    dram_lines += 1

        bus_cycles = self.bus.price_transfers(cpu_id, transfers, now)
        instructions = batch.instructions
        # Positional: cycles, instructions, accesses, L1 misses, L2
        # accesses, L2 misses, DRAM lines, bus cycles, store fills.
        return BatchResult(
            round(instructions * config.issue_cpi) + stall + bus_cycles,
            instructions, batch.n_accesses, l1_misses, l1_misses,
            l2_misses, dram_lines, bus_cycles, store_fills,
        )
