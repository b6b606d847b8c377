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
this.

Two engines implement the walk:

- ``engine="compiled"`` (the default) -- the C tier.  A persistent
  C-side state handle (:class:`_CompiledState`) keeps every L1, the
  shared L2 (including the way-partitioned column cache), the DRAM
  bank timers and the bus demand model resident between calls, so
  every batch, whatever its size, walks in one C call; per-owner
  statistics follow in one batched ``bincount`` flush of the walk's
  per-run flags.  Between calls the C arrays are the authoritative
  cache state: call :meth:`MemorySystem.sync_state` before reading the
  Python cache models directly.
- ``engine="reference"`` -- one method call per run into the cache
  models.  Slow but obviously faithful; it is the differential-testing
  oracle and the compiled engine's fallback.

Both engines produce bit-identical statistics, which the differential
test suite asserts.  The compiled engine falls back to the reference
walk when no C compiler is available (or ``REPRO_NO_CWALKER`` is set),
for a ``random`` L2, whose victim selection draws from the cache
model's RNG, and when the C state cannot be allocated.  A negative
owner id degrades it to the reference walk too -- the owner registry
never produces one, and once such lines are resident their evictions
would poison the vectorised statistics flush.  Every fallback is for
good, and :attr:`MemorySystem.effective_engine` reports the engine
that walks after it.
"""

from __future__ import annotations

import ctypes

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

#: Shared empty owner list for the no-event stats flush.
_EMPTY_I64 = np.empty(0, dtype=np.int64)


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

    def merge(self, other: "BatchResult") -> None:
        """Accumulate another result into this one."""
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.accesses += other.accesses
        self.l1_misses += other.l1_misses
        self.l2_accesses += other.l2_accesses
        self.l2_misses += other.l2_misses
        self.dram_lines += other.dram_lines
        self.bus_cycles += other.bus_cycles
        self.store_fills += other.store_fills


class _CompiledState:
    """Persistent C-side state of one :class:`MemorySystem`.

    Owns the numpy arrays the C handle points into (cache contents of
    every level, DRAM bank timers, bus demand/totals) and the opaque
    ``walker_state`` capsule built over them.  Between calls the arrays
    *are* the authoritative cache state; :meth:`sync_down` materialises
    them back into the Python cache models when something needs the
    dict/list view (repartitioning, tests, diagnostics).  Per-owner
    statistics stay on the Python side -- the C walk emits per-run
    flags that :meth:`MemorySystem._flush_compiled_stats` reduces in
    one bincount flush.
    """

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
        else:
            lines, owners, dirty, stamps, clock = mem.l2_way.export_state()
            lens = np.zeros(l2_geometry.sets, dtype=np.int32)
            mode = cwalker.L2_MODE_WAY
        self.l2_mode = mode
        self.l2_lines = lines
        self.l2_owners = owners
        self.l2_dirty = dirty
        self.l2_len = lens
        self.l2_stamp = stamps
        self.way_clock = np.array([clock], dtype=np.int64)

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

        handle = walker.state_new(
            n_cpus,
            l1_geometry.sets, l1_geometry.ways,
            self.l1_lines.ctypes.data, self.l1_owners.ctypes.data,
            self.l1_dirty.ctypes.data, self.l1_len.ctypes.data,
            l2_geometry.sets, l2_geometry.ways, mode,
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

        # Reusable per-call scratch (the walk runs once per op;
        # allocating outputs per call dominates small batches).
        # Flags/victim slots need no zeroing between calls: the C
        # walker assigns them for every run, and the flush only reads
        # the batch's runs.
        self._run_capacity = 0
        self._run_scratch: tuple = ()
        #: The walk's eight scalar outputs (see ``walk_batch``).
        self.out = np.zeros(8, dtype=np.int64)
        self.out_ptr = self.out.ctypes.data
        self._no_table = (
            np.zeros(1, dtype=np.int64),
            np.ones(1, dtype=np.int64),
            np.ones(1, dtype=np.uint8),
        )

    def run_scratch(self, n: int) -> tuple:
        """Per-run ``(flags, l1_victim, l2_victim)`` plus addresses."""
        if n > self._run_capacity or not self._run_scratch:
            self._run_capacity = max(2 * n, 4096)
            arrays = (
                np.zeros(self._run_capacity, dtype=np.uint8),
                np.zeros(self._run_capacity, dtype=np.int64),
                np.zeros(self._run_capacity, dtype=np.int64),
            )
            self._run_scratch = (
                arrays, tuple(a.ctypes.data for a in arrays)
            )
        return self._run_scratch

    def sync_down(self, mem: "MemorySystem") -> None:
        """Write the C-resident state back into the Python models."""
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
        rng: Optional[np.random.Generator] = None,
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
                config.l2_geometry, policy=config.l2_policy, name="l2", rng=rng
            )
            self.l2_way = None
        self.set_map = SetPartitionMap(config.l2_geometry.sets)
        self.way_map = WayPartitionMap(config.l2_geometry.ways)
        self.memory = MainMemory(config.dram)
        self.bus = SharedBus(config.bus, n_cpus=n_cpus)
        #: Lazily built persistent C state (engine="compiled" only).
        self._compiled: Optional[_CompiledState] = None
        #: Whether batches try the C tier.  Cleared for good when the C
        #: state cannot be allocated or a negative owner id turns up.
        self._use_compiled = config.engine == "compiled"
        #: (version, table) memo of the dense set-translation table.
        self._set_table_memo: Optional[tuple] = None
        #: (version, table) memo of the way-allocation table.
        self._way_table_memo: Optional[tuple] = None

    # -- configuration -----------------------------------------------------

    @property
    def l2_stats(self):
        """Per-owner stats of the L2 (whichever implementation is live)."""
        cache = self.l2 if self.l2 is not None else self.l2_way
        return cache.stats

    def reset_stats(self) -> None:
        """Zero all statistics without touching cache contents."""
        self.sync_state()
        for l1 in self.l1s:
            l1.stats.reset()
        self.l2_stats.reset()
        self.memory.reset_traffic()
        self.bus.reset()
        self._drop_compiled()

    def repartition(self, now: float = 0.0) -> int:
        """Flush and invalidate every cache level; returns the writebacks.

        The OS must call this before reprogramming the partition maps:
        index translation moves lines between sets, so stale residents
        would alias, and silently dropping dirty lines would lose DRAM
        traffic.  Every dirty victim is written back to DRAM (traffic
        only -- reprogramming is not on the CPUs' critical path).
        """
        self.sync_state()
        self._drop_compiled()
        flushed = 0
        caches = list(self.l1s)
        caches.append(self.l2 if self.l2 is not None else self.l2_way)
        for cache in caches:
            for line, _owner in cache.invalidate_all():
                self.memory.access(line, True, now)
                flushed += 1
        return flushed

    def quiesce(self) -> None:
        """Prepare for a Python-side map/state mutation.

        Syncs compiled-tier state down into the Python models and drops
        the C handle, so the mutation starts from (and the next
        compiled call re-exports) an up-to-date view.  Idempotent, and
        a no-op on the reference engine.  Every map-mutating path in
        :class:`~repro.rtos.cachectl.CacheController` calls this: a
        partition change against a *stale* Python view would silently
        diverge the compiled engine from the reference.
        """
        self.sync_state()
        self._drop_compiled()

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

        A no-op unless the compiled tier is live.  Cache contents, DRAM
        bank timers and bus demand live C-side between compiled calls;
        anything that wants the Python dict/list view (repartitioning,
        direct cache inspection, the differential tests) calls this
        first.  Idempotent -- the arrays stay authoritative and further
        compiled calls continue from them.
        """
        if self._compiled is not None:
            self._compiled.sync_down(self)

    def _drop_compiled(self) -> None:
        """Invalidate the C handle after a Python-side state mutation.

        The next compiled call re-exports the (mutated) Python state.
        Callers must :meth:`sync_state` *before* mutating, or the
        mutation would start from a stale view.
        """
        if self._compiled is not None:
            self._compiled.close()
            self._compiled = None

    @property
    def effective_engine(self) -> str:
        """The engine that walks the next batch, after every fallback.

        ``"compiled"`` or ``"reference"``: the requested
        :attr:`HierarchyConfig.engine` unless the compiled tier is down
        (no C walker, a ``random`` L2, a failed state allocation, a
        negative owner id) -- then ``"reference"``.
        """
        if (self._use_compiled
                and (self.l2 is None or self.l2.policy != "random")
                and cwalker.load() is not None):
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

    def _set_translation_table(self):
        """Dense owner -> set-group table for the C walkers (memoized).

        Row layout matches ``_walker.c``: rows ``0..n_table-1`` are the
        per-owner effective partitions (default mapping where none),
        row ``n_table`` is the default mapping itself; owners beyond
        the table use the default row, which is correct because every
        partitioned or aliased owner is covered by construction.
        """
        version = self.set_map.version
        if self._set_table_memo is not None \
                and self._set_table_memo[0] == version:
            return self._set_table_memo[1]
        covered = set(self.set_map._partitions) | set(self.set_map._aliases)
        n_table = (max(covered) + 1) if covered else 0
        pool = self.set_map.default_pool
        if pool is not None:
            default_row = (pool.base, pool.n_sets, pool.is_power_of_two)
        else:
            default_row = (0, self.config.l2_geometry.sets, True)
        tbl_base = np.empty(n_table + 1, dtype=np.int64)
        tbl_size = np.empty(n_table + 1, dtype=np.int64)
        tbl_pow2 = np.empty(n_table + 1, dtype=np.uint8)
        for owner in range(n_table):
            partition = self.set_map.effective_partition(owner)
            row = (
                (partition.base, partition.n_sets, partition.is_power_of_two)
                if partition is not None else default_row
            )
            tbl_base[owner], tbl_size[owner], tbl_pow2[owner] = row
        tbl_base[n_table], tbl_size[n_table], tbl_pow2[n_table] = default_row
        table = (n_table, tbl_base, tbl_size, tbl_pow2)
        self._set_table_memo = (version, table)
        return table

    def _way_allocation_table(self):
        """Dense owner -> allocation-way table for the C walker (memoized).

        ``way_rows + 1`` rows of ``l2_ways`` slots, -1 padded, in the
        owner's allocation-preference order; the last row (and every
        uncovered owner) gets all ways -- the unpartitioned default.
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
        result = (way_rows, table)
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
        random L2, a failed state allocation) or the batch resolves a
        negative owner id (the registry never produces one; the oracle
        path handles it).
        """
        state = self._compiled_state()
        if state is None:
            return None
        config = self.config
        line_shift = config.l1_geometry.line_shift
        set_partitioned = self.mode is PartitionMode.SET_PARTITIONED

        lines_arr, counts_arr, wany_arr, wall_arr = batch.runs(line_shift)
        n_runs = int(lines_arr.shape[0])
        if n_runs:
            owners_arr = self.resolver.resolve_many(
                lines_arr << line_shift, task_owner
            )
            if int(owners_arr.min()) < 0:
                # Negative owner ids take the oracle path -- stickily,
                # because once such lines are resident any eviction
                # would feed their owner into the vectorised flush.
                # Hand the authoritative state back to the Python
                # models first, otherwise the fallback would walk a
                # stale view and its mutations would never reach the C
                # arrays.
                self.sync_state()
                self._drop_compiled()
                self._use_compiled = False
                return None
            # numpy bools are one byte: reinterpret, do not copy.
            wany_u8 = wany_arr.view(np.uint8)
            full_line_count = config.l1_geometry.line_size // 4
            sf_u8 = (wall_arr & (counts_arr >= full_line_count)).view(
                np.uint8
            )
            l1_idx_arr = lines_arr & config.l1_geometry.index_mask
            if set_partitioned:
                l2_idx_arr = np.ascontiguousarray(
                    self.set_map.map_index_many(owners_arr, lines_arr),
                    dtype=np.int64,
                )
            else:
                l2_idx_arr = lines_arr & config.l2_geometry.index_mask
        else:
            lines_arr = counts_arr = owners_arr = state._no_table[0]
            l1_idx_arr = l2_idx_arr = state._no_table[0]
            wany_u8 = sf_u8 = state._no_table[2]

        if set_partitioned:
            use_table = 1
            n_table, tbl_base, tbl_size, tbl_pow2 = \
                self._set_translation_table()
        else:
            use_table = 0
            n_table = 0
            tbl_base, tbl_size, tbl_pow2 = state._no_table
        if self.mode is PartitionMode.WAY_PARTITIONED:
            way_rows, way_table = self._way_allocation_table()
        else:
            way_rows = 0
            way_table = state._no_table[0]

        (flags, l1_vo, l2_vo), run_ptrs = state.run_scratch(n_runs)
        instructions = int(batch.instructions)
        state.walker.walk_batch(
            state.handle, cpu_id, n_runs, instructions,
            lines_arr.ctypes.data, l1_idx_arr.ctypes.data,
            l2_idx_arr.ctypes.data,
            wany_u8.ctypes.data, sf_u8.ctypes.data, owners_arr.ctypes.data,
            use_table, n_table,
            tbl_base.ctypes.data, tbl_size.ctypes.data, tbl_pow2.ctypes.data,
            way_table.ctypes.data, way_rows,
            float(now),
            run_ptrs[0], run_ptrs[1], run_ptrs[2],
            state.out_ptr,
        )
        (cycles, l1_misses, dram_reads, dram_writes, bus_cycles,
         store_fills, read_conflicts, write_conflicts) = state.out.tolist()

        traffic = self.memory.traffic
        traffic.line_reads += dram_reads
        traffic.line_writes += dram_writes
        traffic.bank_conflicts += read_conflicts + write_conflicts
        if n_runs:
            self._flush_compiled_stats(
                cpu_id, state.walker, lines_arr, counts_arr, owners_arr,
                sf_u8, flags[:n_runs], l1_vo[:n_runs], l2_vo[:n_runs],
            )
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

    def _flush_compiled_stats(
        self, cpu_id, walker, lines_arr, counts_arr, owners_arr, sf_u8,
        flags, l1_vo, l2_vo,
    ) -> None:
        """Reduce one C walk's per-run flags into the Python stats.

        One bincount flush: L1 accounting on the batch's CPU, L2
        accounting over every run, cold misses by batch-first
        occurrence against the seen-sets.
        """
        l1 = self.l1s[cpu_id]
        if not flags.any():
            # Pure L1-hit batch (the warm steady state): only the
            # per-owner access/hit counts move.
            empty = _EMPTY_I64
            _flush_weighted_stats(
                l1.stats, owners_arr, counts_arr,
                empty, empty, empty, empty, empty,
            )
            return

        l1_miss_mask = (flags & cwalker.FLAG_L1_MISS) != 0
        l1_evict_mask = (flags & cwalker.FLAG_L1_EVICT) != 0
        l1_wb_mask = (flags & cwalker.FLAG_L1_WB) != 0
        demand_mask = (flags & cwalker.FLAG_L2_DEMAND_MISS) != 0
        l2_evict_mask = (flags & cwalker.FLAG_L2_EVICT) != 0
        l2_wb_mask = (flags & cwalker.FLAG_L2_WB) != 0
        probe_miss_mask = (flags & cwalker.FLAG_L2_PROBE_MISS) != 0

        # -- L1 accounting ------------------------------------------------
        cold_runs, miss_lines = _first_misses(
            walker, lines_arr, l1_miss_mask, l1._seen
        )
        l1._seen.update(miss_lines)
        _flush_weighted_stats(
            l1.stats, owners_arr, counts_arr,
            owners_arr[l1_miss_mask], owners_arr[cold_runs],
            owners_arr[l1_evict_mask], l1_vo[l1_evict_mask],
            l1_vo[l1_wb_mask],
        )

        # -- L2 accounting: one probe per L1-missing run ------------------
        l2_cache = self.l2 if self.l2 is not None else self.l2_way
        cold2_candidates, miss_lines2 = _first_misses(
            walker, lines_arr, probe_miss_mask, l2_cache._seen
        )
        cold2_runs = cold2_candidates[sf_u8[cold2_candidates] == 0]
        l2_cache._seen.update(miss_lines2)
        _flush_probe_stats(
            l2_cache.stats,
            owners_arr[l1_miss_mask], owners_arr[demand_mask],
            owners_arr[cold2_runs],
            owners_arr[l2_evict_mask], l2_vo[l2_evict_mask],
            l2_vo[l2_wb_mask],
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


# -- compiled-engine statistics flush -------------------------------------
#
# The C walk reports per-run outcome flags and victim owners; these
# helpers reduce the owner ids they select to per-owner deltas in one
# vectorised pass.  The resulting OwnerStats values are identical to
# what the per-run reference accounting produces, because
# hit/miss/access counts are order-free sums.


def _bincount(owners, minlength=0) -> np.ndarray:
    """Per-owner occurrence counts of a flat owner-id array."""
    return np.bincount(
        np.asarray(owners, dtype=np.int64), minlength=minlength
    )


def _first_misses(walker, line_arr, miss_mask, seen):
    """Batch-first misses of not-yet-seen lines (compiled-tier cold misses).

    Returns ``(cold_runs, missed_lines)``: the run indices whose miss
    is the line's first at this level *and* whose line is absent from
    ``seen`` (the reference marks a line seen at every miss, never at a
    hit), plus the distinct missed lines to add to the seen-set.
    """
    miss_runs = np.flatnonzero(miss_mask)
    n_misses = int(miss_runs.shape[0])
    if n_misses == 0:
        return miss_runs, []
    missed = line_arr[miss_runs]
    first_mask = np.zeros(n_misses, dtype=np.uint8)
    if walker.first_occurrence(
        missed.ctypes.data, n_misses, first_mask.ctypes.data,
    ):
        _, first_sub = np.unique(missed, return_index=True)
    else:
        first_sub = np.flatnonzero(first_mask)
    first_runs = miss_runs[first_sub]
    missed_lines = line_arr[first_runs].tolist()
    if seen.issuperset(missed_lines):
        # Warm steady state: every missed line was seen before, so no
        # run is cold -- skip the per-line membership scan.
        return first_runs[:0], missed_lines
    pre_seen = np.fromiter(
        (line in seen for line in missed_lines),
        dtype=bool, count=len(missed_lines),
    )
    return first_runs[~pre_seen], missed_lines


def _flush_events(stats, evictor_owners, victim_owners, wb_owners) -> None:
    """Apply eviction-attribution and writeback events to ``stats``.

    Events arrive as parallel evictor/victim owner arrays; the
    ``(evictor, victim)`` matrix is aggregated by packing each pair into
    one integer key and running ``np.unique`` -- no per-event Python
    work.
    """
    if len(victim_owners):
        victims = np.asarray(victim_owners, dtype=np.int64)
        suffered = np.bincount(victims)
        for o in np.flatnonzero(suffered):
            stats.owner(int(o)).evictions_suffered += int(suffered[o])
        evictors = np.asarray(evictor_owners, dtype=np.int64)
        key_mod = int(victims.max()) + 1
        packed = evictors * key_mod + victims
        matrix = stats.eviction_matrix
        if int(evictors.max()) * key_mod < (1 << 22):
            # Dense owner ids (the normal case): bincount beats the
            # sort inside np.unique by an order of magnitude.
            counts = np.bincount(packed)
            for key in np.flatnonzero(counts):
                pair = (int(key) // key_mod, int(key) % key_mod)
                matrix[pair] = matrix.get(pair, 0) + int(counts[key])
        else:
            keys, counts = np.unique(packed, return_counts=True)
            for key, n in zip(keys.tolist(), counts.tolist()):
                pair = (key // key_mod, key % key_mod)
                matrix[pair] = matrix.get(pair, 0) + n
    if len(wb_owners):
        flushed = _bincount(wb_owners)
        for o in np.flatnonzero(flushed):
            stats.owner(int(o)).writebacks += int(flushed[o])


def _apply_owner_counts(stats, acc, miss_owners, cold_owners) -> None:
    """Fold per-owner access/miss/cold counts into ``stats``.

    ``hits`` is derived as ``accesses - misses`` -- exactly the
    reference model's ``hits += n`` / ``hits += n - 1`` bookkeeping,
    summed (only a run's first access can miss).
    """
    n_owners = len(acc)
    miss = _bincount(miss_owners, n_owners)
    cold = _bincount(cold_owners, n_owners)
    for o in np.flatnonzero(acc):
        owner_stats = stats.owner(int(o))
        a = int(acc[o])
        m = int(miss[o])
        owner_stats.accesses += a
        owner_stats.hits += a - m
        owner_stats.misses += m
        c = int(cold[o])
        if c:
            owner_stats.cold_misses += c


def _flush_weighted_stats(
    stats, owners_arr, count_arr, miss_owners, cold_owners,
    evictor_owners, victim_owners, wb_owners,
) -> None:
    """L1-style accounting: every run accesses with its full run length."""
    n_owners = int(owners_arr.max()) + 1
    acc = np.bincount(owners_arr, weights=count_arr, minlength=n_owners)
    _apply_owner_counts(stats, acc, miss_owners, cold_owners)
    _flush_events(stats, evictor_owners, victim_owners, wb_owners)


def _flush_probe_stats(
    stats, probe_owners, miss_owners, cold_owners,
    evictor_owners, victim_owners, wb_owners,
) -> None:
    """L2-style accounting: one single-access probe per L1-missing run.

    Store fills are probes that never count as demand misses (the
    reference path books then cancels the miss; the net effect is an
    access plus a hit, which is what omitting them from ``miss_owners``
    produces here).
    """
    if len(probe_owners):
        probes = np.asarray(probe_owners, dtype=np.int64)
        acc = np.bincount(probes, minlength=int(probes.max()) + 1)
        _apply_owner_counts(stats, acc, miss_owners, cold_owners)
    _flush_events(stats, evictor_owners, victim_owners, wb_owners)
