"""Memory-system substrate.

This package models everything between the CPU and DRAM:

- :mod:`repro.mem.address` -- linear address space, regions, memory maps.
- :mod:`repro.mem.intervals` -- the OS-loaded table of shared-memory
  intervals used to resolve buffer ids (the paper's third
  implementation alternative for identifying communication buffers).
- :mod:`repro.mem.trace` -- memory-access batches and run-length
  coalescing of the address stream.
- :mod:`repro.mem.cache` -- set-associative caches (LRU / FIFO
  replacement) with per-owner statistics and eviction attribution.
- :mod:`repro.mem.partition` -- the paper's set-index translation
  mechanism, plus a way-partitioning (column caching) baseline.
- :mod:`repro.mem.memory` -- DRAM latency/traffic model.
- :mod:`repro.mem.bus` -- deterministic shared-bus contention model.
- :mod:`repro.mem.hierarchy` -- the L1 + shared-L2 + DRAM walker that
  prices a batch of accesses in cycles.
"""

from repro.mem.address import AddressSpace, MemoryMap, Region, RegionKind
from repro.mem.cache import CacheGeometry, CacheStats, SetAssociativeCache
from repro.mem.hierarchy import BatchResult, MemorySystem
from repro.mem.intervals import IntervalTable
from repro.mem.partition import (
    OWNER_SHARED,
    OwnerRegistry,
    OwnerResolver,
    PartitionMode,
    SetPartition,
    SetPartitionMap,
    WayPartitionMap,
)
from repro.mem.trace import AccessBatch

__all__ = [
    "AccessBatch",
    "AddressSpace",
    "BatchResult",
    "CacheGeometry",
    "CacheStats",
    "IntervalTable",
    "MemoryMap",
    "MemorySystem",
    "OWNER_SHARED",
    "OwnerRegistry",
    "OwnerResolver",
    "PartitionMode",
    "Region",
    "RegionKind",
    "SetAssociativeCache",
    "SetPartition",
    "SetPartitionMap",
    "WayPartitionMap",
]
