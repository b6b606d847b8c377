"""Tests for the memory-hierarchy walker and DRAM/bus models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryModelError
from repro.mem.bus import BusConfig, SharedBus
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig, MemorySystem
from repro.mem.memory import DramConfig, MainMemory
from repro.mem.partition import PartitionMode
from repro.mem.trace import AccessBatch


def small_config(**kwargs):
    defaults = dict(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=64),
        l2_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
    )
    defaults.update(kwargs)
    return HierarchyConfig(**defaults)


def test_line_size_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        HierarchyConfig(
            l1_geometry=CacheGeometry(sets=4, ways=2, line_size=32),
            l2_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
        )


def test_l1_filters_repeat_accesses():
    mem = MemorySystem(1, small_config())
    batch = AccessBatch.from_addresses([0, 0, 0, 4, 8], instructions=10)
    result = mem.execute_batch(0, task_owner=1, batch=batch, now=0)
    assert result.accesses == 5
    assert result.l1_misses == 1
    assert result.l2_accesses == 1
    assert result.l2_misses == 1


def test_second_batch_hits_l1():
    mem = MemorySystem(1, small_config())
    batch = AccessBatch.from_addresses([0, 4], instructions=4)
    mem.execute_batch(0, 1, batch, now=0)
    result = mem.execute_batch(0, 1, batch, now=100)
    assert result.l1_misses == 0 and result.l2_accesses == 0


def test_cycles_include_issue_and_stalls():
    config = small_config(issue_cpi=1.0, l2_hit_cycles=10)
    mem = MemorySystem(1, config)
    batch = AccessBatch.from_addresses([0], instructions=100)
    result = mem.execute_batch(0, 1, batch, now=0)
    # 100 issue + 10 L2 + DRAM + bus transfer cycles.
    assert result.cycles >= 110
    assert result.dram_lines == 1


def test_write_validate_skips_l2_demand_miss():
    mem = MemorySystem(1, small_config())
    full_line_write = AccessBatch.from_addresses(
        np.arange(16) * 4, writes=True, instructions=16
    )
    result = mem.execute_batch(0, 1, full_line_write, now=0)
    assert result.store_fills == 1
    assert result.l2_misses == 0
    assert result.dram_lines == 0
    # The line is present in the L2 afterwards (communication point).
    mem.sync_state()
    assert mem.l2.contains(0)


def test_partial_write_still_fetches():
    mem = MemorySystem(1, small_config())
    partial = AccessBatch.from_addresses([0, 4], writes=True, instructions=2)
    result = mem.execute_batch(0, 1, partial, now=0)
    assert result.store_fills == 0
    assert result.l2_misses == 1


def test_per_owner_attribution_via_interval_table():
    mem = MemorySystem(1, small_config())
    mem.resolver.intervals.add(0, 1024, owner=5)
    batch = AccessBatch.from_addresses([0, 2048], instructions=4)
    mem.execute_batch(0, task_owner=1, batch=batch, now=0)
    assert mem.l2_stats.per_owner[5].accesses == 1
    assert mem.l2_stats.per_owner[1].accesses == 1


def test_set_partitioned_mode_translates():
    mem = MemorySystem(
        1, small_config(), mode=PartitionMode.SET_PARTITIONED
    )
    mem.set_map.assign(owner=1, base=0, n_sets=2)
    # Two lines with different natural indices fold into the partition.
    batch = AccessBatch.from_addresses([0, 64 * 4], instructions=4)
    mem.execute_batch(0, 1, batch, now=0)
    mem.sync_state()
    contents = [mem.l2.set_contents(i) for i in range(16)]
    used_sets = [i for i, c in enumerate(contents) if c]
    assert used_sets == [0]  # both lines: natural idx 0 and 4 -> set 0


def test_way_partitioned_mode_runs():
    mem = MemorySystem(
        1, small_config(), mode=PartitionMode.WAY_PARTITIONED
    )
    mem.way_map.assign(owner=1, ways=(0,))
    batch = AccessBatch.from_addresses([0, 64, 128], instructions=6)
    result = mem.execute_batch(0, 1, batch, now=0)
    assert result.l2_misses == 3


def test_invalid_cpu_rejected():
    mem = MemorySystem(1, small_config())
    with pytest.raises(MemoryModelError):
        mem.execute_batch(3, 1, AccessBatch.empty(), now=0)


def test_reset_stats_keeps_contents():
    mem = MemorySystem(1, small_config())
    mem.execute_batch(0, 1, AccessBatch.from_addresses([0], instructions=1), 0)
    mem.reset_stats()
    assert mem.l2_stats.total.accesses == 0
    result = mem.execute_batch(
        0, 1, AccessBatch.from_addresses([0], instructions=1), 10
    )
    assert result.l1_misses == 0  # still cached


def test_dram_bank_conflicts():
    memory = MainMemory(DramConfig(access_cycles=10, n_banks=2,
                                   bank_busy_cycles=20, bank_penalty_cycles=5))
    first = memory.access(0, False, now=0)
    second = memory.access(2, False, now=1)  # same bank (0), still busy
    assert first == 10
    assert second == 15
    assert memory.traffic.bank_conflicts == 1
    assert memory.traffic.line_reads == 2


def test_bus_no_self_contention():
    bus = SharedBus(BusConfig(transfer_cycles=4), n_cpus=2)
    solo = bus.price_transfers(0, 1000, now=0)
    assert solo == 4000  # no other demand -> no surcharge
    # CPU 1 now sees CPU 0's demand.
    loaded = bus.price_transfers(1, 1000, now=1)
    assert loaded > 4000


def test_bus_demand_decays():
    bus = SharedBus(BusConfig(transfer_cycles=4, decay_cycles=100), n_cpus=2)
    bus.price_transfers(0, 1000, now=0)
    soon = bus.price_transfers(1, 10, now=1)
    later_bus = SharedBus(BusConfig(transfer_cycles=4, decay_cycles=100), n_cpus=2)
    later_bus.price_transfers(0, 1000, now=0)
    later = later_bus.price_transfers(1, 10, now=10_000)
    assert later < soon
