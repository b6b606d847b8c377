"""Tests for the address-pattern construction kit."""

import random
import re
import sys
import threading

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.exp import clear_caches, run_scenario
from repro.exp.smoke import build_grid
from repro.mem.address import Region, RegionKind
from repro.mem.trace import AccessBatch
from repro.patterns import memo
from repro.patterns import (
    block2d,
    gather_blocks,
    loop_code,
    ring,
    stencil,
    stream,
    table_lookup,
    zipf_indices,
)


def region(size=4096, base=0x1000, kind=RegionKind.HEAP):
    return Region("r", base=base, size=size, kind=kind)


def test_stream_dense():
    batch = stream(region(), offset=0, nbytes=64, elem=4)
    assert batch.n_accesses == 16
    assert batch.addrs[0] == 0x1000
    assert batch.addrs[-1] == 0x1000 + 60
    assert not batch.writes.any()


def test_stream_strided_and_write():
    batch = stream(region(), offset=128, nbytes=256, elem=4, stride=64,
                   write=True)
    assert batch.n_accesses == 4
    assert (np.diff(batch.addrs) == 64).all()
    assert batch.writes.all()


def test_stream_bounds_checked():
    with pytest.raises(MemoryModelError):
        stream(region(size=128), offset=64, nbytes=128)
    with pytest.raises(MemoryModelError):
        stream(region(), offset=-4)


def test_ring_wraps():
    fifo_region = region(size=256)
    batch = ring(fifo_region, head=192, nbytes=128, elem=4)
    assert batch.n_accesses == 32
    assert batch.addrs.max() < fifo_region.end
    assert batch.addrs.min() >= fifo_region.base
    # Wrap: both the tail and the head of the region are touched.
    assert (batch.addrs >= fifo_region.base + 192).any()
    assert (batch.addrs < fifo_region.base + 64).any()


def test_ring_oversize_rejected():
    with pytest.raises(MemoryModelError):
        ring(region(size=128), head=0, nbytes=256)


@pytest.mark.parametrize("nbytes, elem", [(-4, 4), (64, 0), (64, -4)])
def test_ring_rejects_negative_size_and_nonpositive_elem(nbytes, elem):
    with pytest.raises(MemoryModelError):
        ring(region(size=128), head=0, nbytes=nbytes, elem=elem)


def test_loop_code_cycles_loop_body():
    code = region(size=8192, kind=RegionKind.CODE)
    batch = loop_code(code, loop_offset=0, loop_bytes=256, n_instructions=64,
                      bytes_per_instr=16)
    assert batch.instructions == 64
    assert batch.n_accesses == 64
    assert batch.addrs.max() < code.base + 256
    assert len(np.unique(batch.addrs)) == 16  # 256 / 16


def test_loop_code_bounds():
    code = region(size=512, kind=RegionKind.CODE)
    with pytest.raises(MemoryModelError):
        loop_code(code, loop_offset=0, loop_bytes=1024, n_instructions=8)
    assert loop_code(code, 0, 256, 0).n_accesses == 0


def test_block2d_rowmajor():
    batch = block2d(region(), row_stride=64, x0=2, y0=1, width=4, height=2,
                    elem=1)
    expected = [0x1000 + 64 + 2 + dx for dx in range(4)]
    expected += [0x1000 + 128 + 2 + dx for dx in range(4)]
    assert batch.addrs.tolist() == expected


def test_block2d_passes_repeat():
    one = block2d(region(), 64, 0, 0, 4, 4, passes=1)
    two = block2d(region(), 64, 0, 0, 4, 4, passes=2)
    assert two.n_accesses == 2 * one.n_accesses


def test_block2d_bounds():
    with pytest.raises(MemoryModelError):
        block2d(region(size=128), row_stride=64, x0=0, y0=1, width=65,
                height=1)
    with pytest.raises(MemoryModelError):
        block2d(region(), 64, 0, 0, 0, 4)


def test_gather_blocks_concatenates():
    batch = gather_blocks(region(), 64, [(0, 0), (8, 8)], 4, 4)
    assert batch.n_accesses == 32
    assert gather_blocks(region(), 64, [], 4, 4).n_accesses == 0


@pytest.mark.parametrize("seed", range(5))
def test_gather_blocks_equals_per_block_concat(seed):
    rng = np.random.default_rng(seed)
    frame = region(size=352 * 288)
    xs = rng.integers(0, 352 - 17, size=22)
    ys = rng.integers(0, 288 - 17, size=22)
    positions = list(zip(xs, ys))
    write = bool(seed % 2)
    batch = gather_blocks(frame, 352, positions, 17, 17, elem=1, write=write)
    expected = AccessBatch.concat([
        block2d(frame, 352, x, y, 17, 17, elem=1, write=write)
        for x, y in positions
    ])
    assert batch.addrs.tolist() == expected.addrs.tolist()
    assert batch.writes.tolist() == expected.writes.tolist()
    assert batch.instructions == expected.instructions


def test_gather_blocks_names_the_first_block_outside():
    frame = region(size=64 * 32)
    positions = [(0, 0), (5, 30), (-1, 0)]
    with pytest.raises(MemoryModelError) as per_block:
        block2d(frame, 64, 5, 30, 8, 8)
    with pytest.raises(MemoryModelError,
                       match=re.escape(str(per_block.value))):
        gather_blocks(frame, 64, positions, 8, 8)
    with pytest.raises(MemoryModelError, match="dimensions"):
        gather_blocks(frame, 64, positions, 0, 8)


def test_stencil_traffic_and_bounds():
    src = region(size=64 * 32)
    dst = Region("dst", base=0x9000, size=64 * 32, kind=RegionKind.BSS)
    batch = stencil(src, dst, row_stride=64, width=16, rows=4, taps_x=3,
                    taps_y=3, elem=1)
    # Per output row: 3 source rows of 16 reads + 16 writes.
    assert batch.n_accesses == 4 * (3 * 16 + 16)
    assert batch.instructions == 4 * 16 * 9
    assert batch.writes.sum() == 4 * 16
    with pytest.raises(MemoryModelError):
        stencil(src, dst, row_stride=64, width=16, rows=31, taps_y=3)


def test_stencil_checks_the_last_byte_of_rows_wider_than_stride():
    # Rows of 16 bytes on an 8-byte stride: 6 output rows read up to
    # offset 71 of the source and write up to offset 55 of the target.
    small_src = region(size=64)
    small_dst = Region("dst", base=0x9000, size=48, kind=RegionKind.BSS)
    wide_src = region(size=72)
    wide_dst = Region("dst", base=0x9000, size=56, kind=RegionKind.BSS)
    with pytest.raises(MemoryModelError, match="reads"):
        stencil(small_src, wide_dst, row_stride=8, width=16, rows=6)
    with pytest.raises(MemoryModelError, match="writes"):
        stencil(wide_src, small_dst, row_stride=8, width=16, rows=6)
    with pytest.raises(MemoryModelError, match="negative row"):
        stencil(wide_src, wide_dst, row_stride=8, width=8, rows=2, y0=-1)
    batch = stencil(wide_src, wide_dst, row_stride=8, width=16, rows=6)
    assert batch.addrs[~batch.writes].max() == wide_src.base + 71
    assert batch.addrs[batch.writes].max() == wide_dst.base + 55


def test_table_lookup_within_table():
    rng = np.random.default_rng(0)
    table_region = region(size=1024, kind=RegionKind.BSS)
    batch = table_lookup(table_region, rng, n=500, entry_bytes=8,
                         table_bytes=512)
    assert batch.n_accesses == 500
    assert batch.addrs.max() < table_region.base + 512
    assert (batch.addrs - table_region.base) .min() >= 0


def test_table_lookup_zipf_is_skewed():
    rng = np.random.default_rng(1)
    idx = zipf_indices(rng, 5000, table_entries=256, skew=1.3)
    head_share = (idx < 26).mean()
    assert head_share > 0.4  # hot head
    assert idx.max() < 256 and idx.min() >= 0


def test_table_lookup_uniform_spreads():
    rng = np.random.default_rng(2)
    table_region = region(size=4096, kind=RegionKind.BSS)
    batch = table_lookup(table_region, rng, n=4000, entry_bytes=8,
                         uniform=True)
    offsets = (batch.addrs - table_region.base) // 8
    head_share = (offsets < 51).mean()
    assert head_share < 0.2


def test_zipf_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(MemoryModelError):
        zipf_indices(rng, 10, table_entries=0)
    assert zipf_indices(rng, 0, 16).shape == (0,)


# -- the pattern table ------------------------------------------------------


@pytest.fixture
def empty_table():
    clear_caches()
    yield
    clear_caches()


def test_memo_batches_are_read_only(empty_table):
    batch = stream(region(), 0, 64)
    with pytest.raises(ValueError):
        batch.addrs[0] = 0
    with pytest.raises(ValueError):
        batch.writes[0] = True
    tile = block2d(region(), 64, 0, 0, 4, 4)
    assert not tile.addrs.flags.writeable


def test_memo_equal_calls_share_one_batch(empty_table):
    r = region()
    assert stream(r, 0, 64) is stream(r, offset=0, nbytes=64)
    assert loop_code(r, 0, 256, 64) is loop_code(r, 0, 256, 64)
    assert block2d(r, 64, 0, 0, 4, 4) is block2d(r, 64, 0, 0, 4, 4)
    # Only base and size enter the key, not the region's name.
    renamed = Region("other", base=r.base, size=r.size, kind=r.kind)
    assert stream(renamed, 0, 64) is stream(r, 0, 64)
    assert stream(r, 0, 64) is not stream(region(base=0x2000), 0, 64)
    info = memo.info()
    assert (info.lookups, info.hits, info.entries) == (10, 6, 4)


def test_memo_int_and_float_arguments_do_not_alias(empty_table):
    r = region()
    assert type(stream(r, 0, 64, instructions=100).instructions) is int
    assert type(stream(r, 0, 64, instructions=100.0).instructions) is float
    # A float element size makes float stencil addresses, which the
    # batch rejects, whatever an equal int call left in the table.
    stencil(r, r, row_stride=64, width=32, rows=4, elem=2)
    with pytest.raises(MemoryModelError, match="integers"):
        stencil(r, r, row_stride=64, width=32, rows=4, elem=2.0)


def test_memo_holds_its_budget_and_evicts_least_recently_used(empty_table):
    mib = 1 << 20
    big = region(size=8 * mib)

    def chunk(index):
        # 128 Ki accesses: 1 MiB of addresses and 128 KiB of flags.
        return stream(big, index * mib, mib, elem=8)

    first, second, _third = chunk(0), chunk(1), chunk(2)
    assert memo.info().entries == 3
    assert chunk(0) is first  # now more recently used than the second
    chunk(3)  # a fourth chunk does not fit beside three
    info = memo.info()
    assert info.entries == 3
    assert info.bytes == 3 * (mib + mib // 8) <= memo.BUDGET_BYTES
    assert chunk(0) is first
    assert chunk(1) is not second
    # A batch larger than the whole budget is returned, not held.
    held = memo.info()
    oversize = stream(big, 0, 4 * mib, elem=8)
    assert not oversize.addrs.flags.writeable
    assert memo.info().entries == held.entries
    assert memo.info().bytes == held.bytes <= memo.BUDGET_BYTES


def test_memo_does_not_cache_a_call_that_raises(empty_table):
    r = region(size=128)
    with pytest.raises(MemoryModelError):
        stream(r, 64, 128)
    with pytest.raises(MemoryModelError):
        stencil(r, r, row_stride=8, width=16, rows=14)
    info = memo.info()
    assert info.lookups == 2
    assert info.entries == 0 and info.bytes == 0


def test_clear_caches_empties_the_table(empty_table):
    stream(region(), 0, 64)
    stream(region(), 0, 64)
    assert memo.info().entries == 1
    clear_caches()
    assert memo.info() == memo.MemoInfo(lookups=0, hits=0, entries=0,
                                        bytes=0)


def test_memo_threads_build_equal_batches_and_consistent_bytes(empty_table):
    r = region(size=64 * 1024)
    calls = [(offset, nbytes) for offset in range(0, 2048, 256)
             for nbytes in (64, 512, 4096)]
    results = [None] * 8
    errors = []

    def build(slot):
        try:
            order = list(calls)
            random.Random(slot).shuffle(order)
            built = {}
            for _ in range(20):
                for offset, nbytes in order:
                    built[offset, nbytes] = stream(r, offset, nbytes)
            results[slot] = built
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    reference = results[0]
    for built in results[1:]:
        for key, batch in built.items():
            assert np.array_equal(batch.addrs, reference[key].addrs)
            assert np.array_equal(batch.writes, reference[key].writes)
    info = memo.info()
    assert info.entries == len(calls)
    assert info.lookups == 8 * 20 * len(calls)
    assert info.bytes == sum(
        batch.addrs.nbytes + batch.writes.nbytes
        for batch in reference.values()
    )


def test_memo_hit_ratio_of_a_pipeline_scenario(empty_table):
    # Profiling and both simulations replay the same four task
    # programs: almost every batch comes from the table.  A key that
    # misses on equal calls fails this count.
    run_scenario(build_grid()[0], cache=False)
    info = memo.info()
    assert info.lookups > 0
    assert info.hits / info.lookups >= 0.9
