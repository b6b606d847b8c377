"""Tests for access batches and run-length coalescing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryModelError
from repro.mem.trace import AccessBatch, coalesce_runs


def test_from_addresses_defaults():
    batch = AccessBatch.from_addresses([0, 4, 8])
    assert batch.n_accesses == 3
    assert not batch.writes.any()
    assert batch.instructions == int(np.ceil(3 / AccessBatch.MEM_REF_FRACTION))


def test_from_addresses_scalar_write_flag():
    batch = AccessBatch.from_addresses([0, 4], writes=True)
    assert batch.writes.all()


def test_concat_sums_instructions():
    a = AccessBatch.from_addresses([0], instructions=10)
    b = AccessBatch.from_addresses([64], instructions=20)
    merged = AccessBatch.concat([a, b])
    assert merged.instructions == 30
    assert merged.n_accesses == 2


def test_empty_batch():
    batch = AccessBatch.empty()
    assert batch.n_accesses == 0 and batch.instructions == 0
    lines, counts, wany, wall = batch.runs(6)
    assert lines.shape == (0,)
    assert counts.shape == (0,) and wany.shape == (0,) and wall.shape == (0,)


def test_shape_mismatch_rejected():
    with pytest.raises(MemoryModelError):
        AccessBatch(
            addrs=np.zeros(3, dtype=np.int64),
            writes=np.zeros(2, dtype=bool),
            instructions=1,
        )


def test_non_integer_addresses_rejected():
    """Casting float addresses would silently truncate them."""
    with pytest.raises(MemoryModelError):
        AccessBatch(
            addrs=np.arange(4) * 64.0,
            writes=np.zeros(4, dtype=bool),
            instructions=1,
        )


def test_runs_basic():
    # 64-byte lines: addresses 0..60 are line 0; 64 is line 1.
    addrs = np.array([0, 4, 8, 64, 68, 0], dtype=np.int64)
    writes = np.array([False, True, False, False, False, False])
    lines, counts, write_any, write_all = coalesce_runs(addrs, writes, 6)
    assert lines.tolist() == [0, 1, 0]
    assert counts.tolist() == [3, 2, 1]
    assert write_any.tolist() == [True, False, False]
    assert write_all.tolist() == [False, False, False]


def test_runs_write_all_detection():
    addrs = np.arange(16, dtype=np.int64) * 4  # one full line, 16 words
    writes = np.ones(16, dtype=bool)
    lines, counts, write_any, write_all = coalesce_runs(addrs, writes, 6)
    assert lines.tolist() == [0]
    assert counts.tolist() == [16]
    assert write_any.tolist() == [True]
    assert write_all.tolist() == [True]


@given(
    st.lists(st.tuples(st.integers(0, 1023), st.booleans()),
             min_size=1, max_size=200)
)
def test_property_runs_match_naive_rle(pairs):
    """Vectorised RLE equals a straightforward Python loop."""
    addrs = np.array([a for a, _w in pairs], dtype=np.int64)
    writes = np.array([w for _a, w in pairs], dtype=bool)
    lines, counts, write_any, write_all = coalesce_runs(addrs, writes, 6)
    naive = []
    for addr, write in pairs:
        line = addr >> 6
        if naive and naive[-1][0] == line:
            naive[-1][1] += 1
            naive[-1][2] = naive[-1][2] or write
            naive[-1][3] = naive[-1][3] and write
        else:
            naive.append([line, 1, write, write])
    assert lines.tolist() == [n[0] for n in naive]
    assert counts.tolist() == [n[1] for n in naive]
    assert write_any.tolist() == [n[2] for n in naive]
    assert write_all.tolist() == [n[3] for n in naive]
    assert int(counts.sum()) == len(pairs)


def test_from_addresses_accepts_zero_dim_write_array():
    """Regression: a 0-d numpy bool used to trip the shape check."""
    batch = AccessBatch.from_addresses([0, 4, 8], writes=np.asarray(True))
    assert batch.writes.all()
    batch = AccessBatch.from_addresses([0, 4], writes=np.bool_(False))
    assert not batch.writes.any()
