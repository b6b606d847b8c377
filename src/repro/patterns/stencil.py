"""Neighbourhood (stencil) access patterns for image filters."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MemoryModelError
from repro.mem.address import Region
from repro.mem.trace import AccessBatch
from repro.patterns.memo import cached

__all__ = ["stencil"]


def stencil(
    src: Region,
    dst: Region,
    row_stride: int,
    width: int,
    rows: int,
    y0: int = 0,
    taps_x: int = 3,
    taps_y: int = 3,
    elem: int = 1,
    instructions: Optional[int] = None,
) -> AccessBatch:
    """A ``taps_x x taps_y`` convolution over ``rows`` image rows.

    For each output pixel the pattern reads the ``taps_y`` neighbouring
    rows (each read of ``taps_x`` consecutive elements) from ``src`` and
    writes one element to ``dst``.  Rows are processed in raster order,
    which gives the characteristic multi-row sliding working set of
    line-based filters (the Canny pipeline of the paper is line based).

    The source reads are emitted row-segment-wise rather than strictly
    per output pixel: each of the ``taps_y`` source rows is read once
    per output row (the ``taps_x`` horizontal re-reads of one element
    are register-allocated by any real compiler and would be guaranteed
    same-line hits anyway).  This keeps the batch compact while
    preserving the cache working set (``taps_y`` rows of ``width``
    elements), the per-line touch counts and the write traffic.  The
    instruction count still reflects the full ``taps_x * taps_y``
    multiply-accumulate work.

    Memoised: the batch is shared and read-only (see
    :mod:`repro.patterns.memo`).
    """
    return cached(_stencil, src, dst, row_stride, width, rows, y0, taps_x,
                  taps_y, elem, instructions)


def _stencil(src, dst, row_stride, width, rows, y0, taps_x, taps_y, elem,
             instructions):
    if width <= 0 or rows <= 0:
        raise MemoryModelError("stencil dimensions must be positive")
    if y0 < 0:
        raise MemoryModelError(f"stencil starts at negative row {y0}")
    # One past the last byte read (row y0 + rows - 1 + taps_y - 1) and
    # written (row y0 + rows - 1); a row may be narrower than its stride.
    row_bytes = width * elem
    read_end = (y0 + rows + taps_y - 2) * row_stride + row_bytes
    if read_end > src.size:
        raise MemoryModelError(
            f"stencil reads {read_end} bytes beyond region {src.name!r}"
        )
    if (y0 + rows - 1) * row_stride + row_bytes > dst.size:
        raise MemoryModelError(
            f"stencil writes beyond region {dst.name!r}"
        )
    addr_parts = []
    write_parts = []
    col_bytes = np.arange(width, dtype=np.int64) * elem
    for row in range(y0, y0 + rows):
        # Read the taps_y source rows feeding this output row.
        for tap in range(taps_y):
            row_base = (row + tap) * row_stride
            reads = src.base + row_base + col_bytes
            addr_parts.append(reads)
            write_parts.append(np.zeros(reads.shape, dtype=bool))
        writes = dst.base + row * row_stride + col_bytes
        addr_parts.append(writes)
        write_parts.append(np.ones(writes.shape, dtype=bool))
    addrs = np.concatenate(addr_parts)
    write_mask = np.concatenate(write_parts)
    if instructions is None:
        # The real kernel does taps_x * taps_y MACs per output pixel.
        instructions = int(rows * width * taps_x * taps_y)
    return AccessBatch(addrs=addrs, writes=write_mask, instructions=instructions)
