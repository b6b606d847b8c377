"""2-D block (tile) access patterns.

These model the blocked data movement of transform coders: an 8x8 IDCT
reads a block row-wise several times (row pass, column pass), a motion
compensator gathers prediction blocks from arbitrary positions inside a
reference frame.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import MemoryModelError
from repro.mem.address import Region
from repro.mem.trace import AccessBatch
from repro.patterns.memo import cached

__all__ = ["block2d", "gather_blocks"]


def _tile_offsets(row_stride: int, width: int, height: int,
                  elem: int) -> np.ndarray:
    """Row-major byte offsets of a tile's elements from its origin."""
    if width <= 0 or height <= 0:
        raise MemoryModelError("block dimensions must be positive")
    cols = np.arange(width, dtype=np.int64) * elem
    rows = np.arange(height, dtype=np.int64) * row_stride
    return (rows[:, None] + cols[None, :]).ravel()


def _outside(region: Region, row_stride: int, x0, y0, width: int,
             height: int, elem: int):
    """Whether a ``width x height`` tile at ``(x0, y0)`` leaves the region
    (scalars or arrays of origins alike)."""
    last_byte = (y0 + height - 1) * row_stride + (x0 + width) * elem
    return (x0 < 0) | (y0 < 0) | (last_byte > region.size)


def _outside_error(region: Region, x0, y0, width: int,
                   height: int) -> MemoryModelError:
    return MemoryModelError(
        f"block ({x0},{y0},{width}x{height}) outside region {region.name!r}"
    )


def block2d(
    region: Region,
    row_stride: int,
    x0: int,
    y0: int,
    width: int,
    height: int,
    elem: int = 1,
    write: bool = False,
    passes: int = 1,
    instructions: Optional[int] = None,
) -> AccessBatch:
    """Row-major walk of a ``width x height`` tile at ``(x0, y0)``.

    ``row_stride`` is the byte distance between consecutive rows of the
    underlying 2-D array; ``elem`` the bytes touched per element.
    ``passes`` repeats the walk (e.g. separable transforms touch the
    block twice).  Memoised: the batch is shared and read-only (see
    :mod:`repro.patterns.memo`).
    """
    return cached(_block2d, region, row_stride, x0, y0, width, height,
                  elem, write, passes, instructions)


def _block2d(region, row_stride, x0, y0, width, height, elem, write,
             passes, instructions):
    tile = _tile_offsets(row_stride, width, height, elem)
    if _outside(region, row_stride, x0, y0, width, height, elem):
        raise _outside_error(region, x0, y0, width, height)
    tile = tile + (y0 * row_stride + x0 * elem)
    if passes > 1:
        tile = np.tile(tile, passes)
    addrs = region.base + tile
    return AccessBatch.from_addresses(addrs, writes=write, instructions=instructions)


def gather_blocks(
    region: Region,
    row_stride: int,
    positions: Iterable[Tuple[int, int]],
    width: int,
    height: int,
    elem: int = 1,
    write: bool = False,
) -> AccessBatch:
    """Fetch several tiles (motion-compensation style).

    ``positions`` is an iterable of ``(x, y)`` block origins -- for a
    motion compensator these are the motion-vector-displaced positions
    in the reference frame.  The result equals the concatenation of one
    :func:`block2d` per position, in order, built in one broadcast.
    Not memoised: motion compensators draw fresh positions per op.
    """
    positions = list(positions)
    if not positions:
        return AccessBatch.empty()
    tile = _tile_offsets(row_stride, width, height, elem)
    origins = np.asarray(positions, dtype=np.int64).reshape(-1, 2)
    xs, ys = origins[:, 0], origins[:, 1]
    outside = _outside(region, row_stride, xs, ys, width, height, elem)
    if outside.any():
        x0, y0 = positions[int(np.argmax(outside))]
        raise _outside_error(region, x0, y0, width, height)
    starts = ys * row_stride + xs * elem
    addrs = region.base + (starts[:, None] + tile[None, :]).ravel()
    per_block = int(np.ceil(tile.shape[0] / AccessBatch.MEM_REF_FRACTION))
    return AccessBatch.from_addresses(
        addrs, writes=write, instructions=per_block * len(positions)
    )
