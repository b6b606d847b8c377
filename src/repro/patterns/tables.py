"""Data-dependent table-lookup patterns (VLD / Huffman decoding).

Variable-length decoding walks code tables with data-dependent indices;
the *distribution* of indices is what determines the cache working set.
Short, frequent codes concentrate at the hot end of the table -- a Zipf
distribution is the standard stand-in.  The RNG stream is owned by the
calling task, so runs are reproducible.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import MemoryModelError
from repro.mem.address import Region
from repro.mem.trace import AccessBatch

__all__ = ["table_lookup", "zipf_indices"]


def zipf_indices(
    rng: np.random.Generator, n: int, table_entries: int, skew: float = 1.2
) -> np.ndarray:
    """``n`` Zipf-ish indices in ``[0, table_entries)``.

    Uses the inverse-CDF of a truncated power law, which unlike
    ``rng.zipf`` cannot overflow the table bound.  For ``u =
    rng.random(n)`` and ``p = 1 - skew``, the index is ``floor(
    table_entries ** u) - 1`` when ``skew == 1`` (log-uniform) and
    ``floor((u * (table_entries ** p - 1) + 1) ** (1 / p)) - 1``
    otherwise, clipped to the table.  The arrays are updated in place,
    and the results equal that closed form bit for bit.
    """
    if table_entries <= 0:
        raise MemoryModelError("table_entries must be positive")
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    u = rng.random(n)
    if skew == 1.0:
        np.power(table_entries, u, out=u)
    else:
        power = 1.0 - skew
        u *= table_entries ** power - 1.0
        u += 1.0
        # The operator, not np.power: it takes the fast paths numpy
        # gives ``**`` for some scalar exponents (0.5 is a sqrt).
        u **= 1.0 / power
    np.floor(u, out=u)
    idx = u.astype(np.int64)
    idx -= 1
    np.maximum(idx, 0, out=idx)
    return np.minimum(idx, table_entries - 1, out=idx)


def table_lookup(
    region: Region,
    rng: np.random.Generator,
    n: int,
    entry_bytes: int = 8,
    table_bytes: Optional[int] = None,
    offset: int = 0,
    skew: float = 1.2,
    uniform: bool = False,
    instructions: Optional[int] = None,
) -> AccessBatch:
    """``n`` data-dependent reads of a lookup table inside ``region``.

    ``skew`` shapes the Zipf distribution (higher = hotter head);
    ``uniform=True`` spreads lookups evenly (worst case working set).
    """
    if table_bytes is None:
        table_bytes = region.size - offset
    if offset < 0 or table_bytes <= 0 or offset + table_bytes > region.size:
        raise MemoryModelError(
            f"table [{offset}, {offset + table_bytes}) outside {region.name!r}"
        )
    entries = max(1, table_bytes // entry_bytes)
    if uniform:
        idx = rng.integers(0, entries, size=n)
    else:
        idx = zipf_indices(rng, n, entries, skew=skew)
    idx *= entry_bytes
    idx += region.base + offset
    if instructions is None:
        instructions = math.ceil(idx.shape[0] / AccessBatch.MEM_REF_FRACTION)
    return AccessBatch(addrs=idx, writes=np.zeros(idx.shape[0], dtype=bool),
                       instructions=instructions)
