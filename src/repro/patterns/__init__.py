"""Address-pattern construction kit.

Task programs describe their memory behaviour as compositions of a small
number of archetypal access patterns, each returning an
:class:`~repro.mem.trace.AccessBatch`:

- :func:`~repro.patterns.streams.stream` -- sequential/strided streaming
  (FIFO payloads, raster scans, frame writes).
- :func:`~repro.patterns.streams.ring` -- streaming through a ring
  buffer with wrap-around (FIFO data).
- :func:`~repro.patterns.blocks.block2d` -- 2-D tile walks (8x8 IDCT
  blocks, macroblocks).
- :func:`~repro.patterns.stencil.stencil` -- neighbourhood convolutions
  (Gaussian low-pass, Sobel operators, non-maximum suppression).
- :func:`~repro.patterns.tables.table_lookup` -- data-dependent lookups
  (Huffman/VLD decoding, quantisation tables), with uniform or Zipf
  index distributions.
- :func:`~repro.patterns.streams.loop_code` -- instruction fetch of a
  loop body walking a code region.

The patterns are what makes the synthetic workloads *address-accurate*
stand-ins for the real binaries (see DESIGN.md, substitution table).

``stream``, ``loop_code``, ``block2d`` and ``stencil`` are pure, so
they are memoised in one process-wide table (:mod:`repro.patterns.memo`,
at most 4 MiB of arrays, emptied by :func:`repro.exp.clear_caches`):
equal calls return the same batch, with read-only ``addrs`` and
``writes``.  Build a new array rather than write into one.  ``ring``
is memoised as part of each FIFO transfer.  ``table_lookup`` draws
from the task's RNG and ``gather_blocks`` takes positions its callers
draw per op, so both build on every call.
"""

from repro.patterns.blocks import block2d, gather_blocks
from repro.patterns.stencil import stencil
from repro.patterns.streams import loop_code, ring, stream
from repro.patterns.tables import table_lookup, zipf_indices

__all__ = [
    "block2d",
    "gather_blocks",
    "loop_code",
    "ring",
    "stencil",
    "stream",
    "table_lookup",
    "zipf_indices",
]
