"""Run-time bounded FIFO channels.

A :class:`FifoChannel` owns a ring buffer region in shared memory plus a
64-byte administration block inside the RTOS data region (read/write
pointers, token count -- the structures the operating system maintains
for YAPI FIFOs).  Reading or writing tokens therefore produces two kinds
of memory traffic, both of which the paper's partitioning must cover:

- payload accesses in the FIFO's own region, which the interval table
  resolves to the *FIFO's* owner id, and
- administration accesses in ``rt.data``, resolved to the RTOS owner.

One transfer is one batch: the administration-block update followed by
the payload.  It depends only on the buffer, the admin block, the ring
pointer, the byte count and the direction, so it is memoised
(:mod:`repro.patterns.memo`) and shared read-only by every transfer
with the same pointers -- a channel cycles through a handful of them.

The channel itself enforces KPN synchronisation state (token counts);
blocking/waking of tasks is orchestrated by the CPU runner, which parks
blocked tasks on ``waiting_readers`` / ``waiting_writers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import NetworkError
from repro.kpn.graph import FifoSpec
from repro.mem.address import Region
from repro.mem.trace import AccessBatch
from repro.patterns.memo import cached
from repro.patterns.streams import ring

__all__ = ["FifoChannel", "FifoStats"]

#: Bytes of the per-FIFO administration block in rt.data.
ADMIN_BLOCK_BYTES = 64

#: Payload element size (a 32-bit word per access).
PAYLOAD_ELEM_BYTES = 4

#: Admin block traffic of one transfer: read the rd/wr pointers, the
#: count and the limit, then write back two words.
_ADMIN_OFFSETS = np.array([0, 8, 16, 24, 0, 16], dtype=np.int64)
_ADMIN_WRITES = np.array([False, False, False, False, True, True])
_ADMIN_INSTRUCTIONS = 24


def _transfer_batch(buffer: Region, admin_base: int, head: int,
                    nbytes: int, write: bool) -> AccessBatch:
    """Admin-block update, then ``nbytes`` of payload from ``head``."""
    payload = ring(buffer, head=head, nbytes=nbytes,
                   elem=PAYLOAD_ELEM_BYTES, write=write)
    return AccessBatch(
        addrs=np.concatenate((admin_base + _ADMIN_OFFSETS, payload.addrs)),
        writes=np.concatenate((_ADMIN_WRITES, payload.writes)),
        instructions=_ADMIN_INSTRUCTIONS + payload.instructions,
    )


@dataclass
class FifoStats:
    """Observable behaviour of one FIFO channel."""

    tokens_produced: int = 0
    tokens_consumed: int = 0
    blocked_reads: int = 0
    blocked_writes: int = 0
    max_occupancy: int = 0


class FifoChannel:
    """Bounded FIFO with address-accurate token transfers."""

    def __init__(
        self,
        spec: FifoSpec,
        buffer_region: Region,
        admin_region: Region,
        admin_offset: int,
    ):
        if buffer_region.size < spec.buffer_bytes:
            raise NetworkError(
                f"fifo {spec.name!r}: region {buffer_region.name!r} smaller "
                f"than the ring buffer"
            )
        if admin_offset + ADMIN_BLOCK_BYTES > admin_region.size:
            raise NetworkError(
                f"fifo {spec.name!r}: admin block outside {admin_region.name!r}"
            )
        self.spec = spec
        self.buffer_region = buffer_region
        self.admin_region = admin_region
        self.admin_offset = admin_offset
        self.tokens = 0
        self.read_ptr = 0
        self.write_ptr = 0
        self.stats = FifoStats()
        #: Tasks suspended on this channel (runner-managed).
        self.waiting_readers: List = []
        self.waiting_writers: List = []

    # -- state ---------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Capacity in tokens."""
        return self.spec.capacity_tokens

    @property
    def free_tokens(self) -> int:
        """Tokens that can still be written."""
        return self.capacity - self.tokens

    def can_read(self, n: int) -> bool:
        """True when ``n`` tokens are available."""
        return self.tokens >= n

    def can_write(self, n: int) -> bool:
        """True when there is space for ``n`` tokens."""
        return self.free_tokens >= n

    # -- traffic -----------------------------------------------------------

    def _transfer(self, head: int, n: int, write: bool) -> AccessBatch:
        return cached(_transfer_batch, self.buffer_region,
                      self.admin_region.base + self.admin_offset, head,
                      n * self.spec.token_bytes, write)

    def read_batch(self, n: int) -> AccessBatch:
        """Traffic of consuming ``n`` tokens (call only when readable)."""
        if not self.can_read(n):
            raise NetworkError(f"fifo {self.spec.name!r}: read of {n} underflows")
        return self._transfer(self.read_ptr, n, False)

    def write_batch(self, n: int) -> AccessBatch:
        """Traffic of producing ``n`` tokens (call only when writable)."""
        if not self.can_write(n):
            raise NetworkError(f"fifo {self.spec.name!r}: write of {n} overflows")
        return self._transfer(self.write_ptr, n, True)

    # -- commits -----------------------------------------------------------

    def commit_read(self, n: int) -> None:
        """Consume ``n`` tokens (state change only)."""
        if not self.can_read(n):
            raise NetworkError(f"fifo {self.spec.name!r}: read of {n} underflows")
        self.tokens -= n
        self.read_ptr = (
            self.read_ptr + n * self.spec.token_bytes
        ) % self.buffer_region.size
        self.stats.tokens_consumed += n

    def commit_write(self, n: int) -> None:
        """Produce ``n`` tokens (state change only)."""
        if not self.can_write(n):
            raise NetworkError(f"fifo {self.spec.name!r}: write of {n} overflows")
        self.tokens += n
        self.write_ptr = (
            self.write_ptr + n * self.spec.token_bytes
        ) % self.buffer_region.size
        self.stats.tokens_produced += n
        if self.tokens > self.stats.max_occupancy:
            self.stats.max_occupancy = self.tokens

    def __repr__(self) -> str:
        return (
            f"<FifoChannel {self.spec.name!r} {self.tokens}/{self.capacity} "
            f"tokens>"
        )
