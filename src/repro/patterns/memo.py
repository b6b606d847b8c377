"""One process-wide table of pure traffic batches.

A paper session replays the same task programs in many platform runs
(one per profiled partition size, then the shared and the partitioned
simulation), and every run repeats its loop bodies per token.  The
pure builders -- :func:`~repro.patterns.streams.stream`,
:func:`~repro.patterns.streams.loop_code`,
:func:`~repro.patterns.stencil.stencil`,
:func:`~repro.patterns.blocks.block2d`, each FIFO transfer and each
context switch -- therefore go through :func:`cached`, which builds a
distinct batch once per process:

- The key is the builder, each region argument's ``(base, size)`` and
  every other argument together with its type, so ``stream(r, 0,
  512.0)`` never aliases ``stream(r, 0, 512)``.  Region names do not
  enter the key: a batch depends on addresses alone.  :func:`call_key`
  builds it; :func:`cached_keyed` takes a key built ahead, so a caller
  whose calls share most of their arguments (a FIFO channel's
  transfers) builds that prefix once.
- The table holds at most :data:`BUDGET_BYTES` of arrays and evicts the
  least recently used batches past that.  Per-entry bookkeeping (the
  key, the batch object) is not counted: a few hundred bytes an entry.
  Nor are the line runs the compiled engine keeps on a walked batch
  (:class:`~repro.mem.trace.AccessBatch`), so this table needs to know
  nothing of the memory system.  They are small: at the end of a
  perfbench session at seed 20050307 the entries held 111 KB of runs
  on ``cold_paper`` (438 entries holding 3.9 MiB of arrays), 146 KB on
  ``warm_paper`` and 7 KB on ``warm_grid``.  The compiled engine's
  fold of each L1 set's revisits (:mod:`repro.mem.hierarchy`) leaves
  them as they were: on ``cold_paper`` the batches walked straight
  from this table fold nothing.
- A builder that raises leaves no entry.
- Every batch comes back with read-only ``addrs`` and ``writes``:
  callers share it, so build a new array rather than write into one.
- Lookups, inserts and evictions take a lock:
  :class:`~repro.exp.runner.AsyncBackend` runs scenarios on threads of
  one process.

Batches drawn from a task's RNG stream (table lookups, motion-vector
gathers) are not pure and never come through here.
:func:`repro.exp.clear_caches` empties the table.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, NamedTuple

from repro.mem.address import Region
from repro.mem.trace import AccessBatch

__all__ = ["BUDGET_BYTES", "STREAM_BUDGET_BYTES", "MemoInfo", "cached",
           "cached_keyed", "call_key", "clear", "info"]

#: Array bytes (addresses plus write flags) the table holds at most.
BUDGET_BYTES = 4 << 20

#: Bytes the op streams that platform runs record keep alive at most,
#: in the whole process (:class:`repro.rtos.task.OpStreams`).  Past it
#: the least recently replayed streams are evicted, except those the
#: keeping run replayed; a stream that alone passes it is not kept, so
#: its task steps its program in every run.
#: Read each time a stream is recorded or kept, so a patched value (0
#: turns replay off) holds from the next run on.
STREAM_BUDGET_BYTES = 8 << 20


class MemoInfo(NamedTuple):
    """Counters of the table since it was last cleared."""

    lookups: int
    hits: int
    entries: int
    bytes: int


def call_key(builder: Callable[..., AccessBatch], *args) -> tuple:
    """The table's key for ``builder(*args)``: the builder, then each
    region argument's ``(Region, base, size)`` and every other argument
    as ``(type, value)``.  A prefix of the arguments gives a prefix of
    the key."""
    return (builder,) + tuple([
        (Region, arg.base, arg.size) if isinstance(arg, Region)
        else (type(arg), arg)
        for arg in args
    ])


def _nbytes(batch: AccessBatch) -> int:
    return batch.addrs.nbytes + batch.writes.nbytes


class _BatchTable:
    """Least-recently-used map from call keys to read-only batches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._batches: "OrderedDict[tuple, AccessBatch]" = OrderedDict()
        self._bytes = 0
        self._lookups = 0
        self._hits = 0

    def cached(self, builder: Callable[..., AccessBatch], *args) -> AccessBatch:
        """``builder(*args)``, built once per distinct key."""
        return self.cached_keyed(call_key(builder, *args), builder, *args)

    def cached_keyed(self, key: tuple, builder: Callable[..., AccessBatch],
                     *args) -> AccessBatch:
        """``builder(*args)`` under ``key``, which must equal
        ``call_key(builder, *args)``: a caller that repeats most of a
        call builds that part of the key once."""
        with self._lock:
            self._lookups += 1
            batch = self._batches.get(key)
            if batch is not None:
                self._hits += 1
                self._batches.move_to_end(key)
                return batch
        # Build outside the lock, so that threads build in parallel; a
        # builder that raises inserts nothing.
        batch = builder(*args)
        batch.addrs.flags.writeable = False
        batch.writes.flags.writeable = False
        size = _nbytes(batch)
        with self._lock:
            held = self._batches.get(key)
            if held is not None:
                # Another thread built the same batch meanwhile.
                return held
            if size <= BUDGET_BYTES:
                self._batches[key] = batch
                self._bytes += size
                while self._bytes > BUDGET_BYTES:
                    _, evicted = self._batches.popitem(last=False)
                    self._bytes -= _nbytes(evicted)
        return batch

    def info(self) -> MemoInfo:
        """Lookups, hits, entries and array bytes held."""
        with self._lock:
            return MemoInfo(self._lookups, self._hits, len(self._batches),
                            self._bytes)

    def clear(self) -> None:
        """Drop every batch and reset the counters."""
        with self._lock:
            self._batches.clear()
            self._bytes = self._lookups = self._hits = 0


_TABLE = _BatchTable()
cached = _TABLE.cached
cached_keyed = _TABLE.cached_keyed
info = _TABLE.info
clear = _TABLE.clear
