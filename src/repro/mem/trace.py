"""Memory-access batches and address-stream coalescing.

Task programs produce :class:`AccessBatch` objects: flat numpy arrays of
byte addresses plus write flags, together with the number of machine
instructions the batch represents (the simulator charges base CPI per
instruction and stall cycles per miss).

The cache walker consumes batches as *runs*: maximal stretches of
back-to-back accesses that touch the same cache line.  For streaming
multimedia traffic this coalesces roughly ``line_size / element_size``
accesses into one cache probe.  Coalescing is exact with respect to
hit/miss counting: within a run, the first access decides hit or miss
and the remaining ``n - 1`` accesses are guaranteed hits in the same
cache level.

The reference walk coalesces with :meth:`AccessBatch.runs`.  The
compiled engine coalesces the same way in C, once per read-only batch,
and then folds further: a run on the line that its L1 set last saw
earlier in the batch, with only lines of other sets between, hits in
slot 0 of that set, so its count joins the earlier run (the
observation behind trace stripping) unless it writes and that run does
not.  A read-only batch keeps those runs for later walks, and
:meth:`AccessBatch.runs_only` turns it into a batch of the runs alone,
which only the compiled engine walks: it has no addresses.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import MemoryModelError

__all__ = ["AccessBatch", "coalesce_runs"]

_ADDR_DTYPE = np.int64


@dataclass(frozen=True)
class AccessBatch:
    """An ordered sequence of memory references plus instruction count.

    Batches are values: nothing in the simulator writes into their
    arrays.  The pattern kit shares one batch between all equal calls,
    and it and :meth:`concat` hand out read-only ``addrs`` and
    ``writes`` (:mod:`repro.patterns.memo`).  To derive a batch, build
    new arrays (``concat``, ``np.tile``, arithmetic) rather than write
    into one.

    A batch whose ``addrs`` and ``writes`` are both read-only keeps the
    runs the compiled engine coalesced from it, so later walks skip
    coalescing: such a batch must never change, not even by a write
    through a writable base array.  The runs sit in a private slot,
    outside ``repr`` and equality, keyed by the line geometry; copies
    and pickles drop them.  A batch with a writable array is coalesced
    again on every walk.

    Attributes
    ----------
    addrs:
        Byte addresses, in program order: an integer array (any integer
        dtype) of addresses below ``2**63``; the memory system rejects
        negative addresses.
    writes:
        Boolean array, ``True`` where the reference is a store.
    instructions:
        Number of instructions this batch stands for: an integer in
        ``[0, 2**63)`` (any type ``operator.index`` takes, kept as a
        Python ``int``; a float raises).  Defaults (in the factories) to
        ``ceil(len(addrs) / mem_ref_fraction)`` so that a typical
        multimedia instruction mix of ~35 % memory references is
        preserved.
    """

    addrs: np.ndarray
    writes: np.ndarray
    instructions: int
    #: ``(key, runs, pointer, n_runs)`` of the compiled engine's last
    #: coalescing (:mod:`repro.mem.hierarchy`); set by :meth:`_keep_runs`.
    _runs: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: Fraction of instructions that reference memory, used by the
    #: factories when the caller does not give an instruction count.
    MEM_REF_FRACTION = 0.35

    def __post_init__(self) -> None:
        if self.addrs.dtype.kind not in "iu":
            # A dtype check, not a scan: the engines read integer line
            # addresses, and casting floats would silently truncate.
            raise MemoryModelError(
                f"addresses must be integers, got dtype {self.addrs.dtype}"
            )
        if self.addrs.shape != self.writes.shape:
            raise MemoryModelError("addrs and writes must have the same shape")
        if self.addrs.ndim != 1:
            raise MemoryModelError("AccessBatch arrays must be one-dimensional")
        dtype = self.addrs.dtype
        if (dtype.kind == "u" and dtype.itemsize == 8 and self.addrs.size
                and self.addrs.max() >= 2**63):
            # Only uint64 holds such an address: the compiled engine
            # reads addresses as int64.
            raise MemoryModelError("addresses must lie below 2**63")
        # Both engines price the count as an exact integer (the C walk
        # takes an int64), so a float is refused rather than truncated.
        try:
            instructions = operator.index(self.instructions)
        except TypeError:
            raise MemoryModelError(
                f"instruction count must be an integer, got "
                f"{self.instructions!r}"
            ) from None
        if not 0 <= instructions < 2**63:
            raise MemoryModelError(
                f"instruction count {instructions} outside [0, 2**63)"
            )
        object.__setattr__(self, "instructions", instructions)

    # -- factories ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "AccessBatch":
        """A batch with no references and no instructions."""
        return cls(
            addrs=np.empty(0, dtype=_ADDR_DTYPE),
            writes=np.empty(0, dtype=bool),
            instructions=0,
        )

    @classmethod
    def from_addresses(
        cls,
        addrs: Iterable[int],
        writes=None,
        instructions: int | None = None,
    ) -> "AccessBatch":
        """Build a batch from addresses and an optional write mask.

        ``writes`` may be ``None`` (all loads), a scalar bool, or an
        array-like of the same length as ``addrs``.  Like the
        constructor, it rejects addresses that are not integers (floats,
        bools, objects such as ints beyond 64 bits) rather than cast
        them; an empty input, whatever its dtype, is an empty batch.
        """
        given = np.asarray(addrs)
        if given.dtype.kind not in "iu" and given.size:
            raise MemoryModelError(
                f"addresses must be integers, got dtype {given.dtype}"
            )
        # Cast from the input itself: a Python int past int64 raises
        # here rather than wrap through the uint64 numpy infers for it.
        addr_arr = np.asarray(addrs, dtype=_ADDR_DTYPE)
        if writes is None:
            write_arr = np.zeros(addr_arr.shape, dtype=bool)
        elif np.ndim(writes) == 0:
            # Python scalars and 0-d numpy arrays alike broadcast to the
            # whole batch (np.isscalar would reject the latter).
            write_arr = np.full(addr_arr.shape, bool(writes), dtype=bool)
        else:
            write_arr = np.asarray(writes, dtype=bool)
        if instructions is None:
            instructions = int(np.ceil(len(addr_arr) / cls.MEM_REF_FRACTION))
        return cls(addrs=addr_arr, writes=write_arr, instructions=instructions)

    @classmethod
    def concat(cls, batches: Iterable["AccessBatch"]) -> "AccessBatch":
        """Concatenate batches in order, summing instruction counts.

        The new arrays are read-only, so the result keeps its runs.
        """
        batches = list(batches)
        if not batches:
            return cls.empty()
        addrs = np.concatenate([b.addrs for b in batches])
        writes = np.concatenate([b.writes for b in batches])
        addrs.flags.writeable = False
        writes.flags.writeable = False
        return cls(
            addrs=addrs,
            writes=writes,
            instructions=sum(b.instructions for b in batches),
        )

    # -- views ---------------------------------------------------------------

    @property
    def n_accesses(self) -> int:
        """Number of memory references in the batch."""
        return int(self.addrs.shape[0])

    def runs(
        self, line_shift: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run-length encode the batch at cache-line granularity.

        Returns ``(line_addrs, counts, write_any, write_all)`` where
        consecutive references to the same line are merged;
        ``write_any[i]`` is True if any reference of run ``i`` was a
        store and ``write_all[i]`` if every reference was.  Write-only
        runs that cover a whole line qualify for
        no-fetch-on-write-allocate in the hierarchy walker.
        """
        return coalesce_runs(self.addrs, self.writes, line_shift)

    def __len__(self) -> int:
        return self.n_accesses

    # -- the compiled engine's run cache -------------------------------------

    def _keep_runs(self, runs: tuple) -> None:
        """Keep ``runs`` for later walks, if the batch is read-only."""
        if not (self.addrs.flags.writeable or self.writes.flags.writeable):
            object.__setattr__(self, "_runs", runs)

    def runs_only(self) -> "AccessBatch":
        """This batch as the runs it kept, without its address arrays.

        The result has the same kept runs, access count and instruction
        count, and walks bit-identically on the compiled engine at the
        line geometry and L1 set count it kept them for; nothing else
        can walk it (see :class:`_RunsBatch`).  A batch that kept no
        runs -- never walked on the compiled engine, or writable -- is
        returned as it is.
        """
        if self._runs is None:
            return self
        return _RunsBatch(self._runs, self.n_accesses, self.instructions)

    def __getstate__(self) -> dict:
        # The kept runs hold a raw pointer to their own array: a copy
        # coalesces afresh rather than read through it.
        state = dict(self.__dict__)
        state.pop("_runs", None)
        return state


class _RunsBatch(AccessBatch):
    """A walked batch reduced to the runs it kept (:meth:`runs_only`).

    The compiled engine walks the runs as they are, at the key they were
    kept under.  The batch has no addresses: reading ``addrs`` or
    ``writes`` raises :class:`~repro.errors.MemoryModelError`, and so
    does whatever needs them -- the reference walk (at :meth:`runs`,
    before any state changes), a compiled walk at another key, a copy,
    a pickle.
    """

    def __init__(self, runs: tuple, n_accesses: int, instructions: int):
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "_n_accesses", n_accesses)
        object.__setattr__(self, "instructions", instructions)

    @property
    def addrs(self) -> np.ndarray:
        raise MemoryModelError("a runs-only batch has no addresses")

    @property
    def writes(self) -> np.ndarray:
        raise MemoryModelError("a runs-only batch has no write flags")

    @property
    def n_accesses(self) -> int:
        return self._n_accesses

    def __reduce__(self):
        raise MemoryModelError(
            "a runs-only batch cannot be copied or pickled"
        )

    def __repr__(self) -> str:
        return (f"_RunsBatch(n_accesses={self._n_accesses}, "
                f"n_runs={self._runs[3]}, "
                f"instructions={self.instructions})")


def coalesce_runs(
    addrs: np.ndarray, writes: np.ndarray, line_shift: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised run-length encoding of an address stream by line.

    A "run" is a maximal stretch of consecutive references that fall in
    the same cache line.  Within one cache level, only the first access
    of a run can miss; the rest are hits, so downstream levels only need
    one probe per run.  Returns ``(line_addrs, counts, write_any,
    write_all)``.
    """
    if addrs.shape[0] == 0:
        empty_lines = np.empty(0, dtype=_ADDR_DTYPE)
        empty_bool = np.empty(0, dtype=bool)
        return empty_lines, np.empty(0, dtype=np.int64), empty_bool, empty_bool
    lines = addrs >> line_shift
    change = np.flatnonzero(lines[1:] != lines[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
    counts = np.diff(np.concatenate((starts, [lines.shape[0]])))
    line_addrs = lines[starts]
    if writes.any():
        write_any = np.logical_or.reduceat(writes, starts)
        write_all = np.logical_and.reduceat(writes, starts)
    else:
        write_any = np.zeros(starts.shape, dtype=bool)
        write_all = write_any
    return line_addrs, counts, write_any, write_all
