"""Memory-access batches and address-stream coalescing.

Task programs produce :class:`AccessBatch` objects: flat numpy arrays of
byte addresses plus write flags, together with the number of machine
instructions the batch represents (the simulator charges base CPI per
instruction and stall cycles per miss).

The cache walker consumes batches as *runs*: maximal stretches of
back-to-back accesses that touch the same cache line.  For streaming
multimedia traffic this coalesces roughly ``line_size / element_size``
accesses into one cache probe.  The reference walk coalesces with
:meth:`AccessBatch.runs`; the compiled engine's C call coalesces the
raw addresses itself, the same way.  Coalescing is exact with respect
to hit/miss counting: within a run, the first access decides hit or
miss and the remaining ``n - 1`` accesses are guaranteed hits in the
same cache level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.errors import MemoryModelError

__all__ = ["AccessBatch", "coalesce_runs"]

_ADDR_DTYPE = np.int64


@dataclass(frozen=True)
class AccessBatch:
    """An ordered sequence of memory references plus instruction count.

    Batches are values: nothing in the simulator writes into their
    arrays, and the pattern kit shares one batch between all equal
    calls, with read-only ``addrs`` and ``writes``
    (:mod:`repro.patterns.memo`).  To derive a batch, build new arrays
    (``concat``, ``np.tile``, arithmetic) rather than write into one.

    Attributes
    ----------
    addrs:
        Byte addresses, in program order: an integer array (any integer
        dtype); the memory system rejects negative addresses.
    writes:
        Boolean array, ``True`` where the reference is a store.
    instructions:
        Number of instructions this batch stands for.  Defaults (in the
        factories) to ``ceil(len(addrs) / mem_ref_fraction)`` so that a
        typical multimedia instruction mix of ~35 % memory references is
        preserved.
    """

    addrs: np.ndarray
    writes: np.ndarray
    instructions: int

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
        if self.instructions < 0:
            raise MemoryModelError("instruction count cannot be negative")

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
        array-like of the same length as ``addrs``.
        """
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
        """Concatenate batches in order, summing instruction counts."""
        batches = list(batches)
        if not batches:
            return cls.empty()
        return cls(
            addrs=np.concatenate([b.addrs for b in batches]),
            writes=np.concatenate([b.writes for b in batches]),
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
