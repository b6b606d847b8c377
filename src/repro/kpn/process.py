"""TaskContext: the facade a task program sees.

A task program is a plain generator function::

    def idct_program(ctx):
        for _ in range(ctx.params["n_blocks"]):
            yield ctx.read("coef_in")
            yield ctx.compute(
                ctx.block(ctx.heap, row_stride=64, x0=0, y0=0,
                          width=8, height=8, elem=4, passes=2),
                ctx.fetch(2000),
            )
            yield ctx.write("pix_out")

The context carries the task's memory regions, its bound ports, a
deterministic RNG stream and thin wrappers around the pattern kit that
keep the programs readable.

A program must yield the same ops whenever it runs with the same
context: the same params, the same region bounds
(:meth:`TaskContext.region_bounds`) and an RNG stream with the same
seed.  So it reads nothing else that can change between runs: not the
clock, not a FIFO's fill level, not the cache.  Every platform run
relies on this: a task's ops, recorded in the first run of its context
in a process, are replayed in the later ones -- the other sizes of a
profiling sweep, the baseline, the validation
(:class:`~repro.rtos.task.OpStreams`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.errors import NetworkError
from repro.kpn.fifo import FifoChannel
from repro.kpn.ops import Compute, Delay, ReadToken, WriteToken
from repro.mem.address import Region
from repro.mem.trace import AccessBatch
from repro.patterns import block2d, gather_blocks, loop_code, stencil, stream, table_lookup

__all__ = ["TaskContext"]


class TaskContext:
    """Everything a task program may touch."""

    def __init__(
        self,
        name: str,
        params: dict,
        rng: np.random.Generator,
        regions: Dict[str, Region],
        shared_regions: Dict[str, Region],
        frame_regions: Dict[str, Region],
    ):
        self.name = name
        self.params = dict(params)
        self.rng = rng
        self._regions = regions
        self._shared = shared_regions
        self._frames = frame_regions
        self._ports: Dict[str, FifoChannel] = {}

    # -- regions -----------------------------------------------------------

    @property
    def code(self) -> Region:
        """The task's code region."""
        return self._regions["code"]

    @property
    def data(self) -> Region:
        """The task's initialised static data."""
        return self._regions["data"]

    @property
    def bss(self) -> Region:
        """The task's uninitialised static data."""
        return self._regions["bss"]

    @property
    def stack(self) -> Region:
        """The task's stack."""
        return self._regions["stack"]

    @property
    def heap(self) -> Region:
        """The task's private heap."""
        return self._regions["heap"]

    def shared(self, name: str) -> Region:
        """A shared static region: ``appl.data``/``appl.bss``/``rt.data``/``rt.bss``."""
        try:
            return self._shared[name]
        except KeyError:
            raise NetworkError(f"unknown shared region {name!r}") from None

    def frame(self, name: str) -> Region:
        """A frame buffer region by its spec name.

        Resolution is namespace-aware: a task an online union network
        calls ``group.x`` finds the frame its program names ``f`` under
        ``group.f`` -- programs stay oblivious to whether they joined a
        running platform or started with it.
        """
        candidates = [name]
        parts = self.name.split(".")
        for i in range(len(parts) - 1, 0, -1):
            candidates.append(".".join(parts[:i]) + "." + name)
        for candidate in candidates:
            try:
                return self._frames[candidate]
            except KeyError:
                continue
        raise NetworkError(f"unknown frame buffer {name!r}")

    def region_bounds(self) -> tuple:
        """``(name, base, size)`` of every region the task can name: its
        own, then the shared regions, then the frame buffers, each in
        name order."""
        return tuple(
            tuple(sorted(
                (name, region.base, region.size)
                for name, region in regions.items()
            ))
            for regions in (self._regions, self._shared, self._frames)
        )

    # -- ports ---------------------------------------------------------------

    def bind_port(self, port: str, channel: FifoChannel) -> None:
        """Attach a FIFO channel to a port name (platform builder)."""
        if port in self._ports:
            raise NetworkError(f"port {port!r} of task {self.name!r} bound twice")
        self._ports[port] = channel

    def port(self, name: str) -> FifoChannel:
        """The channel bound to ``name``."""
        try:
            return self._ports[name]
        except KeyError:
            raise NetworkError(
                f"task {self.name!r} has no port {name!r}"
            ) from None

    # -- op shorthands -------------------------------------------------------

    def compute(self, *batches: AccessBatch, label: str = "") -> Compute:
        """A Compute op from one or more access batches."""
        if len(batches) == 1:
            return Compute(batch=batches[0], label=label)
        return Compute(batch=AccessBatch.concat(batches), label=label)

    def read(self, port: str, tokens: int = 1) -> ReadToken:
        """Blocking read of ``tokens`` tokens."""
        return ReadToken(port=port, tokens=tokens)

    def write(self, port: str, tokens: int = 1) -> WriteToken:
        """Blocking write of ``tokens`` tokens."""
        return WriteToken(port=port, tokens=tokens)

    def delay(self, cycles: int, label: str = "") -> Delay:
        """Pure delay without memory traffic."""
        return Delay(cycles=cycles, label=label)

    # -- pattern shorthands -----------------------------------------------

    def fetch(self, n_instructions: int, loop_bytes: Optional[int] = None,
              loop_offset: int = 0) -> AccessBatch:
        """Instruction fetch of a loop body in the code region."""
        if loop_bytes is None:
            loop_bytes = min(self.code.size, 2048)
        return loop_code(self.code, loop_offset, loop_bytes, n_instructions)

    def stream(self, region: Region, offset: int = 0, nbytes: Optional[int] = None,
               elem: int = 4, stride: Optional[int] = None,
               write: bool = False) -> AccessBatch:
        """Sequential walk (see :func:`repro.patterns.streams.stream`)."""
        return stream(region, offset=offset, nbytes=nbytes, elem=elem,
                      stride=stride, write=write)

    def block(self, region: Region, row_stride: int, x0: int, y0: int,
              width: int, height: int, elem: int = 1, write: bool = False,
              passes: int = 1) -> AccessBatch:
        """2-D tile walk (see :func:`repro.patterns.blocks.block2d`)."""
        return block2d(region, row_stride, x0, y0, width, height, elem=elem,
                       write=write, passes=passes)

    def gather(self, region: Region, row_stride: int, positions: Iterable,
               width: int, height: int, elem: int = 1) -> AccessBatch:
        """Gather tiles (see :func:`repro.patterns.blocks.gather_blocks`)."""
        return gather_blocks(region, row_stride, positions, width, height,
                             elem=elem)

    def stencil(self, src: Region, dst: Region, row_stride: int, width: int,
                rows: int, y0: int = 0, taps_x: int = 3, taps_y: int = 3,
                elem: int = 1) -> AccessBatch:
        """Convolution rows (see :func:`repro.patterns.stencil.stencil`)."""
        return stencil(src, dst, row_stride, width, rows, y0=y0, taps_x=taps_x,
                       taps_y=taps_y, elem=elem)

    def table(self, region: Region, n: int, entry_bytes: int = 8,
              table_bytes: Optional[int] = None, offset: int = 0,
              skew: float = 1.2, uniform: bool = False) -> AccessBatch:
        """Data-dependent table lookups using the task's RNG stream."""
        return table_lookup(region, self.rng, n, entry_bytes=entry_bytes,
                            table_bytes=table_bytes, offset=offset, skew=skew,
                            uniform=uniform)

    def __repr__(self) -> str:
        return f"<TaskContext {self.name!r} ports={sorted(self._ports)}>"
