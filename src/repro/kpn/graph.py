"""Static description of a process network.

A :class:`ProcessNetwork` is the application model of §3.1: a graph
``G = (V, E)`` whose nodes are tasks and whose edges are FIFO channels,
plus frame buffers and the sizes of the shared static-data regions
(application data/bss and run-time-system data/bss) that the paper's
Tables 1 and 2 also give partitions to.

The description is purely static -- it owns no simulator state.  The
platform builder (:mod:`repro.cake.platform`) instantiates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import NetworkError

__all__ = ["FifoSpec", "FrameBufferSpec", "ProcessNetwork", "TaskSpec"]


@dataclass
class TaskSpec:
    """A task: its program and its private memory footprint.

    ``program`` is a callable taking a
    :class:`~repro.kpn.process.TaskContext` and returning a generator of
    ops (see :mod:`repro.kpn.ops`).
    """

    name: str
    program: Callable
    code_bytes: int = 16 * 1024
    data_bytes: int = 4 * 1024
    bss_bytes: int = 4 * 1024
    stack_bytes: int = 8 * 1024
    heap_bytes: int = 16 * 1024
    params: dict = field(default_factory=dict)
    #: Pin the task to a CPU (used by the static-assignment scheduler);
    #: ``None`` lets the scheduler decide.
    affinity: Optional[int] = None

    def __post_init__(self) -> None:
        for attr in ("code_bytes", "data_bytes", "bss_bytes", "stack_bytes",
                     "heap_bytes"):
            if getattr(self, attr) <= 0:
                raise NetworkError(f"task {self.name!r}: {attr} must be positive")


@dataclass
class FifoSpec:
    """A bounded FIFO edge between two task ports."""

    name: str
    producer: str
    producer_port: str
    consumer: str
    consumer_port: str
    token_bytes: int
    capacity_tokens: int

    def __post_init__(self) -> None:
        if self.token_bytes <= 0:
            raise NetworkError(f"fifo {self.name!r}: token_bytes must be positive")
        if self.capacity_tokens <= 0:
            raise NetworkError(
                f"fifo {self.name!r}: capacity_tokens must be positive"
            )

    @property
    def buffer_bytes(self) -> int:
        """Size of the ring buffer backing the FIFO."""
        return self.token_bytes * self.capacity_tokens


@dataclass
class FrameBufferSpec:
    """A frame buffer: produced completely, then consumed (§4.1).

    ``window_bytes`` declares the buffer's *live access window*: the
    amount of the buffer that is re-referenced close together in time.
    Sequentially written output frames have a window of one strip;
    motion-compensated reference frames have a window of a few dozen
    rows around the current macroblock row.  The buffer-sizing policy
    (:mod:`repro.core.allocation`) gives each frame buffer a partition
    covering its window, which is what makes frame accesses hit without
    letting the frame wash anyone else -- the paper's frame-buffer rule
    made concrete.
    """

    name: str
    size_bytes: int
    window_bytes: int = 8 * 1024

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise NetworkError(f"frame {self.name!r}: size_bytes must be positive")
        if self.window_bytes <= 0:
            raise NetworkError(
                f"frame {self.name!r}: window_bytes must be positive"
            )
        if self.window_bytes > self.size_bytes:
            self.window_bytes = self.size_bytes


class ProcessNetwork:
    """The application: tasks, FIFOs, frame buffers, shared regions."""

    def __init__(
        self,
        name: str,
        appl_data_bytes: int = 16 * 1024,
        appl_bss_bytes: int = 16 * 1024,
        rt_data_bytes: int = 8 * 1024,
        rt_bss_bytes: int = 8 * 1024,
    ):
        self.name = name
        self.appl_data_bytes = appl_data_bytes
        self.appl_bss_bytes = appl_bss_bytes
        self.rt_data_bytes = rt_data_bytes
        self.rt_bss_bytes = rt_bss_bytes
        self.tasks: Dict[str, TaskSpec] = {}
        self.fifos: Dict[str, FifoSpec] = {}
        self.frames: Dict[str, FrameBufferSpec] = {}

    # -- construction --------------------------------------------------------

    def add_task(self, spec: TaskSpec) -> TaskSpec:
        """Register a task (names must be unique)."""
        if spec.name in self.tasks:
            raise NetworkError(f"duplicate task {spec.name!r}")
        self.tasks[spec.name] = spec
        return spec

    def add_fifo(self, spec: FifoSpec) -> FifoSpec:
        """Register a FIFO edge (names must be unique).

        Endpoints and port bindings are checked by :meth:`validate`.
        """
        if spec.name in self.fifos:
            raise NetworkError(f"duplicate fifo {spec.name!r}")
        self.fifos[spec.name] = spec
        return spec

    def add_frame_buffer(self, spec: FrameBufferSpec) -> FrameBufferSpec:
        """Register a frame buffer."""
        if spec.name in self.frames:
            raise NetworkError(f"duplicate frame buffer {spec.name!r}")
        self.frames[spec.name] = spec
        return spec

    # -- queries ----------------------------------------------------------

    def validate(self) -> None:
        """Check referential integrity of the network description."""
        seen_ports: set = set()
        for fifo in self.fifos.values():
            for endpoint, port in (
                (fifo.producer, fifo.producer_port),
                (fifo.consumer, fifo.consumer_port),
            ):
                if endpoint not in self.tasks:
                    raise NetworkError(
                        f"fifo {fifo.name!r} references unknown task {endpoint!r}"
                    )
                key = (endpoint, port)
                if key in seen_ports:
                    raise NetworkError(
                        f"port {port!r} of task {endpoint!r} bound twice"
                    )
                seen_ports.add(key)
            if fifo.producer == fifo.consumer:
                raise NetworkError(f"fifo {fifo.name!r} is a self-loop")

    def __repr__(self) -> str:
        return (
            f"<ProcessNetwork {self.name!r}: {len(self.tasks)} tasks, "
            f"{len(self.fifos)} fifos, {len(self.frames)} frames>"
        )
