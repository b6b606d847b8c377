"""Task control blocks."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.errors import SchedulingError
from repro.kpn.graph import TaskSpec
from repro.kpn.ops import Op
from repro.kpn.process import TaskContext

__all__ = ["Task", "TaskState", "TaskStats"]


class TaskState(enum.Enum):
    """Lifecycle of a task."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


@dataclass
class TaskStats:
    """Per-task execution statistics."""

    instructions: int = 0
    cycles: int = 0
    compute_ops: int = 0
    fifo_reads: int = 0
    fifo_writes: int = 0
    blocked_reads: int = 0
    blocked_writes: int = 0
    dispatches: int = 0
    migrations: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per instruction of this task alone."""
        return self.cycles / self.instructions if self.instructions else 0.0


class Task:
    """A runnable instance of a :class:`~repro.kpn.graph.TaskSpec`."""

    def __init__(self, spec: TaskSpec, owner_id: int, context: TaskContext):
        self.spec = spec
        self.owner_id = owner_id
        self.context = context
        self.state = TaskState.NEW
        self.stats = TaskStats()
        #: CPU the task last ran on (for migration accounting).
        self.last_cpu: Optional[int] = None
        #: Blocking FIFO op to retry on wake-up.
        self.pending_op: Optional[Op] = None
        self._generator: Optional[Generator[Op, Any, Any]] = None

    @property
    def name(self) -> str:
        """The task's name (from its spec)."""
        return self.spec.name

    @property
    def affinity(self) -> Optional[int]:
        """Pinned CPU, if any."""
        return self.spec.affinity

    def start(self) -> None:
        """Instantiate the program generator; task becomes READY."""
        if self._generator is not None:
            raise SchedulingError(f"task {self.name!r} started twice")
        self._generator = self.spec.program(self.context)
        self.state = TaskState.READY

    def advance(self) -> Optional[Op]:
        """Next op from the program, or ``None`` when it has finished."""
        if self._generator is None:
            raise SchedulingError(f"task {self.name!r} not started")
        try:
            return next(self._generator)
        except StopIteration:
            return None

    def next_op(self) -> Optional[Op]:
        """The next op to execute: a blocked FIFO op to retry wins,
        then the program itself."""
        if self.pending_op is not None:
            op = self.pending_op
            self.pending_op = None
            return op
        return self.advance()

    def __repr__(self) -> str:
        return f"<Task {self.name!r} {self.state.value}>"
