"""Task control blocks, and the op streams a profiling sweep replays."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.kpn.graph import TaskSpec
from repro.kpn.ops import Compute, Op
from repro.kpn.process import TaskContext
from repro.patterns import memo

__all__ = ["OpStreams", "RunStreams", "Task", "TaskState", "TaskStats"]


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
        self._generator: Optional[Iterator[Op]] = None

    @property
    def name(self) -> str:
        """The task's name (from its spec)."""
        return self.spec.name

    @property
    def affinity(self) -> Optional[int]:
        """Pinned CPU, if any."""
        return self.spec.affinity

    def start(self, streams: Optional["RunStreams"] = None) -> None:
        """Instantiate the program generator; task becomes READY.

        Only a profiling sweep passes ``streams``, its op streams for
        this run: the task then replays the ops it recorded in an
        earlier run, or records them as its program yields them.
        """
        if self._generator is not None:
            raise SchedulingError(f"task {self.name!r} started twice")
        if streams is None:
            self._generator = self.spec.program(self.context)
        else:
            self._generator = streams.program(self)
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


#: Bytes a held op costs besides its batch's arrays: its list slot and,
#: for the FIFO ops a program builds afresh per token, the op object.
_OP_BYTES = 64


class OpStreams:
    """The op streams that one profiling sweep records and replays.

    A sweep (:func:`~repro.core.profiling.profile_miss_curves`) runs the
    same network once per candidate size, with the same layout and
    seed, so every task yields the same ops in every run: the contract
    of :mod:`repro.kpn.process`.  Each task's ops are recorded in the
    sweep's first run and replayed, instead of stepping the program, in
    its later runs with the same seed.  Streams are keyed by task name
    and seed, and a stream is replayed only to a task whose context
    matches the recording's: the same program function and params, and
    the same bounds of every region the task can name.  Otherwise the
    program runs.

    A stream is kept only when its program returned in a run that
    returned (:meth:`RunStreams.keep`, which
    :meth:`~repro.cake.platform.Platform.run` calls), and only while the
    kept streams hold at most
    :data:`~repro.patterns.memo.STREAM_BUDGET_BYTES`.  A recorded
    ``Compute`` op whose batch kept its runs on the compiled engine is
    held as a runs-only batch
    (:meth:`~repro.mem.trace.AccessBatch.runs_only`) once the runner
    walked it, so a held stream costs its runs, not its addresses.
    """

    def __init__(self, run_key: tuple):
        #: The line geometry of the sweep's walks
        #: (:attr:`~repro.mem.hierarchy.HierarchyConfig.run_key`): only
        #: runs kept under it stand in for a batch.
        self.run_key = run_key
        self.budget_bytes = memo.STREAM_BUDGET_BYTES
        #: Bytes the kept streams hold.
        self.nbytes = 0
        self._kept: Dict[Tuple[str, int], Tuple[tuple, List[Op]]] = {}
        #: Keys whose stream did not fit the budget: their programs run.
        self._refused: set = set()

    def run(self, seed: int) -> "RunStreams":
        """The streams of one platform run with ``seed``."""
        return RunStreams(self, seed)


class RunStreams:
    """One platform run's share of an :class:`OpStreams` table."""

    def __init__(self, table: OpStreams, seed: int):
        self.table = table
        self.seed = seed
        self._finished: List[Tuple[Tuple[str, int], tuple, "_Recording"]] = []

    def program(self, task: Task) -> Iterator[Op]:
        """The task's ops in this run: replayed, or its program's."""
        table = self.table
        key = (task.name, self.seed)
        program, context = task.spec.program, task.context
        signature = (program, dict(context.params), context.region_bounds())
        kept = table._kept.get(key)
        if kept is not None:
            if _same(kept[0], signature):
                return iter(kept[1])
        elif key not in table._refused:
            return self._record(key, signature, program(context))
        return program(context)

    def keep(self) -> None:
        """Keep the streams this run recorded, in the order they
        finished, while they fit the budget.  Called once the run
        returned: the streams of a run that raised are never kept."""
        table = self.table
        for key, signature, recording in self._finished:
            if table.nbytes + recording.nbytes <= table.budget_bytes:
                table._kept[key] = (signature, recording.ops)
                table.nbytes += recording.nbytes
            else:
                table._refused.add(key)
        self._finished = []

    def _record(self, key, signature, program) -> Iterator[Op]:
        """The program's ops, recorded until they pass the budget."""
        table = self.table
        recording = _Recording(table.run_key)
        for op in program:
            recording.add(op)
            if table.nbytes + recording.nbytes > table.budget_bytes:
                table._refused.add(key)
                yield op
                yield from program
                return
            yield op
        recording.settle()
        self._finished.append((key, signature, recording))


class _Recording:
    """One task's ops in the order it yields them, each walked batch
    held as its runs alone."""

    def __init__(self, run_key: tuple):
        self.run_key = run_key
        self.ops: List[Op] = []
        self.nbytes = 0
        #: (id of the kept runs, label) -> the runs-only op held for it;
        #: the op keeps those runs, so the id stays theirs.
        self._held: Dict[tuple, Compute] = {}
        #: Ids of the batches held whole (alive in :attr:`ops`).
        self._whole: set = set()

    def add(self, op: Op) -> None:
        """Append ``op``; the runner walked the op before it."""
        self.settle()
        self.ops.append(op)
        self.nbytes += _OP_BYTES

    def settle(self) -> None:
        """Hold the last op, which the runner walked, as compactly as
        its batch allows."""
        if not self.ops or type(self.ops[-1]) is not Compute:
            return
        op = self.ops[-1]
        batch = op.batch
        kept = batch._runs
        if kept is not None and kept[0] == self.run_key:
            key = (id(kept), op.label)
            held = self._held.get(key)
            if held is None:
                held = Compute(batch=batch.runs_only(), label=op.label)
                self._held[key] = held
                self.nbytes += kept[1].nbytes
            self.ops[-1] = held
        elif id(batch) not in self._whole:
            self._whole.add(id(batch))
            self.nbytes += batch.addrs.nbytes + batch.writes.nbytes


def _same(recorded: tuple, signature: tuple) -> bool:
    """Whether two task contexts match (params that cannot be compared
    do not)."""
    try:
        return bool(recorded == signature)
    except (TypeError, ValueError):
        return False
