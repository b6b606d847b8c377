"""Task control blocks, and the op streams every platform run replays."""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.kpn.graph import TaskSpec
from repro.kpn.ops import Compute, Op
from repro.kpn.process import TaskContext
from repro.mem.trace import AccessBatch
from repro.patterns import memo

__all__ = ["OP_STREAMS", "OpStreams", "RunStreams", "Task", "TaskState",
           "TaskStats"]


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

    def __init__(self, spec: TaskSpec, owner_id: int, context: TaskContext,
                 switch_batch: Optional[AccessBatch] = None):
        self.spec = spec
        self.owner_id = owner_id
        self.context = context
        #: RTOS traffic of dispatching this task after another one;
        #: with ``None`` a switch costs the fixed stall alone.
        self.switch_batch = switch_batch
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

        With ``streams``, the platform run's op streams, the task
        replays the ops an earlier run recorded, or records them as its
        program yields them (unless the table dropped its last
        recording and has not freed room since); without, it steps its
        program.
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
    """The op streams this process records and replays.

    The paper's method runs each application many times with the same
    task programs: once per profiled size
    (:func:`~repro.core.profiling.profile_miss_curves`), then as the
    shared baseline and as the partitioned validation.  Under the
    contract of :mod:`repro.kpn.process`, a task run again with the same
    context yields the same ops.  So every platform run goes through
    one table per process (:data:`OP_STREAMS`): a task replays the ops
    that an earlier run recorded under its name and seed when its
    context matches the recording's -- the same program function and
    params, and the same bounds of every region the task can name -- and
    records them as its program yields them otherwise.  Deferred
    arrivals (:meth:`~repro.rtos.scheduler.Scheduler.attach`) always
    step their programs.

    Streams are keyed by the engine that walks the run
    (:attr:`~repro.mem.hierarchy.MemorySystem.effective_engine`, not
    the requested one), the line geometry and the L1 set count
    (:attr:`~repro.mem.hierarchy.HierarchyConfig.run_key`), the task's
    name, seed, program and region bounds; a recording whose params
    differ from the kept stream's replaces it.  When the run walks in
    C, a recorded ``Compute`` op whose batch kept its runs is held as a
    runs-only batch (:meth:`~repro.mem.trace.AccessBatch.runs_only`)
    once the runner walked it, so a held stream costs its runs, folded
    within each L1 set, not its addresses: a one-frame paper session
    holds 2.3 MB for both applications' 28 streams.  Streams of runs
    on the reference walk hold the programs' own batches: a runs-only
    batch has no addresses, and only the C walk can walk it.

    A stream is kept only when its program returned in a run that
    returned (:meth:`RunStreams.keep`, which
    :meth:`~repro.cake.platform.Platform.run` calls).  The kept streams
    hold at most :data:`~repro.patterns.memo.STREAM_BUDGET_BYTES`, read
    each time a stream is recorded or kept.  To keep a stream past it,
    the least recently replayed streams are evicted, but never one that
    the keeping run replayed: a stream that does not fit without those
    is dropped, so a sweep's later runs replay the same streams rather
    than evict each other's in turn.  A stream that alone passes the
    budget is never kept.  The table remembers the keys of the streams
    it dropped: their tasks step their programs without recording until
    the table next frees room (an eviction, a replacement or
    :meth:`clear`), since a recording would be dropped again.  A lock
    guards lookups, keeps and evictions:
    :class:`~repro.exp.runner.AsyncBackend` runs platforms on threads of
    one process.  :func:`repro.exp.clear_caches` empties the table.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (engine, run key, task name, seed, program, region bounds)
        #: -> (params, ops, bytes), least recently replayed first.
        self._kept: "OrderedDict[tuple, Tuple[dict, List[Op], int]]" = \
            OrderedDict()
        #: Keys of the streams dropped since the table last freed room.
        self._refused: set = set()
        #: Bytes the kept streams hold.
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._kept)

    def run(self, engine: str, run_key: tuple, seed: int) -> "RunStreams":
        """The streams of one platform run with ``seed`` that walks on
        ``engine`` (the memory system's effective engine)."""
        return RunStreams(self, engine, run_key, seed)

    def clear(self) -> None:
        """Drop every kept stream, and forget the dropped ones."""
        with self._lock:
            self._kept.clear()
            self._refused.clear()
            self.nbytes = 0

    def _replay(self, key: tuple, params: dict):
        """The ops kept under ``key`` if they were recorded with equal
        ``params``; else ``None``, or :data:`_REFUSED` when a recording
        under ``key`` was dropped since the table last freed room."""
        with self._lock:
            kept = self._kept.get(key)
            if kept is None or not _same(kept[0], params):
                return _REFUSED if key in self._refused else None
            self._kept.move_to_end(key)
            return kept[1]

    def _keep(self, finished: list, replayed: set) -> None:
        """Keep ``(key, params, recording)`` streams, in order, each
        after evicting the least recently replayed streams past the
        budget -- but none of the ``replayed`` keys, whose streams the
        keeping run replayed: a recording that does not fit without
        them is dropped, and so is one that passed the budget (``None``).
        Freeing room forgets the dropped keys."""
        budget = memo.STREAM_BUDGET_BYTES
        kept = self._kept
        with self._lock:
            for key, params, recording in finished:
                if recording is None or recording.nbytes > budget:
                    self._refused.add(key)
                    continue
                replaced = kept.pop(key, None)
                if replaced is not None:
                    self.nbytes -= replaced[2]
                    self._refused.clear()
                while self.nbytes + recording.nbytes > budget:
                    oldest = next(iter(kept))
                    if oldest in replayed:
                        self._refused.add(key)
                        break
                    self.nbytes -= kept.pop(oldest)[2]
                    self._refused.clear()
                else:
                    kept[key] = (params, recording.ops, recording.nbytes)
                    self.nbytes += recording.nbytes


class RunStreams:
    """One platform run's share of an :class:`OpStreams` table."""

    def __init__(self, table: OpStreams, engine: str, run_key: tuple,
                 seed: int):
        self.table = table
        self.seed = seed
        self._prefix = (engine, run_key)
        #: The geometry whose runs stand in for a recorded batch; none
        #: on the reference engine, which walks the programs' batches.
        self._runs_key = run_key if engine == "compiled" else None
        self._finished: List[Tuple[tuple, dict, "_Recording"]] = []
        #: Keys of the streams this run replayed.
        self._replayed: set = set()

    def program(self, task: Task) -> Iterator[Op]:
        """The task's ops in this run: replayed, or its program's."""
        program, context = task.spec.program, task.context
        key = (*self._prefix, task.name, self.seed, program,
               context.region_bounds())
        params = dict(context.params)
        ops = self.table._replay(key, params)
        if ops is _REFUSED:
            return program(context)
        if ops is not None:
            self._replayed.add(key)
            return iter(ops)
        return self._record(key, params, program(context))

    def keep(self) -> None:
        """Keep the streams this run recorded, in the order they
        finished.  Called once the run returned: the streams of a run
        that raised are never kept."""
        self.table._keep(self._finished, self._replayed)
        self._finished = []

    def _record(self, key, params, program) -> Iterator[Op]:
        """The program's ops, recorded until they pass the budget."""
        budget = memo.STREAM_BUDGET_BYTES
        recording = _Recording(self._runs_key)
        for op in program:
            recording.add(op)
            if recording.nbytes > budget:
                yield op
                yield from program
                self._finished.append((key, params, None))
                return
            yield op
        recording.settle()
        self._finished.append((key, params, recording))


#: What :meth:`OpStreams._replay` returns for a key whose recording was
#: dropped: step the program, record nothing.
_REFUSED = object()

#: The process's op-stream table: every platform run replays and
#: records through it.
OP_STREAMS = OpStreams()


class _Recording:
    """One task's ops in the order it yields them, each walked batch
    held as its runs alone when ``run_key`` is given."""

    def __init__(self, run_key: Optional[tuple]):
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


def _same(recorded: dict, params: dict) -> bool:
    """Whether two tasks' params match (params that cannot be compared
    do not)."""
    try:
        return bool(recorded == params)
    except (TypeError, ValueError):
        return False
