"""Task scheduling policies.

Two policies, matching the two regimes the paper discusses in §3.1:

- ``"static"`` -- every task is bound to one CPU (its ``affinity`` or a
  deterministic round-robin assignment).  This is the regime in which
  the per-processor execution time ``Y(P_k)`` can be computed exactly.
- ``"migrate"`` -- a single global ready queue; any idle CPU picks the
  head, so tasks migrate freely.  This matches the paper's experimental
  system ("task migration and dynamic scheduling are allowed").

Within a CPU, scheduling is cooperative round-robin with a cycle
quantum, enforced by the CPU runner.  A CPU with nothing to run waits
on :meth:`Scheduler.wait_for_work` until a task becomes ready; it never
decides that the run is over.  The run ends when the event heap is
empty (:meth:`~repro.sim.kernel.Simulator.run`), which already holds
every scheduled arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from repro.errors import SchedulingError
from repro.rtos.task import RunStreams, Task, TaskState
from repro.sim.kernel import Event, Simulator

__all__ = ["Scheduler"]


class Scheduler:
    """Ready-queue management shared by all CPU runners."""

    POLICIES = ("static", "migrate")

    def __init__(
        self,
        sim: Simulator,
        tasks: Iterable[Task],
        n_cpus: int,
        policy: str = "migrate",
    ):
        if policy not in self.POLICIES:
            raise SchedulingError(
                f"unknown scheduling policy {policy!r}; pick from {self.POLICIES}"
            )
        self.sim = sim
        self.policy = policy
        self.n_cpus = n_cpus
        self.tasks: List[Task] = list(tasks)
        self._global_queue: Deque[Task] = deque()
        self._cpu_queues: List[Deque[Task]] = [deque() for _ in range(n_cpus)]
        self._assignment: Dict[str, int] = {}
        self._waiters: List[Optional[Event]] = [None] * n_cpus
        self._assign_cpus()

    def _assign_cpus(self) -> None:
        """Fix the static task-to-CPU map (affinity first, then RR)."""
        next_cpu = 0
        for task in self.tasks:
            if task.affinity is not None:
                if not 0 <= task.affinity < self.n_cpus:
                    raise SchedulingError(
                        f"task {task.name!r} pinned to invalid cpu {task.affinity}"
                    )
                self._assignment[task.name] = task.affinity
        for task in self.tasks:
            if task.name not in self._assignment:
                self._assignment[task.name] = next_cpu
                next_cpu = (next_cpu + 1) % self.n_cpus

    # -- queries ------------------------------------------------------------

    @property
    def assignment(self) -> Dict[str, int]:
        """Static task-to-CPU map (meaningful under the static policy)."""
        return dict(self._assignment)

    @property
    def live_tasks(self) -> int:
        """Tasks that have started and not finished."""
        return sum(task.state not in (TaskState.NEW, TaskState.DONE)
                   for task in self.tasks)

    def has_ready(self, cpu: int) -> bool:
        """True when ``next_task(cpu)`` would return a task."""
        if self.policy == "migrate":
            return bool(self._global_queue)
        return bool(self._cpu_queues[cpu])

    def should_preempt(self, cpu: int, quantum_left: int) -> bool:
        """Round-robin preemption decision after one op.

        The quantum only forces a yield when somebody is waiting --
        with an empty ready queue the running task keeps the CPU.
        """
        return quantum_left <= 0 and self.has_ready(cpu)

    # -- lifecycle ---------------------------------------------------------

    def start_all(
        self, skip: Iterable[str] = (), streams: Optional[RunStreams] = None
    ) -> None:
        """Start every task and enqueue it as ready.

        Tasks named in ``skip`` stay NEW; they join later through
        :meth:`attach` (online arrivals) or never (rejected arrivals).
        ``streams``, the run's op streams, goes to :meth:`Task.start`.
        """
        deferred = set(skip)
        for task in self.tasks:
            if task.name in deferred:
                continue
            task.start(streams)
            self._enqueue(task)
        self._wake_cpus()

    def attach(self, task: Task) -> None:
        """Start a deferred task mid-run and enqueue it as ready."""
        if task.state is not TaskState.NEW:
            raise SchedulingError(
                f"cannot attach task {task.name!r} in state {task.state.value}"
            )
        task.start()
        self._enqueue(task)
        self._wake_cpus()

    def detach(self, task: Task) -> None:
        """Remove a live task mid-run.

        Works whatever the task is doing: READY tasks leave the queues,
        RUNNING tasks are marked DONE so the owning runner drops them at
        its next yield point (without double accounting), and BLOCKED
        tasks are simply retired -- the platform clears their FIFO
        bookkeeping before calling in here.
        """
        if task.state in (TaskState.NEW, TaskState.DONE):
            raise SchedulingError(
                f"cannot detach task {task.name!r} in state {task.state.value}"
            )
        if task.state is TaskState.READY:
            try:
                self._global_queue.remove(task)
            except ValueError:
                pass
            for queue in self._cpu_queues:
                try:
                    queue.remove(task)
                except ValueError:
                    pass
        self.task_done(task)

    def next_task(self, cpu: int) -> Optional[Task]:
        """Pop the next ready task for ``cpu`` (or ``None``)."""
        queue = (
            self._global_queue if self.policy == "migrate" else self._cpu_queues[cpu]
        )
        if not queue:
            return None
        task = queue.popleft()
        if task.last_cpu is not None and task.last_cpu != cpu:
            task.stats.migrations += 1
        task.last_cpu = cpu
        task.stats.dispatches += 1
        return task

    def make_ready(self, task: Task) -> None:
        """Move a blocked/preempted task back to the ready queue."""
        if task.state is TaskState.DONE:
            raise SchedulingError(f"cannot ready finished task {task.name!r}")
        task.state = TaskState.READY
        self._enqueue(task)
        self._wake_cpus()

    def task_done(self, task: Task) -> None:
        """Mark a task finished."""
        task.state = TaskState.DONE

    def wait_for_work(self, cpu: int) -> Event:
        """Event that fires when this CPU should re-check its queue."""
        event = self.sim.event()
        self._waiters[cpu] = event
        return event

    # -- internals -----------------------------------------------------------

    def _enqueue(self, task: Task) -> None:
        if self.policy == "migrate":
            self._global_queue.append(task)
        else:
            self._cpu_queues[self._assignment[task.name]].append(task)

    def _wake_cpus(self) -> None:
        for cpu, event in enumerate(self._waiters):
            if event is not None:
                self._waiters[cpu] = None
                event.succeed()

    def blocked_tasks(self) -> List[Task]:
        """Tasks currently blocked on FIFO operations (diagnostics)."""
        return [t for t in self.tasks if t.state is TaskState.BLOCKED]
