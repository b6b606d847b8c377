"""Trace-driven CPU runner.

Each CPU is one simulation process.  It pulls ready tasks from the
scheduler, interprets the ops their programs yield (compute batches,
FIFO reads/writes, delays), charges cycles through the memory system and
enforces the round-robin quantum.  FIFO blocking follows KPN semantics:
a read from an empty FIFO (or write to a full one) parks the task on the
channel; the runner that later completes the matching operation wakes
it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cake.config import CakeConfig
from repro.cake.metrics import CpuMetrics
from repro.errors import SchedulingError
from repro.kpn.fifo import FifoChannel
from repro.kpn.ops import Compute, Delay, ReadToken, WriteToken
from repro.mem.address import Region
from repro.mem.hierarchy import MemorySystem
from repro.mem.trace import AccessBatch
from repro.rtos.scheduler import Scheduler
from repro.rtos.task import Task, TaskState
from repro.sim.kernel import Simulator

__all__ = ["CpuRunner"]

#: Bytes of task-control-block state the RTOS touches per dispatch.
TCB_BYTES = 128


class CpuRunner:
    """One CPU of the tile."""

    def __init__(
        self,
        cpu_id: int,
        sim: Simulator,
        mem: MemorySystem,
        scheduler: Scheduler,
        config: CakeConfig,
        rt_bss_region: Optional[Region] = None,
    ):
        self.cpu_id = cpu_id
        self.sim = sim
        self.mem = mem
        self.scheduler = scheduler
        self.config = config
        self.metrics = CpuMetrics()
        self._rt_bss = rt_bss_region
        self._current: Optional[Task] = None
        self.process = sim.process(self._run(), name=f"cpu{cpu_id}")

    def _switch_batch(self, task: Task) -> AccessBatch:
        """RTOS traffic of a context switch: save/restore the TCB.

        Touches the task's control block inside ``rt.bss``, so the
        switch traffic lands in the RTOS's cache partition -- the reason
        the run-time system has its own rows in Tables 1/2.
        """
        region = self._rt_bss
        offset = (task.owner_id * TCB_BYTES) % max(1, region.size - TCB_BYTES)
        addrs = region.base + offset + np.arange(TCB_BYTES // 4, dtype=np.int64) * 4
        # Restore reads the whole block, save rewrites half of it.
        writes = np.zeros(addrs.shape, dtype=bool)
        writes[::2] = True
        return AccessBatch(addrs=addrs, writes=writes, instructions=64)

    # -- helpers ------------------------------------------------------------

    def _execute(self, task: Task, batch: AccessBatch) -> int:
        """Price a batch through the memory system; update accounting."""
        result = self.mem.execute_batch(
            self.cpu_id, task.owner_id, batch, self.sim.now
        )
        task.stats.instructions += result.instructions
        task.stats.cycles += result.cycles
        self.metrics.busy_cycles += result.cycles
        self.metrics.instructions += result.instructions
        return result.cycles

    @staticmethod
    def _wake_readers(fifo: FifoChannel, scheduler: Scheduler) -> None:
        still_waiting = []
        for task in fifo.waiting_readers:
            op = task.pending_op
            if op is not None and fifo.can_read(op.tokens):
                scheduler.make_ready(task)
            else:
                still_waiting.append(task)
        fifo.waiting_readers[:] = still_waiting

    @staticmethod
    def _wake_writers(fifo: FifoChannel, scheduler: Scheduler) -> None:
        still_waiting = []
        for task in fifo.waiting_writers:
            op = task.pending_op
            if op is not None and fifo.can_write(op.tokens):
                scheduler.make_ready(task)
            else:
                still_waiting.append(task)
        fifo.waiting_writers[:] = still_waiting

    def _pay_switch(self, task: Task):
        """The dispatch cost: RTOS traffic + fixed stall."""
        self.metrics.switch_cycles += self.config.switch_cycles
        if self._rt_bss is not None:
            self.mem.execute_batch(
                self.cpu_id,
                task.owner_id,
                self._switch_batch(task),
                self.sim.now,
            )
        yield self.sim.timeout(self.config.switch_cycles)

    # -- the CPU loop --------------------------------------------------------

    def _run(self):
        sim = self.sim
        scheduler = self.scheduler
        config = self.config
        while True:
            task = scheduler.next_task(self.cpu_id)
            if task is None:
                if (scheduler.live_tasks == 0
                        and not scheduler.expecting_arrivals()):
                    return
                idle_start = sim.now
                yield scheduler.wait_for_work(self.cpu_id)
                self.metrics.idle_cycles += sim.now - idle_start
                continue

            if (task is not self._current and self._current is not None
                    and config.switch_cycles):
                yield from self._pay_switch(task)
            self._current = task
            self.metrics.dispatches += 1
            if task.state is TaskState.DONE:
                # Detached (online departure) while the dispatch switch
                # was in flight: drop it without running an op.
                continue
            task.state = TaskState.RUNNING
            quantum_left = config.quantum_cycles

            while True:
                op = task.next_op()
                if op is None:
                    scheduler.task_done(task)
                    break

                op_type = type(op)
                if op_type is Compute:
                    cycles = self._execute(task, op.batch)
                    task.stats.compute_ops += 1
                    quantum_left -= cycles
                    if cycles:
                        yield sim.timeout(cycles)
                elif op_type is ReadToken:
                    fifo = task.context.port(op.port)
                    if fifo.can_read(op.tokens):
                        batch = fifo.read_batch(op.tokens)
                        fifo.commit_read(op.tokens)
                        self._wake_writers(fifo, scheduler)
                        cycles = self._execute(task, batch)
                        task.stats.fifo_reads += op.tokens
                        quantum_left -= cycles
                        if cycles:
                            yield sim.timeout(cycles)
                    else:
                        task.pending_op = op
                        task.state = TaskState.BLOCKED
                        task.stats.blocked_reads += 1
                        fifo.stats.blocked_reads += 1
                        fifo.waiting_readers.append(task)
                        break
                elif op_type is WriteToken:
                    fifo = task.context.port(op.port)
                    if fifo.can_write(op.tokens):
                        batch = fifo.write_batch(op.tokens)
                        fifo.commit_write(op.tokens)
                        self._wake_readers(fifo, scheduler)
                        cycles = self._execute(task, batch)
                        task.stats.fifo_writes += op.tokens
                        quantum_left -= cycles
                        if cycles:
                            yield sim.timeout(cycles)
                    else:
                        task.pending_op = op
                        task.state = TaskState.BLOCKED
                        task.stats.blocked_writes += 1
                        fifo.stats.blocked_writes += 1
                        fifo.waiting_writers.append(task)
                        break
                elif op_type is Delay:
                    self.metrics.busy_cycles += op.cycles
                    task.stats.cycles += op.cycles
                    quantum_left -= op.cycles
                    if op.cycles:
                        yield sim.timeout(op.cycles)
                else:
                    raise SchedulingError(
                        f"task {task.name!r} yielded unknown op {op!r}"
                    )

                if task.state is TaskState.DONE:
                    break  # detached while the op's timeout was in flight
                if scheduler.should_preempt(self.cpu_id, quantum_left):
                    scheduler.make_ready(task)
                    break
