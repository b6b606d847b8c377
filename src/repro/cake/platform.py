"""Platform builder: a process network instantiated on a CAKE tile.

:class:`Platform` wires everything together:

1. lays out the network's regions in the linear address space
   (:func:`repro.rtos.shmalloc.build_memory_layout`),
2. registers every memory-active entity with the owner registry and
   loads the shared-memory interval table (the OS's buffer-id table),
3. builds the memory system in the requested partition mode,
4. instantiates task contexts, FIFO channels and port bindings,
5. creates the scheduler and one CPU runner per core.

``run()`` executes until the application finishes (every task program
returned) or a cycle horizon passes, and returns a
:class:`~repro.cake.metrics.RunMetrics`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.cake.config import CakeConfig
from repro.cake.metrics import RunMetrics
from repro.cake.processor import CpuRunner
from repro.errors import SchedulingError
from repro.kpn.fifo import FifoChannel
from repro.kpn.graph import ProcessNetwork
from repro.kpn.process import TaskContext
from repro.mem.hierarchy import MemorySystem
from repro.mem.partition import OwnerRegistry, OwnerResolver, PartitionMode
from repro.rtos.cachectl import CacheController
from repro.rtos.scheduler import Scheduler
from repro.rtos.shmalloc import build_memory_layout
from repro.rtos.task import Task, TaskState
from repro.sim.kernel import Simulator
from repro.sim.rng import RngHub

__all__ = ["Platform"]


class Platform:
    """One CAKE tile running one process network."""

    def __init__(
        self,
        network: ProcessNetwork,
        config: Optional[CakeConfig] = None,
        mode: PartitionMode = PartitionMode.SHARED,
        malloc_order: Optional[Sequence[str]] = None,
        placement: str = "scatter",
        engine: Optional[str] = None,
        deferred: Sequence[str] = (),
    ):
        self.network = network
        self.config = config if config is not None else CakeConfig()
        if engine is not None:
            # Per-platform override of the hierarchy engine without
            # rebuilding the whole config tree ("reference" runs the
            # differential-testing oracle end to end).
            self.config = replace(
                self.config,
                hierarchy=replace(self.config.hierarchy, engine=engine),
            )
        self.mode = mode
        network.validate()

        self.sim = Simulator()
        self.rng_hub = RngHub(self.config.seed)
        self.registry = OwnerRegistry()
        self.layout = build_memory_layout(
            network, order=malloc_order, placement=placement,
            seed=self.config.seed,
        )
        resolver = OwnerResolver()
        self.mem = MemorySystem(
            n_cpus=self.config.n_cpus,
            config=self.config.hierarchy,
            resolver=resolver,
            mode=mode,
            rng=self.rng_hub.stream("l2.replacement"),
        )
        self.cache_controller = CacheController(
            self.mem,
            self.registry,
            self.layout,
            unit_sets=self.config.allocation_unit_sets,
        )
        self.cache_controller.load_interval_table()

        self.tasks: List[Task] = []
        self._task_by_name: Dict[str, Task] = {}
        for name, spec in network.tasks.items():
            owner = self.registry.register(
                CacheController.task_owner_name(name)
            )
            context = TaskContext(
                name=name,
                params=spec.params,
                rng=self.rng_hub.stream(f"task.{name}"),
                regions=self.layout.task_regions[name],
                shared_regions=self.layout.shared_regions,
                frame_regions=self.layout.frame_regions,
            )
            task = Task(spec, owner, context)
            self.tasks.append(task)
            self._task_by_name[name] = task

        self.fifos: Dict[str, FifoChannel] = {}
        rt_data = self.layout.shared_regions["rt.data"]
        for fifo_name, fifo_spec in network.fifos.items():
            channel = FifoChannel(
                fifo_spec,
                buffer_region=self.layout.fifo_regions[fifo_name],
                admin_region=rt_data,
                admin_offset=self.layout.fifo_admin_offsets[fifo_name],
            )
            self.fifos[fifo_name] = channel
            self._task_by_name[fifo_spec.producer].context.bind_port(
                fifo_spec.producer_port, channel
            )
            self._task_by_name[fifo_spec.consumer].context.bind_port(
                fifo_spec.consumer_port, channel
            )

        self.scheduler = Scheduler(
            self.sim, self.tasks, self.config.n_cpus, policy=self.config.scheduling
        )
        rt_bss = self.layout.shared_regions["rt.bss"]
        self.cpus = [
            CpuRunner(
                i, self.sim, self.mem, self.scheduler, self.config,
                rt_bss_region=rt_bss,
            )
            for i in range(self.config.n_cpus)
        ]
        unknown = set(deferred) - set(self._task_by_name)
        if unknown:
            raise SchedulingError(
                f"deferred tasks not in the network: {sorted(unknown)}"
            )
        self._deferred = tuple(deferred)
        self._started = False

    # -- execution -----------------------------------------------------------

    def task(self, name: str) -> Task:
        """Look a task up by name."""
        return self._task_by_name[name]

    def attach_task(self, name: str) -> None:
        """Start a deferred task mid-run (online arrival)."""
        self.scheduler.attach(self._task_by_name[name])

    def detach_task(self, name: str) -> None:
        """Retire a task mid-run (online departure).

        Clears the task's FIFO bookkeeping (a blocked task parks itself
        on the channel's waiting list with the retried op pending) and
        removes it from the scheduler.  Tasks that never attached (a
        rejected arrival) or already finished are left alone.
        """
        task = self._task_by_name[name]
        if task.state in (TaskState.NEW, TaskState.DONE):
            return
        for fifo in self.fifos.values():
            if task in fifo.waiting_readers:
                fifo.waiting_readers.remove(task)
            if task in fifo.waiting_writers:
                fifo.waiting_writers.remove(task)
        task.pending_op = None
        self.scheduler.detach(task)

    def run(self, max_cycles: Optional[float] = None) -> RunMetrics:
        """Run the application to completion (or a cycle horizon)."""
        if self._started:
            raise SchedulingError("Platform.run() may only be called once")
        self._started = True
        self.scheduler.start_all(skip=self._deferred)
        if max_cycles is None:
            self.sim.run()
            blocked = self.scheduler.blocked_tasks()
            if blocked:
                names = ", ".join(t.name for t in blocked)
                raise SchedulingError(
                    f"deadlock: tasks blocked forever on FIFO ops: {names}"
                )
        else:
            self.sim.run(until=max_cycles)
        return self.collect_metrics()

    # -- results ----------------------------------------------------------

    def collect_metrics(self) -> RunMetrics:
        """Snapshot all statistics into a :class:`RunMetrics`."""
        metrics = RunMetrics(
            cpus=[cpu.metrics for cpu in self.cpus],
            elapsed_cycles=self.sim.now,
            effective_engine=self.mem.effective_engine,
        )
        l2_stats = self.mem.l2_stats
        for owner_id, stats in l2_stats.per_owner.items():
            metrics.l2_by_owner[self.registry.name_of(owner_id)] = stats
        metrics.l2_cross_evictions = l2_stats.cross_owner_evictions()
        metrics.task_stats = {
            task.name: task.stats for task in self.tasks
        }
        metrics.dram_lines = self.mem.memory.traffic.total_lines
        return metrics

    def all_done(self) -> bool:
        """True when every task program has returned."""
        return all(task.state is TaskState.DONE for task in self.tasks)

    def owner_names(self) -> List[str]:
        """Names of every registered owner (tasks, buffers, regions)."""
        return self.registry.names()

    def __repr__(self) -> str:
        return (
            f"<Platform {self.network.name!r} mode={self.mode.value} "
            f"cpus={self.config.n_cpus}>"
        )
