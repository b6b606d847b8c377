"""Measuring miss curves by simulation.

§3.2: "The number of misses of task i with z^s cache sets can be
obtained by simulation or program analysis.  In our model we use an
average over the M_i^s obtained out of different simulations."

The profiler exploits the very property the method establishes --
compositionality: in a *fully partitioned* cache, each owner's misses
depend only on its own allocation.  So one simulation per candidate
size ``s`` (with every optimized item allocated ``s`` units, buffers at
their policy sizes) yields a full column of every item's miss curve.
Because the sum of the trial allocations can exceed the physical L2,
profiling runs on an enlarged *virtual* L2 with the same line size,
associativity and unit granularity -- per-owner miss counts in a
partitioned cache are independent of the total set count.

The runs of one sweep differ only in the L2's set count and partition
map, which no task program sees: they build the same network, lay it
out alike and seed every task's RNG stream alike.  So each task yields
the same ops in every run with the same seed.  The sweep's first run
records each task's ops in the process's op-stream table
(:class:`~repro.rtos.task.OpStreams`), and its later runs replay them,
as do the shared baseline and the partitioned validation of the same
workload and seed, within one memory budget per process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.core.allocation import SHARED_ITEMS, BufferPolicy, buffer_units
from repro.core.misscurve import MissCurve
from repro.errors import OptimizationError
from repro.kpn.graph import ProcessNetwork
from repro.mem.partition import PartitionMode

__all__ = [
    "ProfileResult",
    "check_profile_menu",
    "default_sizes",
    "optimized_item_names",
    "profile_miss_curves",
    "profiling_passes",
    "reset_profiling_passes",
    "thread_profiling_passes",
]

#: Process-wide count of profiling sweeps executed (one per
#: :func:`profile_miss_curves` call).  The cache layers promise that a
#: warm sweep re-profiles *nothing*; this counter is the ground truth
#: those assertions (smoke gate, differential tests) check against --
#: memo-table bookkeeping could lie, an unchanged counter cannot.
#: Locked because the async runner backend profiles on threads.
_PASS_COUNT = 0
_PASS_COUNT_LOCK = threading.Lock()
#: The same count per thread: sweep workers sharing one process each
#: attribute to their task only the passes their own thread ran.
_THREAD_PASSES = threading.local()


def profiling_passes() -> int:
    """How many profiling sweeps this process has executed."""
    return _PASS_COUNT


def thread_profiling_passes() -> int:
    """How many profiling sweeps the calling thread has executed."""
    return getattr(_THREAD_PASSES, "count", 0)


def reset_profiling_passes() -> None:
    """Zero the pass counter (test isolation)."""
    global _PASS_COUNT
    with _PASS_COUNT_LOCK:
        _PASS_COUNT = 0


def optimized_item_names(network: ProcessNetwork) -> List[str]:
    """Owner names the MCKP sizes: every task + the shared regions."""
    names = [f"task:{name}" for name in network.tasks]
    names.extend(SHARED_ITEMS)
    return names


@dataclass
class ProfileResult:
    """Miss curves plus per-owner execution-time curves."""

    curves: Dict[str, MissCurve] = field(default_factory=dict)
    #: owner -> {units: l2 accesses} (for the throughput/power models).
    accesses: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: task name -> instructions per run (size-independent).
    instructions: Dict[str, int] = field(default_factory=dict)
    sizes: List[int] = field(default_factory=list)

    def curve(self, owner: str) -> MissCurve:
        """Miss curve of one owner."""
        try:
            return self.curves[owner]
        except KeyError:
            raise OptimizationError(f"no curve for owner {owner!r}") from None

    def curve_list(self, owners: Sequence[str]) -> List[MissCurve]:
        """Curves for ``owners``, in order."""
        return [self.curve(owner) for owner in owners]


def _virtual_sets(
    config: CakeConfig, n_items: int, size: int, buffers_total: int
) -> int:
    """Set count of the profiling L2: fits every trial partition."""
    needed_units = n_items * size + buffers_total + 1
    needed_sets = needed_units * config.allocation_unit_sets
    sets = config.hierarchy.l2_geometry.sets
    while sets < needed_sets:
        sets *= 2
    return sets


def default_sizes(n_allocation_units: int) -> List[int]:
    """The default size menu: powers of two from 1 up to a quarter of
    the allocatable units."""
    sizes: List[int] = []
    size = 1
    while size <= n_allocation_units // 4:
        sizes.append(size)
        size *= 2
    return sizes


def check_profile_menu(sizes: Optional[Sequence[int]], repeats: int) -> None:
    """Raise :class:`OptimizationError` unless ``repeats`` is an
    integer of at least 1 and ``sizes`` is ``None`` (the default menu)
    or a non-empty menu of positive integers.

    :func:`profile_miss_curves` and
    :class:`~repro.core.method.MethodConfig` share this check.
    """
    if not isinstance(repeats, int) or repeats < 1:
        raise OptimizationError(
            f"profile repeats must be an integer >= 1, got {repeats!r}"
        )
    if sizes is None:
        return
    sizes = list(sizes)
    if not sizes:
        raise OptimizationError("sizes menu must not be empty")
    for size in sizes:
        if not isinstance(size, int) or size <= 0:
            raise OptimizationError(
                f"sizes must be positive integers, got {size!r}"
            )


def profile_miss_curves(
    network_builder: Callable[[], ProcessNetwork],
    config: CakeConfig,
    sizes: Optional[Sequence[int]] = None,
    fifo_policy: BufferPolicy = BufferPolicy.ALL_HIT,
    repeats: int = 1,
) -> ProfileResult:
    """Measure miss curves for every optimized item.

    ``network_builder`` must build a fresh network per call (platforms
    consume them).  ``sizes`` defaults to powers of two from 1 up to a
    quarter of the allocatable units; a given menu is profiled in
    ascending order, once per size.  ``repeats`` averages multiple
    runs with different seeds (the paper averages M_i^s over several
    simulations).  A bad menu raises :class:`OptimizationError` before
    any platform is built (:func:`check_profile_menu`).
    """
    check_profile_menu(sizes, repeats)
    global _PASS_COUNT
    with _PASS_COUNT_LOCK:
        _PASS_COUNT += 1
    _THREAD_PASSES.count = thread_profiling_passes() + 1
    if sizes is None:
        sizes = default_sizes(config.n_allocation_units)
        if not sizes:
            raise OptimizationError("profiling needs at least one size")
    sizes = sorted(set(int(s) for s in sizes))

    result = ProfileResult(sizes=list(sizes))
    reference = network_builder()
    items = optimized_item_names(reference)
    buffers = buffer_units(reference, config.unit_bytes, fifo_policy)
    buffers_total = sum(buffers.values())

    for size in sizes:
        for repeat in range(repeats):
            network = network_builder()
            run_config = config.with_l2_sets(
                _virtual_sets(config, len(items), size, buffers_total)
            )
            if repeats > 1:
                run_config = replace(run_config, seed=config.seed + repeat)
            platform = Platform(
                network, run_config, mode=PartitionMode.SET_PARTITIONED
            )
            allocation = dict(buffers)
            for item in items:
                allocation[item] = size
            platform.cache_controller.program_set_partitions(allocation)
            metrics = platform.run()
            for item in items:
                stats = metrics.l2_by_owner.get(item)
                misses = stats.misses if stats else 0
                accesses = stats.accesses if stats else 0
                curve = result.curves.setdefault(item, MissCurve(item))
                curve.add_sample(size, misses)
                result.accesses.setdefault(item, {}).setdefault(size, 0.0)
                result.accesses[item][size] += accesses / repeats
            for task_name, stats in metrics.task_stats.items():
                result.instructions[task_name] = stats.instructions
    return result
