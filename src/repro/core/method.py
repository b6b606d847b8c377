"""The end-to-end compositional method.

:class:`CompositionalMethod` runs the complete pipeline of the paper on
one application:

1. **Profile** -- measure miss curves for every task and shared static
   region over a menu of allocation sizes (§3.2's ``M_i^s``).
2. **Size buffers** -- apply the FIFO/frame policies of §3/§4.1.
3. **Optimize** -- solve the MCKP/MILP for the task and shared-data
   allocations within the remaining capacity.
4. **Program & simulate** -- apply the plan to a set-partitioned
   platform and run it; also run the conventional shared-cache
   baseline.
5. **Validate** -- the Figure-3 expected-vs-simulated comparison and
   the interference (cross-owner eviction) check.

The resulting :class:`MethodReport` carries everything the paper's
tables, figures and headline numbers are derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cake.config import CakeConfig
from repro.cake.metrics import RunMetrics
from repro.cake.platform import Platform
from repro.core.allocation import BufferPolicy, PartitionPlan, buffer_units
from repro.core.mckp import (
    MckpSolution,
    items_from_curves,
    solve_mckp_dp,
    solve_mckp_greedy,
)
from repro.core.milp import solve_mckp_milp
from repro.core.profiling import (
    ProfileResult,
    optimized_item_names,
    profile_miss_curves,
)
from repro.core.validate import CompositionalityReport, compare_expected_simulated
from repro.errors import OptimizationError
from repro.kpn.graph import ProcessNetwork
from repro.mem.partition import PartitionMode

__all__ = [
    "CompositionalMethod",
    "MethodConfig",
    "MethodReport",
    "OptimizationResult",
    "SOLVERS",
    "cpi_improvement",
    "format_reduction_factor",
    "reduction_factor",
]


#: Solver name -> MCKP solver ``(items, budget) -> MckpSolution``.
SOLVERS: Dict[str, Callable[..., MckpSolution]] = {
    "dp": solve_mckp_dp,
    "greedy": solve_mckp_greedy,
    "milp": solve_mckp_milp,
}


@dataclass(frozen=True)
class MethodConfig:
    """Knobs of the end-to-end pipeline."""

    #: Candidate allocation sizes (units); None = powers of two.
    sizes: Optional[Sequence[int]] = None
    fifo_policy: BufferPolicy = BufferPolicy.ALL_HIT
    #: A name in :data:`SOLVERS`: "dp", "greedy" or "milp".
    solver: str = "dp"
    #: Profiling repeats (averaged, as in §3.2).
    profile_repeats: int = 1

    def __post_init__(self) -> None:
        if self.solver not in SOLVERS:
            raise OptimizationError(f"unknown solver {self.solver!r}")
        if self.profile_repeats < 1:
            raise OptimizationError(
                f"profile_repeats must be >= 1, got {self.profile_repeats}"
            )
        if self.sizes is not None:
            sizes = list(self.sizes)
            if not sizes:
                raise OptimizationError("sizes menu must not be empty")
            for size in sizes:
                if not isinstance(size, int) or size <= 0:
                    raise OptimizationError(
                        f"sizes must be positive integers, got {size!r}"
                    )
            for small, large in zip(sizes, sizes[1:]):
                if large <= small:
                    raise OptimizationError(
                        f"sizes must be strictly ascending, got {sizes}"
                    )


def reduction_factor(shared_misses: float, partitioned_misses: float) -> float:
    """Shared misses / partitioned misses, with the degenerate cases.

    A perfect partitioned run (zero misses) is ``float("inf")`` -- 0.0
    would read as "no reduction" when the reduction is total; zero
    misses on *both* sides is 1.0 (nothing to reduce).  The single
    definition shared by :class:`MethodReport` and the result store's
    records.
    """
    if partitioned_misses:
        return shared_misses / partitioned_misses
    return float("inf") if shared_misses else 1.0


def cpi_improvement(shared_cpi: float, partitioned_cpi: float) -> float:
    """Relative CPI reduction (the paper's ~20 % / ~4 %)."""
    if shared_cpi == 0:
        return 0.0
    return (shared_cpi - partitioned_cpi) / shared_cpi


def format_reduction_factor(factor: float, precision: int = 2) -> str:
    """Render a miss-reduction factor, including the perfect case.

    A partitioned run with zero misses yields ``float("inf")``; the
    paper-style rendering for that is the infinity sign (every finite
    report would read ``>Nx`` for any N).
    """
    if factor == float("inf"):
        return "∞"
    return f"{factor:.{precision}f}x"


@dataclass
class MethodReport:
    """Everything one pipeline run produced."""

    app_name: str
    profile: ProfileResult
    plan: PartitionPlan
    solution: MckpSolution
    shared_metrics: RunMetrics
    partitioned_metrics: RunMetrics
    compositionality: CompositionalityReport
    items: List[str] = field(default_factory=list)

    # -- headline numbers --------------------------------------------------

    @property
    def miss_reduction_factor(self) -> float:
        """Shared misses / partitioned misses (the paper's 5x / 6.5x).

        A perfect partitioned run (zero misses) is ``float("inf")`` --
        0.0 would read as "no reduction" when the reduction is total.
        """
        return reduction_factor(
            self.shared_metrics.l2_misses, self.partitioned_metrics.l2_misses
        )

    @property
    def shared_miss_rate(self) -> float:
        """L2 miss rate with the conventional shared cache."""
        return self.shared_metrics.l2_miss_rate

    @property
    def partitioned_miss_rate(self) -> float:
        """L2 miss rate with the optimized partitioning."""
        return self.partitioned_metrics.l2_miss_rate

    @property
    def cpi_improvement(self) -> float:
        """Relative CPI reduction (the paper's ~20 % / ~4 %)."""
        return cpi_improvement(
            self.shared_metrics.mean_cpi, self.partitioned_metrics.mean_cpi
        )

    def summary(self) -> str:
        """Digest in the shape of the paper's §5 reporting."""
        shared, part = self.shared_metrics, self.partitioned_metrics
        lines = [
            f"application          : {self.app_name}",
            f"items optimized      : {len(self.items)}",
            f"plan units           : {self.plan.used_units}/{self.plan.total_units}",
            f"L2 miss rate         : {shared.l2_miss_rate:.2%} shared -> "
            f"{part.l2_miss_rate:.2%} partitioned",
            f"L2 misses            : {shared.l2_misses:,} -> {part.l2_misses:,} "
            f"({format_reduction_factor(self.miss_reduction_factor)} fewer)",
            f"CPI                  : {shared.mean_cpi:.3f} -> {part.mean_cpi:.3f} "
            f"({self.cpi_improvement:.1%} better)",
            f"cross-owner evicts   : {shared.l2_cross_evictions:,} -> "
            f"{part.l2_cross_evictions:,}",
            f"compositionality     : max diff "
            f"{self.compositionality.max_relative_difference:.2%} of total misses",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class OptimizationResult:
    """What the optimization step produced, explicitly.

    Earlier versions returned only the plan and stashed the solver
    solution on the method instance (``_last_solution``); callers that
    need the MCKP solution now receive it in the same return value.
    """

    plan: PartitionPlan
    solution: MckpSolution


class CompositionalMethod:
    """Profile -> optimize -> partition -> simulate -> validate."""

    def __init__(
        self,
        network_builder: Callable[[], ProcessNetwork],
        platform_config: Optional[CakeConfig] = None,
        method_config: Optional[MethodConfig] = None,
    ):
        self.network_builder = network_builder
        self.platform_config = (
            platform_config if platform_config is not None else CakeConfig()
        )
        self.method_config = (
            method_config if method_config is not None else MethodConfig()
        )

    # -- pipeline steps ----------------------------------------------------

    def profile(self) -> ProfileResult:
        """Step 1: measure the miss curves."""
        return profile_miss_curves(
            self.network_builder,
            self.platform_config,
            sizes=self.method_config.sizes,
            fifo_policy=self.method_config.fifo_policy,
            repeats=self.method_config.profile_repeats,
        )

    def optimize(self, profile: ProfileResult) -> OptimizationResult:
        """Steps 2+3: size buffers, solve the MCKP for the rest."""
        config = self.platform_config
        network = self.network_builder()
        buffers = buffer_units(
            network, config.unit_bytes, self.method_config.fifo_policy
        )
        budget = config.n_allocation_units - sum(buffers.values())
        if budget <= 0:
            raise OptimizationError(
                "buffer allocations already exceed the cache"
            )
        items = items_from_curves(
            profile.curve_list(optimized_item_names(network)),
            profile.sizes,
        )
        solution = SOLVERS[self.method_config.solver](items, budget)
        plan = PartitionPlan.from_parts(
            optimized=solution.allocation,
            buffers=buffers,
            total_units=config.n_allocation_units,
            predicted_misses=solution.total_misses,
        )
        return OptimizationResult(plan=plan, solution=solution)

    def apply(self, plan: Optional[PartitionPlan] = None) -> Platform:
        """Build a platform and program the plan.

        ``plan=None`` builds the conventional shared-cache platform;
        with a plan, a set-partitioned platform is programmed through
        the cache controller.
        """
        mode = (
            PartitionMode.SHARED if plan is None
            else PartitionMode.SET_PARTITIONED
        )
        platform = Platform(
            self.network_builder(), self.platform_config, mode=mode
        )
        if plan is not None:
            plan.apply(platform)
        return platform

    def simulate(
        self, plan: Optional[PartitionPlan] = None
    ) -> RunMetrics:
        """Step 4: run shared (plan=None) or partitioned (plan given)."""
        return self.apply(plan).run()

    def run(
        self,
        profile: Optional[ProfileResult] = None,
        shared_metrics: Optional[RunMetrics] = None,
    ) -> MethodReport:
        """The full pipeline.

        ``profile`` and ``shared_metrics`` can be injected by callers
        that already measured them (the experiment runner memoizes both
        across grid points); when omitted they are computed here.
        """
        if profile is None:
            profile = self.profile()
        optimization = self.optimize(profile)
        if shared_metrics is None:
            shared_metrics = self.simulate(None)
        partitioned_metrics = self.simulate(optimization.plan)
        network = self.network_builder()
        items = optimized_item_names(network)
        compositionality = compare_expected_simulated(
            profile, optimization.plan, partitioned_metrics, items
        )
        return MethodReport(
            app_name=network.name,
            profile=profile,
            plan=optimization.plan,
            solution=optimization.solution,
            shared_metrics=shared_metrics,
            partitioned_metrics=partitioned_metrics,
            compositionality=compositionality,
            items=items,
        )
