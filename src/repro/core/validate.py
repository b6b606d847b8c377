"""Compositionality validation -- the Figure 3 experiment.

Figure 3 compares, per task, the number of misses *expected* from the
§3.2 model (the miss curve evaluated at the chosen allocation) against
the misses *simulated* in the full multi-application run with the best
partitioning.  The paper's acceptance criterion:

    "the largest difference for a task between the expected and
    simulated number of misses relative to the overall simulated
    number of misses is 2%"

Small residuals come from the effects the model neglects: task
switching, L1 state, bus contention.  Our simulator deliberately models
those effects (bus surcharge, DRAM bank conflicts, L1 reload after
switches), so the residuals are small but non-zero -- as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cake.metrics import RunMetrics
from repro.core.allocation import PartitionPlan
from repro.core.profiling import ProfileResult

__all__ = ["CompositionalityReport", "compare_expected_simulated"]


@dataclass
class CompositionalityReport:
    """Per-item expected vs simulated misses plus the §5 metric."""

    rows: List[Tuple[str, float, int]] = field(default_factory=list)
    total_simulated: int = 0

    @property
    def max_relative_difference(self) -> float:
        """``max_i |expected_i - simulated_i| / total_simulated``."""
        if self.total_simulated <= 0:
            return 0.0
        return max(
            (abs(expected - simulated) / self.total_simulated
             for _name, expected, simulated in self.rows),
            default=0.0,
        )

    def is_compositional(self, tolerance: float = 0.02) -> bool:
        """The paper's acceptance check (2 % by default)."""
        return self.max_relative_difference <= tolerance


def compare_expected_simulated(
    profile: ProfileResult,
    plan: PartitionPlan,
    metrics: RunMetrics,
    items: List[str],
) -> CompositionalityReport:
    """Build the Figure-3 comparison for the optimized items."""
    report = CompositionalityReport(total_simulated=metrics.l2_misses)
    for item in items:
        expected = profile.curve(item).misses_at(plan.units_of(item))
        stats = metrics.l2_by_owner.get(item)
        simulated = stats.misses if stats else 0
        report.rows.append((item, expected, simulated))
    return report
