"""Buffer-sizing policies and the final partition plan.

§3 and §4.1 of the paper fix how communication buffers are cached:

- **FIFOs**: "The FIFOs access predictability is achieved by allocating
  them cache of the same size as the FIFO size" -- the *all-hit*
  policy.  The all-miss alternative (minimal partition, every access
  misses but predictably) is also implemented for the FIFO-policy
  ablation, as is the unpredictable undersized middle ground the paper
  warns about.
- **Frame buffers**: an exclusive partition sized to the buffer's
  declared access window (write streams need a strip; fully re-read
  reference frames want the whole frame when it fits).
- **Shared static data** (appl/rt data and bss): these are optimized
  together with the tasks -- they appear as items in the MCKP, which is
  how the paper's Tables 1 and 2 list them next to the tasks.

:class:`PartitionPlan` combines the fixed buffer allocations with the
optimizer's task allocations and programs the platform.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cake.platform import Platform
from repro.errors import OptimizationError
from repro.kpn.graph import ProcessNetwork
from repro.rtos.cachectl import CacheController

__all__ = [
    "BufferPolicy",
    "PartitionPlan",
    "WayPlan",
    "buffer_units",
    "optimize_way_assignment",
]

#: The four shared static regions that get their own table rows.
SHARED_ITEMS = ("appl.data", "appl.bss", "rt.data", "rt.bss")


class BufferPolicy(enum.Enum):
    """How FIFO buffers are sized (§3's predictability alternatives)."""

    ALL_HIT = "all-hit"  # cache = FIFO size; only cold misses
    ALL_MISS = "all-miss"  # minimal cache; every access misses
    UNDERSIZED = "undersized"  # half the ring: the unpredictable case


def buffer_units(
    network: ProcessNetwork,
    unit_bytes: int,
    fifo_policy: BufferPolicy = BufferPolicy.ALL_HIT,
) -> Dict[str, int]:
    """Fixed unit allocations for every FIFO and frame buffer."""
    allocation: Dict[str, int] = {}
    for name, fifo in network.fifos.items():
        if fifo_policy is BufferPolicy.ALL_HIT:
            units = -(-fifo.buffer_bytes // unit_bytes)
        elif fifo_policy is BufferPolicy.ALL_MISS:
            units = 1
        else:
            units = max(1, fifo.buffer_bytes // (2 * unit_bytes))
        allocation[f"fifo:{name}"] = max(1, units)
    for name, frame in network.frames.items():
        allocation[f"frame:{name}"] = max(
            1, -(-frame.window_bytes // unit_bytes)
        )
    return allocation


@dataclass
class PartitionPlan:
    """A complete owner-name -> units allocation for one application."""

    units_by_owner: Dict[str, int] = field(default_factory=dict)
    total_units: int = 0
    #: Objective value the optimizer predicted (expected misses of the
    #: optimized items only; buffers are policy-fixed).
    predicted_misses: Optional[float] = None

    def __post_init__(self) -> None:
        for owner, units in self.units_by_owner.items():
            if units <= 0:
                raise OptimizationError(
                    f"plan gives owner {owner!r} {units} units"
                )

    @property
    def used_units(self) -> int:
        """Units claimed by the plan."""
        return sum(self.units_by_owner.values())

    @property
    def spare_units(self) -> int:
        """Unallocated units (kept free / shared pool)."""
        return self.total_units - self.used_units

    def validate(self) -> None:
        """Check the plan fits its capacity."""
        if self.used_units > self.total_units:
            raise OptimizationError(
                f"plan uses {self.used_units} of {self.total_units} units"
            )

    def units_of(self, owner: str) -> int:
        """Units given to ``owner`` (0 when unpartitioned)."""
        return self.units_by_owner.get(owner, 0)

    def task_rows(self) -> List[tuple]:
        """(task name, units) rows -- the Tables 1/2 task section."""
        return [
            (name[len("task:"):], units)
            for name, units in self.units_by_owner.items()
            if name.startswith("task:")
        ]

    def data_rows(self) -> List[tuple]:
        """(region, units) rows -- the Tables 1/2 data section."""
        return [
            (name, units)
            for name, units in self.units_by_owner.items()
            if name in SHARED_ITEMS
        ]

    def buffer_rows(self) -> List[tuple]:
        """(buffer, units) rows -- FIFOs and frame buffers."""
        return [
            (name, units)
            for name, units in self.units_by_owner.items()
            if name.startswith(("fifo:", "frame:"))
        ]

    def apply(self, platform: Platform) -> None:
        """Program the platform's L2 translation tables from this plan."""
        self.validate()
        platform.cache_controller.program_set_partitions(self.units_by_owner)

    @classmethod
    def from_parts(
        cls,
        optimized: Dict[str, int],
        buffers: Dict[str, int],
        total_units: int,
        predicted_misses: Optional[float] = None,
    ) -> "PartitionPlan":
        """Merge optimizer output with policy-fixed buffer allocations."""
        merged = dict(buffers)
        for owner, units in optimized.items():
            if owner in merged:
                raise OptimizationError(f"owner {owner!r} allocated twice")
            merged[owner] = units
        plan = cls(
            units_by_owner=merged,
            total_units=total_units,
            predicted_misses=predicted_misses,
        )
        plan.validate()
        return plan


@dataclass(frozen=True)
class WayPlan:
    """A way-granularity allocation for column-cached (way) scenarios.

    The paper criticises way partitioning exactly because its
    granularity is the associativity; this plan makes the restriction
    explicit: at most ``total_ways`` owners hold exclusive columns,
    everyone else keeps shared allocation rights.
    """

    ways_by_owner: Dict[str, tuple]
    total_ways: int
    predicted_misses: float = 0.0


def optimize_way_assignment(curves, n_ways: int, total_units: int) -> WayPlan:
    """Dedicated optimizer for way-partitioned scenarios.

    Solves the way-granularity analogue of the set MCKP directly on the
    profiled miss curves: every owner picks ``k`` exclusive ways,
    ``0 <= k <= n_ways``, the total not exceeding ``n_ways``, minimising
    the predicted misses.  ``k`` ways hold the capacity of
    ``k * total_units / n_ways`` set-allocation units, so the choice is
    priced at ``curve.misses_at()`` of that size; ``k = 0`` (no
    exclusive columns -- the owner falls back to shared allocation
    rights) is priced conservatively at the curve's smallest profiled
    size.  A zero-way choice is legal here but not expressible as a
    :class:`~repro.core.mckp.MckpItem` choice (sizes must be >= 1),
    which is why this is a standalone exact DP rather than a call into
    the set solver -- and why way- and set-mode plans legitimately
    diverge: the way optimizer ranks owners by miss reduction *at
    column granularity*, not by the set plan's fine-grained unit counts.

    Ties are broken lexicographically on (misses, owners left shared,
    total ways used): at equal misses, isolating an owner beats leaving
    it in the shared pool (isolation is the method's point), and after
    that spare columns stay free for arrivals.  Way indices are packed
    contiguously in input (curve) order.
    """
    if n_ways <= 0:
        raise OptimizationError(f"n_ways must be positive, got {n_ways}")
    if total_units <= 0:
        raise OptimizationError(
            f"total_units must be positive, got {total_units}"
        )
    curves = list(curves)
    costs: List[List[float]] = []
    for curve in curves:
        row = [float(curve.misses_at(0))]
        for k in range(1, n_ways + 1):
            units = max(1, (k * total_units) // n_ways)
            row.append(float(curve.misses_at(units)))
        costs.append(row)

    # DP cells hold (misses, owners-with-zero-ways); compared as
    # tuples, so at equal misses the fewer-shared-owners allocation
    # wins.
    infinity = (float("inf"), 0)
    n_items = len(curves)
    best = [[infinity] * (n_ways + 1) for _ in range(n_items + 1)]
    chosen = [[0] * (n_ways + 1) for _ in range(n_items + 1)]
    best[0][0] = (0.0, 0)
    for i in range(1, n_items + 1):
        for used in range(n_ways + 1):
            for k in range(used + 1):
                prior = best[i - 1][used - k]
                if prior == infinity:
                    continue
                cand = (prior[0] + costs[i - 1][k], prior[1] + (k == 0))
                # Strict < (with ascending k) prefers the smallest
                # sufficient k among isolating choices: spare columns
                # stay free for arrivals (mirrors the set solver's
                # preference for spare units).
                if cand < best[i][used]:
                    best[i][used] = cand
                    chosen[i][used] = k

    used = min(range(n_ways + 1), key=lambda w: (*best[n_items][w], w))
    predicted = best[n_items][used][0]
    allocation: List[int] = []
    for i in range(n_items, 0, -1):
        k = chosen[i][used]
        allocation.append(k)
        used -= k
    allocation.reverse()

    ways_by_owner: Dict[str, tuple] = {}
    next_way = 0
    for curve, k in zip(curves, allocation):
        if k <= 0:
            continue
        ways_by_owner[curve.owner] = tuple(range(next_way, next_way + k))
        next_way += k
    return WayPlan(
        ways_by_owner=ways_by_owner,
        total_ways=n_ways,
        predicted_misses=predicted,
    )
