"""Miss curves: misses of one owner as a function of allocated cache.

§3.2 defines ``M_i^s = M_i(z^s)``, the number of misses of task ``i``
with ``z^s`` cache sets, "obtained by simulation or program analysis",
averaged over several simulations.  :class:`MissCurve` stores these
samples (in allocation *units*), cleans them up (averaging repeated
measurements, enforcing monotonicity -- more cache never causes more
misses in a compositional system) and interpolates between sampled
sizes conservatively.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.errors import OptimizationError

__all__ = ["MissCurve"]


@dataclass
class MissCurve:
    """Misses as a function of allocated units for one owner."""

    owner: str
    _samples: Dict[int, List[float]] = field(default_factory=dict)

    def add_sample(self, units: int, misses: float) -> None:
        """Record one measurement of misses at ``units`` of cache."""
        if units <= 0:
            raise OptimizationError(
                f"{self.owner}: sample at non-positive size {units}"
            )
        if misses < 0:
            raise OptimizationError(f"{self.owner}: negative misses {misses}")
        self._samples.setdefault(units, []).append(float(misses))

    @property
    def sizes(self) -> List[int]:
        """Sampled sizes, ascending."""
        return sorted(self._samples)

    def mean(self, units: int) -> float:
        """Average measured misses at exactly ``units``."""
        try:
            values = self._samples[units]
        except KeyError:
            raise OptimizationError(
                f"{self.owner}: no sample at {units} units"
            ) from None
        return sum(values) / len(values)

    def monotone_means(self) -> List[Tuple[int, float]]:
        """(size, misses) pairs with monotone non-increasing misses.

        Raw measurements can be slightly non-monotone (timing noise,
        replacement artifacts); the cleanup takes a running minimum
        from small to large sizes, which is the standard conservative
        repair for miss curves.
        """
        points = []
        best = float("inf")
        for size in self.sizes:
            best = min(best, self.mean(size))
            points.append((size, best))
        return points

    def misses_at(self, units: int) -> float:
        """Misses at ``units``, conservatively interpolated.

        Between samples the curve is flat at the next-smaller sampled
        value (misses never assumed better than measured); below the
        smallest sample it extrapolates with the smallest sample's
        value (conservative for the optimizer: it cannot pretend tiny
        allocations are good); above the largest it is flat.
        """
        points = self.monotone_means()
        if not points:
            raise OptimizationError(f"{self.owner}: empty miss curve")
        sizes = [p[0] for p in points]
        idx = bisect_left(sizes, units)
        if idx < len(sizes) and sizes[idx] == units:
            return points[idx][1]
        if idx == 0:
            return points[0][1]
        return points[idx - 1][1]

    @classmethod
    def from_pairs(cls, owner: str, pairs: Iterable[Tuple[int, float]]) -> "MissCurve":
        """Build a curve from (units, misses) tuples."""
        curve = cls(owner)
        for units, misses in pairs:
            curve.add_sample(units, misses)
        return curve

    def __repr__(self) -> str:
        return f"<MissCurve {self.owner!r} sizes={self.sizes}>"
