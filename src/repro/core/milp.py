"""MILP backend for the §3.2 formulation via scipy (HiGHS).

This is the formulation exactly as the paper writes it: binary
variables ``x_i^s`` selecting size ``z^s`` for item ``i``,

    minimize   sum_i sum_s x_i^s * M_i^s
    subject to sum_s x_i^s = 1            for every item i
               sum_i sum_s x_i^s * z^s <= capacity

The exact DP in :mod:`repro.core.mckp` solves the same problem; the
test suite asserts both agree, which cross-validates the model
encoding.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.mckp import MckpItem, MckpSolution
from repro.errors import OptimizationError

__all__ = ["solve_mckp_milp"]


def solve_mckp_milp(items: Sequence[MckpItem], capacity: int) -> MckpSolution:
    """Solve the partition-sizing MILP with ``scipy.optimize.milp``.

    scipy is imported here, not at module level: only a ``milp`` solve
    pays for loading it.
    """
    from scipy import optimize, sparse

    if not items:
        return MckpSolution(allocation={}, total_misses=0.0, total_units=0)
    n_vars = sum(len(item.choices) for item in items)
    costs = np.empty(n_vars)
    sizes = np.empty(n_vars)
    var_of: List[tuple] = []
    offset = 0
    rows, cols, vals = [], [], []
    for i, item in enumerate(items):
        for k, (units, misses) in enumerate(item.choices):
            costs[offset] = misses
            sizes[offset] = units
            var_of.append((i, k))
            rows.append(i)
            cols.append(offset)
            vals.append(1.0)
            offset += 1
    # One-choice-per-item equality rows.
    selection = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(items), n_vars)
    )
    constraints = [
        optimize.LinearConstraint(selection, lb=1.0, ub=1.0),
        optimize.LinearConstraint(sizes[None, :], lb=0.0, ub=float(capacity)),
    ]
    result = optimize.milp(
        c=costs,
        constraints=constraints,
        integrality=np.ones(n_vars),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    if not result.success:
        raise OptimizationError(f"MILP solver failed: {result.message}")
    chosen = np.flatnonzero(np.round(result.x) > 0.5)
    allocation: Dict[str, int] = {}
    total_misses = 0.0
    for var in chosen:
        i, k = var_of[var]
        item = items[i]
        if item.name in allocation:
            raise OptimizationError(
                f"MILP returned two choices for {item.name!r}"
            )  # pragma: no cover
        allocation[item.name] = item.choices[k][0]
        total_misses += item.choices[k][1]
    if len(allocation) != len(items):
        raise OptimizationError("MILP returned an incomplete selection")
    return MckpSolution(
        allocation=allocation,
        total_misses=total_misses,
        total_units=sum(allocation.values()),
    )
