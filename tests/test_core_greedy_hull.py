"""Focused tests for the greedy solver's hull preprocessing and repair
pass -- the non-convex miss curves of real workloads are exactly where
naive marginal-gain greedy fails."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mckp import (
    MckpItem,
    _convex_hull,
    solve_mckp_dp,
    solve_mckp_greedy,
)


def test_hull_drops_dominated_points():
    hull = _convex_hull([(1, 100.0), (2, 100.0), (4, 100.0), (8, 10.0)])
    assert hull == [(1, 100.0), (8, 10.0)]


def test_hull_keeps_cheapest_of_equals():
    hull = _convex_hull([(1, 50.0), (2, 50.0)])
    assert hull == [(1, 50.0)]


def test_hull_convexifies_slopes():
    # Slopes: 1->2 = 10/u, 2->4 = 30/u (increasing) -> drop (2, 90).
    hull = _convex_hull([(1, 100.0), (2, 90.0), (4, 30.0)])
    assert hull == [(1, 100.0), (4, 30.0)]


def test_greedy_handles_flat_then_cliff_curves():
    """The Raster1 shape: flat for small sizes, cliff at the working
    set.  Plain greedy stalls on the flat prefix; hull greedy does not."""
    items = [
        MckpItem("cliff", ((1, 5000.0), (2, 5000.0), (4, 4900.0),
                           (8, 4800.0), (16, 4700.0), (32, 10.0))),
        MckpItem("convex", ((1, 500.0), (2, 250.0), (4, 120.0),
                            (8, 60.0), (16, 30.0), (32, 15.0))),
    ]
    capacity = 40
    dp = solve_mckp_dp(items, capacity)
    greedy = solve_mckp_greedy(items, capacity)
    assert greedy.allocation["cliff"] == 32 == dp.allocation["cliff"]
    assert greedy.total_misses <= dp.total_misses * 1.05


def test_greedy_repair_spends_stranded_budget():
    # The first upgrade of "big" (1 -> 32) is unaffordable after "small"
    # eats some budget; the repair pass must still grab a middle step.
    items = [
        MckpItem("big", ((1, 1000.0), (8, 400.0), (32, 0.0))),
        MckpItem("small", ((1, 500.0), (2, 0.0))),
    ]
    greedy = solve_mckp_greedy(items, capacity=12)
    assert greedy.allocation["small"] == 2
    assert greedy.allocation["big"] == 8
    assert greedy.total_misses == 400.0


@settings(max_examples=50)
@given(capacity=st.integers(2, 40), data=st.data())
def test_property_greedy_feasible_and_reasonable(capacity, data):
    """Greedy always returns a feasible solution, never worse than the
    all-minimal allocation, on random monotone curves."""
    n_items = data.draw(st.integers(1, 4))
    items = []
    for i in range(n_items):
        sizes = sorted(data.draw(st.sets(st.integers(1, 10), min_size=1,
                                         max_size=4)))
        misses = sorted(
            (float(data.draw(st.integers(0, 1000))) for _ in sizes),
            reverse=True,
        )
        items.append(MckpItem(f"i{i}", tuple(zip(sizes, misses))))
    minimal = sum(item.choices[0][0] for item in items)
    if minimal > capacity:
        return  # infeasible instances are covered elsewhere
    greedy = solve_mckp_greedy(items, capacity)
    assert greedy.total_units <= capacity
    baseline = sum(item.choices[0][1] for item in items)
    assert greedy.total_misses <= baseline + 1e-9
    dp = solve_mckp_dp(items, capacity)
    assert greedy.total_misses >= dp.total_misses - 1e-9
