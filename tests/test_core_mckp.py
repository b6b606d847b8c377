"""Tests for the MCKP solvers (DP, greedy, brute force, MILP)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mckp import (
    MckpItem,
    items_from_curves,
    solve_mckp_bruteforce,
    solve_mckp_dp,
    solve_mckp_greedy,
)
from repro.core.milp import solve_mckp_milp
from repro.core.misscurve import MissCurve
from repro.errors import OptimizationError


def item(name, *choices):
    return MckpItem(name=name, choices=tuple(choices))


def test_dp_picks_the_obvious_optimum():
    items = [
        item("a", (1, 100), (2, 10)),
        item("b", (1, 50), (2, 45)),
    ]
    solution = solve_mckp_dp(items, capacity=3)
    assert solution.allocation == {"a": 2, "b": 1}
    assert solution.total_misses == 60


def test_dp_infeasible():
    items = [item("a", (4, 10))]
    with pytest.raises(OptimizationError):
        solve_mckp_dp(items, capacity=3)


def test_dp_prefers_spare_units_at_equal_misses():
    items = [item("a", (1, 10), (2, 10))]
    solution = solve_mckp_dp(items, capacity=4)
    assert solution.allocation["a"] == 1


def test_greedy_on_convex_curves_matches_dp():
    items = [
        item("a", (1, 100), (2, 60), (4, 30), (8, 25)),
        item("b", (1, 80), (2, 40), (4, 35), (8, 34)),
        item("c", (1, 10), (2, 9), (4, 9), (8, 9)),
    ]
    for capacity in (3, 6, 10, 24):
        dp = solve_mckp_dp(items, capacity)
        greedy = solve_mckp_greedy(items, capacity)
        assert greedy.total_units <= capacity
        assert greedy.total_misses <= dp.total_misses * 1.25 + 1e-9


def test_greedy_infeasible():
    with pytest.raises(OptimizationError):
        solve_mckp_greedy([item("a", (4, 1))], capacity=2)


def test_milp_matches_dp():
    items = [
        item("a", (1, 100), (2, 60), (4, 30)),
        item("b", (1, 80), (2, 40), (4, 12)),
        item("c", (2, 55), (4, 20), (8, 19)),
    ]
    for capacity in (5, 8, 16):
        dp = solve_mckp_dp(items, capacity)
        milp = solve_mckp_milp(items, capacity)
        assert milp.total_misses == pytest.approx(dp.total_misses)
        assert milp.total_units <= capacity


def test_milp_empty():
    assert solve_mckp_milp([], 10).total_misses == 0.0


def test_item_validation():
    with pytest.raises(OptimizationError):
        MckpItem("x", choices=())
    with pytest.raises(OptimizationError):
        MckpItem("x", choices=((2, 1.0), (1, 2.0)))
    with pytest.raises(OptimizationError):
        MckpItem("x", choices=((0, 1.0),))


def test_items_from_curves_samples_menu():
    curves = [MissCurve.from_pairs("a", [(1, 10), (4, 2)])]
    items = items_from_curves(curves, sizes=[1, 2, 4])
    assert items[0].choices == ((1, 10.0), (2, 10.0), (4, 2.0))


@settings(max_examples=40)
@given(
    n_items=st.integers(1, 4),
    capacity=st.integers(1, 20),
    data=st.data(),
)
def test_property_dp_equals_bruteforce(n_items, capacity, data):
    items = []
    for i in range(n_items):
        n_choices = data.draw(st.integers(1, 3))
        sizes = sorted(data.draw(
            st.lists(st.integers(1, 8), min_size=n_choices,
                     max_size=n_choices, unique=True)
        ))
        choices = tuple(
            (size, float(data.draw(st.integers(0, 100)))) for size in sizes
        )
        items.append(MckpItem(f"i{i}", choices))
    try:
        dp = solve_mckp_dp(items, capacity)
    except OptimizationError:
        with pytest.raises(OptimizationError):
            solve_mckp_bruteforce(items, capacity)
        return
    brute = solve_mckp_bruteforce(items, capacity)
    assert dp.total_misses == pytest.approx(brute.total_misses)
    assert dp.total_units <= capacity
