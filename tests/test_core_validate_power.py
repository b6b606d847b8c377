"""Tests for the compositionality validator and the energy model."""

import pytest

from repro.cake.metrics import RunMetrics
from repro.core import EnergyModel, MissCurve, PartitionPlan
from repro.core.validate import (
    CompositionalityReport,
    compare_expected_simulated,
)
from repro.core.profiling import ProfileResult
from repro.mem.cache import OwnerStats


def make_profile():
    profile = ProfileResult(sizes=[1, 2])
    profile.curves["task:a"] = MissCurve.from_pairs(
        "task:a", [(1, 100), (2, 40)]
    )
    profile.curves["task:b"] = MissCurve.from_pairs(
        "task:b", [(1, 60), (2, 50)]
    )
    return profile


def make_metrics(a_misses, b_misses):
    metrics = RunMetrics()
    metrics.l2_by_owner["task:a"] = OwnerStats(accesses=1000, misses=a_misses)
    metrics.l2_by_owner["task:b"] = OwnerStats(accesses=1000, misses=b_misses)
    return metrics


def test_perfect_match_is_compositional():
    plan = PartitionPlan.from_parts(
        {"task:a": 2, "task:b": 1}, {}, total_units=16
    )
    report = compare_expected_simulated(
        make_profile(), plan, make_metrics(40, 60), ["task:a", "task:b"]
    )
    assert report.max_relative_difference == 0.0
    assert report.is_compositional()


def test_deviation_detected():
    plan = PartitionPlan.from_parts(
        {"task:a": 2, "task:b": 1}, {}, total_units=16
    )
    metrics = make_metrics(40, 90)  # task:b misses 30 more than expected
    report = compare_expected_simulated(
        make_profile(), plan, metrics, ["task:a", "task:b"]
    )
    assert report.max_relative_difference == pytest.approx(30 / 130)
    assert not report.is_compositional(tolerance=0.02)
    assert ("task:b", 60, 90) in report.rows


def test_empty_report_is_trivially_compositional():
    report = CompositionalityReport()
    assert report.max_relative_difference == 0.0
    assert report.is_compositional()


def test_energy_breakdown_components():
    metrics = RunMetrics(elapsed_cycles=10_000, dram_lines=100)
    metrics.l2_by_owner["x"] = OwnerStats(accesses=5000)
    model = EnergyModel(l2_access_energy=1.0, dram_line_energy=20.0,
                        static_power_per_cycle=0.001)
    breakdown = model.evaluate(metrics)
    assert breakdown.l2_energy == 5000
    assert breakdown.dram_energy == 2000
    assert breakdown.static_energy == 10
    assert breakdown.total == 7010


def test_energy_improvement_zero_baseline():
    model = EnergyModel()
    empty = RunMetrics()
    assert model.improvement(empty, empty) == 0.0
