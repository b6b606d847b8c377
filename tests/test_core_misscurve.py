"""Tests for miss curves."""

import pytest

from repro.core.misscurve import MissCurve
from repro.errors import OptimizationError


def curve_from(pairs):
    return MissCurve.from_pairs("t", pairs)


def test_mean_of_repeated_samples():
    curve = MissCurve("t")
    curve.add_sample(4, 100)
    curve.add_sample(4, 200)
    assert curve.mean(4) == 150


def test_monotone_cleanup():
    curve = curve_from([(1, 100), (2, 120), (4, 50), (8, 60)])
    points = dict(curve.monotone_means())
    assert points[2] == 100  # lifted down to the running minimum
    assert points[8] == 50


def test_misses_at_interpolates_conservatively():
    curve = curve_from([(2, 100), (8, 20)])
    assert curve.misses_at(2) == 100
    assert curve.misses_at(4) == 100  # flat until the next sample
    assert curve.misses_at(8) == 20
    assert curve.misses_at(100) == 20  # flat beyond
    assert curve.misses_at(1) == 100  # conservative below


def test_validation():
    curve = MissCurve("t")
    with pytest.raises(OptimizationError):
        curve.add_sample(0, 10)
    with pytest.raises(OptimizationError):
        curve.add_sample(1, -5)
    with pytest.raises(OptimizationError):
        curve.mean(4)
    with pytest.raises(OptimizationError):
        MissCurve("x").misses_at(1)
