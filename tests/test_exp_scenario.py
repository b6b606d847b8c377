"""Scenario specs: registry, serialisation, content hashes, grids,
and the measurement codec."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cake import CakeConfig
from repro.core import BufferPolicy, MethodConfig, MissCurve
from repro.core.profiling import ProfileResult
from repro.errors import ConfigurationError
from repro.exp import (
    Grid,
    Scenario,
    WorkloadSpec,
    profile_from_payload,
    profile_to_payload,
    register_workload,
    registered_workloads,
    sweep,
    workload_builder,
)
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.partition import PartitionMode


def small_cake():
    return CakeConfig(
        n_cpus=2,
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
            l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
        ),
    )


def base_scenario(**method_kwargs):
    return Scenario(
        workload=WorkloadSpec("pipeline", {"n_stages": 3, "n_tokens": 8}),
        cake=small_cake(),
        method=MethodConfig(sizes=[1, 2], **method_kwargs),
    )


# -- workload registry ---------------------------------------------------------


def test_builtin_workloads_registered():
    names = registered_workloads()
    assert {"two_jpeg_canny", "mpeg2", "pipeline"} <= set(names)


def test_workload_builder_applies_kwargs():
    builder = workload_builder("pipeline", n_stages=4, n_tokens=2)
    network = builder()
    assert len(network.tasks) == 4


def test_unknown_workload_rejected():
    with pytest.raises(ConfigurationError):
        workload_builder("frame_interpolator")
    with pytest.raises(ConfigurationError):
        WorkloadSpec("frame_interpolator").build()


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError):
        register_workload("pipeline", lambda: None)


# -- scenario identity ---------------------------------------------------------


def test_scenario_id_is_stable():
    assert base_scenario().scenario_id == base_scenario().scenario_id
    # The hash is content-derived, so it is stable across sessions too;
    # a change here means every stored scenario_id silently rotted.
    assert len(base_scenario().scenario_id) == 16


def test_scenario_id_covers_every_knob_but_the_tag():
    from dataclasses import replace

    base = base_scenario()
    assert replace(base, tag="label").scenario_id == base.scenario_id
    different = [
        replace(base, workload=WorkloadSpec("pipeline", {"n_stages": 4})),
        base.with_method(solver="greedy"),
        base.with_method(fifo_policy=BufferPolicy.ALL_MISS),
        base.with_cake(n_cpus=4),
        replace(base, cake=base.cake.with_l2_size(128 * 1024)),
        replace(base, partition_mode=PartitionMode.SHARED),
        replace(base, seed=7),
    ]
    ids = {scenario.scenario_id for scenario in different}
    assert base.scenario_id not in ids
    assert len(ids) == len(different)


def test_scenario_roundtrips_through_dict():
    base = base_scenario()
    clone = Scenario.from_dict(base.to_dict())
    assert clone.scenario_id == base.scenario_id
    assert clone.profile_key == base.profile_key
    assert clone.effective_cake == base.effective_cake
    assert clone.to_dict() == base.to_dict()


def test_seed_override_folds_into_cake():
    from dataclasses import replace

    base = base_scenario()
    seeded = replace(base, seed=99)
    assert seeded.effective_cake.seed == 99
    assert seeded.scenario_id != base.scenario_id
    # Same seed spelled two ways is the same scenario.
    explicit = replace(base, cake=replace(base.cake, seed=99))
    assert explicit.scenario_id == seeded.scenario_id


# -- measurement codec ---------------------------------------------------------


def test_profile_roundtrip():
    """A profile survives the JSON payload exactly: repeated samples at
    one size keep their order, so every mean is bit-identical."""
    profile = ProfileResult(sizes=[1, 2, 4])
    curve = MissCurve("task:a")
    curve.add_sample(1, 100)
    curve.add_sample(1, 120)  # repeated measurement
    curve.add_sample(2, 60)
    curve.add_sample(4, 10)
    profile.curves["task:a"] = curve
    profile.accesses["task:a"] = {1: 500.0, 2: 500.0, 4: 500.0}
    profile.instructions["a"] = 12345

    loaded = profile_from_payload(
        json.loads(json.dumps(profile_to_payload(profile)))
    )
    assert loaded.sizes == profile.sizes
    assert loaded.instructions == profile.instructions
    restored = loaded.curves["task:a"]
    for units in (1, 2, 4):
        assert restored.mean(units) == curve.mean(units)
    assert loaded.accesses["task:a"][2] == 500.0


def test_importing_repro_exp_loads_no_reporting_code():
    """The codec lives in repro.exp, so the experiment package does not
    pull in repro.analysis."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.exp; print(sorted(name for name in sys.modules"
         " if name.startswith('repro.analysis')))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


# -- profile key ---------------------------------------------------------------


def test_profile_key_shared_across_l2_capacity_and_solver():
    from dataclasses import replace

    base = base_scenario()
    assert base.profile_key == \
        replace(base, cake=base.cake.with_l2_size(128 * 1024)).profile_key
    assert base.profile_key == base.with_method(solver="milp").profile_key
    assert base.profile_key == \
        replace(base, partition_mode=PartitionMode.WAY_PARTITIONED).profile_key


def test_profile_key_tracks_profiling_inputs():
    from dataclasses import replace

    base = base_scenario()
    assert base.with_method(sizes=[1, 4]).profile_key != base.profile_key
    assert base.with_method(profile_repeats=2).profile_key != base.profile_key
    assert base.with_method(
        fifo_policy=BufferPolicy.ALL_MISS
    ).profile_key != base.profile_key
    assert base.with_cake(n_cpus=4).profile_key != base.profile_key
    assert replace(base, seed=7).profile_key != base.profile_key
    # Associativity changes unit_bytes, so it must re-profile.
    assert replace(
        base, cake=base.cake.with_l2_ways(8)
    ).profile_key != base.profile_key


def test_default_sizes_menu_resolved_per_l2_capacity():
    from dataclasses import replace

    auto = Scenario(
        workload=WorkloadSpec("pipeline"), cake=small_cake(),
        method=MethodConfig(),
    )
    assert auto.resolved_sizes == [1, 2, 4, 8]  # 32 units // 4
    bigger = replace(auto, cake=auto.cake.with_l2_size(128 * 1024))
    assert bigger.resolved_sizes == [1, 2, 4, 8, 16]
    # Different resolved menus -> different profiling work.
    assert auto.profile_key != bigger.profile_key


# -- grids ---------------------------------------------------------------------


def test_sweep_expands_cartesian_product_in_order():
    scenarios = sweep(
        base_scenario(),
        l2_size_kb=[64, 128],
        solver=["dp", "greedy"],
    )
    assert len(scenarios) == 4
    sizes = [s.cake.hierarchy.l2_geometry.size_bytes // 1024 for s in scenarios]
    solvers = [s.method.solver for s in scenarios]
    assert sizes == [64, 64, 128, 128]  # last axis varies fastest
    assert solvers == ["dp", "greedy", "dp", "greedy"]


def test_grid_points_report_axis_assignments():
    grid = Grid(base_scenario()).axis("n_cpus", [1, 2]).axis("seed", [1, 2])
    assert grid.axis_names == ["n_cpus", "seed"]
    assert len(grid) == 4
    points = list(grid.points())
    assert points[0][0] == {"n_cpus": 1, "seed": 1}
    assert points[-1][0] == {"n_cpus": 2, "seed": 2}
    assert points[-1][1].effective_cake.n_cpus == 2


def test_grid_workload_axis_accepts_names_and_specs():
    scenarios = sweep(
        base_scenario(),
        workload=[
            "pipeline",
            ("pipeline", {"n_stages": 5}),
            WorkloadSpec("mpeg2", {"scale": "test"}),
        ],
    )
    assert [s.workload.name for s in scenarios] == \
        ["pipeline", "pipeline", "mpeg2"]
    assert scenarios[1].workload.kwargs == {"n_stages": 5}


def test_grid_rejects_unknown_axis_and_empty_values():
    with pytest.raises(ConfigurationError):
        sweep(base_scenario(), l3_size=[1])
    with pytest.raises(ConfigurationError):
        Grid(base_scenario()).axis("solver", [])


def test_grid_custom_axis_apply():
    from dataclasses import replace

    def double_quantum(scenario, value):
        return scenario.with_cake(quantum_cycles=value)

    grid = Grid(base_scenario()).axis(
        "quantum", [10_000, 20_000], apply=double_quantum
    )
    scenarios = grid.scenarios()
    assert [s.cake.quantum_cycles for s in scenarios] == [10_000, 20_000]


def test_mode_axis_accepts_enum_and_string():
    scenarios = sweep(
        base_scenario(), mode=["shared", PartitionMode.SET_PARTITIONED]
    )
    assert scenarios[0].partition_mode is PartitionMode.SHARED
    assert scenarios[1].partition_mode is PartitionMode.SET_PARTITIONED
    assert not scenarios[0].needs_profile
    assert scenarios[1].needs_profile


def test_describe_mentions_the_key_axes():
    text = base_scenario().describe()
    assert "pipeline" in text and "l2=64KB" in text and "solver=dp" in text


# -- property-based identity ---------------------------------------------------
#
# The content hashes are load-bearing for the persistent profile cache
# (identical keys must mean identical work), so their invariants get
# randomized coverage: hypothesis when it is installed, seeded-random
# loops otherwise -- both drive the same ``_check_*`` properties
# through a ``random.Random``-compatible source.

import random  # noqa: E402

from repro.exp import AXES  # noqa: E402

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs no hypothesis
    HAVE_HYPOTHESIS = False

#: (axis name, candidate values) -- all combinations keep the default
#: 512 KB / 64 B-line cake geometrically valid.
AXIS_DOMAIN = [
    ("l2_size_kb", [128, 256, 512]),
    ("l2_ways", [2, 4, 8]),
    ("n_cpus", [1, 2, 4]),
    ("solver", ["dp", "greedy", "milp"]),
    ("sizes", [[1, 2], [1, 2, 4], [2, 4, 8]]),
    ("seed", [1, 7, 20050307]),
    ("fifo_policy", ["all-hit", "all-miss"]),
    ("scheduling", ["static", "migrate"]),
]


def _apply_axes(scenario, choices):
    for name, value in choices:
        scenario = AXES[name](scenario, value)
    return scenario


def _check_axis_order_independence(rng):
    """Distinct axes commute: any application order, one scenario_id."""
    choices = [
        (name, rng.choice(values))
        for name, values in AXIS_DOMAIN
        if rng.random() < 0.7
    ]
    base = Scenario(
        workload=WorkloadSpec("pipeline", {"n_stages": 3, "n_tokens": 8}),
        method=MethodConfig(sizes=[1, 2]),
    )
    forward = _apply_axes(base, choices)
    shuffled = _apply_axes(base, rng.sample(choices, len(choices)))
    assert forward.scenario_id == shuffled.scenario_id
    assert forward.profile_key == shuffled.profile_key
    assert forward.baseline_key == shuffled.baseline_key
    # And the identity survives the JSON round-trip.
    clone = Scenario.from_dict(forward.to_dict())
    assert clone.scenario_id == forward.scenario_id
    assert clone.profile_key == forward.profile_key


def _check_l2_sets_round_trip(rng):
    cake = CakeConfig()
    original_sets = cake.hierarchy.l2_geometry.sets
    sets = rng.choice([256, 512, 1024, 2048, 4096])
    resized = cake.with_l2_sets(sets)
    assert resized.hierarchy.l2_geometry.sets == sets
    assert resized.hierarchy.l2_geometry.ways == \
        cake.hierarchy.l2_geometry.ways
    assert resized.with_l2_sets(original_sets) == cake
    scenario = Scenario(workload=WorkloadSpec("pipeline"), cake=cake,
                        method=MethodConfig(sizes=[1, 2]))
    from dataclasses import replace

    restored = replace(scenario, cake=resized.with_l2_sets(original_sets))
    assert restored.scenario_id == scenario.scenario_id


def _check_l2_ways_round_trip(rng):
    cake = CakeConfig()
    original_ways = cake.hierarchy.l2_geometry.ways
    ways = rng.choice([2, 4, 8, 16])
    rewayed = cake.with_l2_ways(ways)
    assert rewayed.hierarchy.l2_geometry.ways == ways
    # Capacity is preserved: sets shrink as ways grow.
    assert rewayed.hierarchy.l2_geometry.size_bytes == \
        cake.hierarchy.l2_geometry.size_bytes
    assert rewayed.with_l2_ways(original_ways) == cake


def _check_capacity_and_solver_share_profile_key(rng):
    """The invariant the cache's cross-sweep reuse rests on."""
    from dataclasses import replace

    base = base_scenario()
    variant = base
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["size", "sets", "solver", "mode"])
        if kind == "size":
            variant = replace(
                variant,
                cake=variant.cake.with_l2_size(
                    rng.choice([64, 128, 256]) * 1024
                ),
            )
        elif kind == "sets":
            variant = replace(
                variant,
                cake=variant.cake.with_l2_sets(
                    rng.choice([128, 256, 512, 1024])
                ),
            )
        elif kind == "solver":
            variant = variant.with_method(
                solver=rng.choice(["dp", "greedy", "milp"])
            )
        else:
            variant = replace(
                variant,
                partition_mode=rng.choice(
                    [PartitionMode.SET_PARTITIONED,
                     PartitionMode.WAY_PARTITIONED]
                ),
            )
    assert variant.profile_key == base.profile_key


_PROPERTIES = [
    _check_axis_order_independence,
    _check_l2_sets_round_trip,
    _check_l2_ways_round_trip,
    _check_capacity_and_solver_share_profile_key,
]

if HAVE_HYPOTHESIS:

    @pytest.mark.parametrize("prop", _PROPERTIES, ids=lambda p: p.__name__)
    @settings(max_examples=25, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def test_identity_properties(prop, rnd):
        prop(rnd)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("prop", _PROPERTIES, ids=lambda p: p.__name__)
    def test_identity_properties(prop):
        for case in range(25):
            prop(random.Random(f"20050307-{case}-{prop.__name__}"))
