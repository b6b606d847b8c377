"""Tests for allocation policies, profiling, throughput/power and the
end-to-end method at test scale."""

from functools import partial

import pytest

from repro.apps import two_jpeg_canny_workload
from repro.apps.synthetic import make_pipeline
from repro.cake import CakeConfig
from repro.core import (
    BufferPolicy,
    CompositionalMethod,
    EnergyModel,
    MethodConfig,
    PartitionPlan,
    ThroughputModel,
    assign_tasks_lpt,
    profile_miss_curves,
)
from repro.core.allocation import buffer_units
from repro.core.profiling import optimized_item_names, profiling_passes
from repro.errors import OptimizationError
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig


def small_config():
    return CakeConfig(
        n_cpus=2,
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
            l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
        ),
    )


# -- buffer policies -----------------------------------------------------------


def test_buffer_units_all_hit_covers_rings():
    network = make_pipeline(token_bytes=2048, capacity_tokens=4)
    config = small_config()
    units = buffer_units(network, config.unit_bytes, BufferPolicy.ALL_HIT)
    assert units["fifo:link0"] == 4  # 8 KB ring / 2 KB units


def test_buffer_units_all_miss_minimal():
    network = make_pipeline(token_bytes=2048, capacity_tokens=4)
    units = buffer_units(network, small_config().unit_bytes,
                         BufferPolicy.ALL_MISS)
    assert all(v == 1 for k, v in units.items() if k.startswith("fifo:"))


def test_buffer_units_undersized_half():
    network = make_pipeline(token_bytes=2048, capacity_tokens=4)
    units = buffer_units(network, small_config().unit_bytes,
                         BufferPolicy.UNDERSIZED)
    assert units["fifo:link0"] == 2


# -- partition plan -----------------------------------------------------------


def test_plan_merge_and_rows():
    plan = PartitionPlan.from_parts(
        optimized={"task:a": 4, "appl.data": 2},
        buffers={"fifo:f": 1, "frame:g": 2},
        total_units=16,
    )
    assert plan.used_units == 9 and plan.spare_units == 7
    assert plan.task_rows() == [("a", 4)]
    assert plan.data_rows() == [("appl.data", 2)]
    assert sorted(plan.buffer_rows()) == [("fifo:f", 1), ("frame:g", 2)]
    assert plan.units_of("task:a") == 4
    assert plan.units_of("ghost") == 0


def test_plan_double_allocation_rejected():
    with pytest.raises(OptimizationError):
        PartitionPlan.from_parts(
            optimized={"task:a": 4}, buffers={"task:a": 1}, total_units=16
        )


def test_plan_overflow_rejected():
    with pytest.raises(OptimizationError):
        PartitionPlan.from_parts(
            optimized={"task:a": 20}, buffers={}, total_units=16
        )


# -- profiling ------------------------------------------------------------


def test_profile_produces_monotone_curves():
    builder = partial(make_pipeline, n_tokens=8, work_bytes=4096)
    profile = profile_miss_curves(builder, small_config(), sizes=[1, 2, 4])
    network = builder()
    for item in optimized_item_names(network):
        points = profile.curve(item).monotone_means()
        values = [m for _s, m in points]
        assert values == sorted(values, reverse=True)
    assert profile.instructions["stage0"] > 0


@pytest.mark.parametrize("menu", [
    dict(repeats=0), dict(repeats=-1), dict(repeats=1.0),
    dict(sizes=[]), dict(sizes=[1.5]), dict(sizes=[0, 1]), dict(sizes=[-2]),
])
def test_profile_rejects_bad_menus_before_building(menu):
    """The menus MethodConfig rejects fail before any network or
    platform is built, and count no profiling pass."""
    built = []

    def builder():
        built.append(1)
        return make_pipeline(n_tokens=4)

    passes = profiling_passes()
    with pytest.raises(OptimizationError):
        profile_miss_curves(builder, small_config(), **menu)
    assert built == []
    assert profiling_passes() == passes


# -- throughput & power ----------------------------------------------------


def test_lpt_balances_two_cpus():
    times = {"a": 10.0, "b": 9.0, "c": 5.0, "d": 4.0}
    assignment = assign_tasks_lpt(times, n_cpus=2)
    loads = [0.0, 0.0]
    for name, cpu in assignment.items():
        loads[cpu] += times[name]
    assert abs(loads[0] - loads[1]) <= 1.0


def test_throughput_model_prefers_bigger_allocations():
    builder = partial(make_pipeline, n_tokens=8, work_bytes=4096)
    config = small_config()
    profile = profile_miss_curves(builder, config, sizes=[1, 4])
    model = ThroughputModel(config, profile)
    small = model.task_time("stage1", 1)
    big = model.task_time("stage1", 4)
    assert big <= small
    assignment = {name: 0 for name in profile.instructions}
    alloc = {f"task:{name}": 4 for name in profile.instructions}
    assert model.throughput(assignment, alloc) > 0
    times = model.processor_times(assignment, alloc)
    assert times[1] == 0.0


def test_energy_model_orders_configurations():
    from repro.cake.metrics import RunMetrics

    light = RunMetrics(elapsed_cycles=1000, dram_lines=10)
    heavy = RunMetrics(elapsed_cycles=1000, dram_lines=1000)
    model = EnergyModel()
    assert model.evaluate(heavy).total > model.evaluate(light).total
    assert model.improvement(heavy, light) > 0


# -- the end-to-end method ----------------------------------------------------


@pytest.fixture(scope="module")
def method_report():
    method = CompositionalMethod(
        partial(make_pipeline, n_stages=4, n_tokens=16, work_bytes=8192),
        small_config(),
        MethodConfig(sizes=[1, 2, 4, 8], solver="dp"),
    )
    return method.run()


def test_method_plan_fits(method_report):
    assert method_report.plan.used_units <= method_report.plan.total_units
    assert method_report.plan.predicted_misses is not None


def test_method_removes_interference(method_report):
    assert method_report.partitioned_metrics.l2_cross_evictions == 0
    assert method_report.shared_metrics.l2_cross_evictions >= 0


def test_method_is_compositional(method_report):
    # The paper's Figure-3 criterion, at its 2% bound.
    assert method_report.compositionality.max_relative_difference <= 0.02


def test_method_summary_mentions_key_numbers(method_report):
    text = method_report.summary()
    assert "L2 miss rate" in text and "compositionality" in text


def _report_with_misses(shared_misses, partitioned_misses):
    """A MethodReport shell with prescribed L2 miss totals."""
    from repro.cake.metrics import RunMetrics
    from repro.core import CompositionalityReport, ProfileResult
    from repro.core.method import MethodReport
    from repro.mem.cache import OwnerStats

    def metrics(misses):
        return RunMetrics(l2_by_owner={
            "task:a": OwnerStats(accesses=max(misses, 1), misses=misses)
        })

    return MethodReport(
        app_name="synthetic",
        profile=ProfileResult(),
        plan=PartitionPlan(units_by_owner={"task:a": 1}, total_units=4),
        solution=None,
        shared_metrics=metrics(shared_misses),
        partitioned_metrics=metrics(partitioned_misses),
        compositionality=CompositionalityReport(),
    )


def test_miss_reduction_factor_perfect_run_is_infinite():
    report = _report_with_misses(shared_misses=100, partitioned_misses=0)
    assert report.miss_reduction_factor == float("inf")
    # 0.0 would read as "no reduction"; the summary renders the infinity.
    assert "∞" in report.summary()


def test_miss_reduction_factor_degenerate_and_finite_cases():
    assert _report_with_misses(0, 0).miss_reduction_factor == 1.0
    assert _report_with_misses(100, 20).miss_reduction_factor == \
        pytest.approx(5.0)


def test_format_reduction_factor():
    from repro.core import format_reduction_factor

    assert format_reduction_factor(float("inf")) == "∞"
    assert format_reduction_factor(5.0) == "5.00x"


def test_method_solvers_agree():
    builder = partial(make_pipeline, n_stages=3, n_tokens=8)
    config = small_config()
    reports = {}
    for solver in ("dp", "milp"):
        method = CompositionalMethod(
            builder, config, MethodConfig(sizes=[1, 2, 4], solver=solver)
        )
        profile = method.profile()
        optimization = method.optimize(profile)
        # The plan embeds the solver's explicit allocation plus buffers.
        assert all(
            optimization.plan.units_by_owner[owner] == units
            for owner, units in optimization.solution.allocation.items()
        )
        reports[solver] = optimization.plan.predicted_misses
    assert reports["dp"] == pytest.approx(reports["milp"])


def test_optimize_returns_plan_and_solution_explicitly():
    method = CompositionalMethod(
        partial(make_pipeline, n_stages=3, n_tokens=8),
        small_config(),
        MethodConfig(sizes=[1, 2]),
    )
    optimization = method.optimize(method.profile())
    assert optimization.plan.predicted_misses == pytest.approx(
        optimization.solution.total_misses
    )
    # The old hidden side-channel is gone.
    assert not hasattr(method, "_last_solution")


def test_method_rejects_unknown_solver():
    with pytest.raises(OptimizationError):
        MethodConfig(solver="oracle")


@pytest.mark.parametrize("repeats", [0, -3])
def test_method_rejects_non_positive_repeats(repeats):
    with pytest.raises(OptimizationError):
        MethodConfig(profile_repeats=repeats)


@pytest.mark.parametrize(
    "sizes",
    [[], [0, 1], [-2, 4], [1, 2, 2], [4, 2, 8], [1.5, 2]],
)
def test_method_rejects_bad_sizes_menus(sizes):
    with pytest.raises(OptimizationError):
        MethodConfig(sizes=sizes)


def test_method_accepts_ascending_sizes():
    config = MethodConfig(sizes=[1, 3, 9], profile_repeats=2)
    assert list(config.sizes) == [1, 3, 9]
