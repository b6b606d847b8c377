"""A profiling sweep replays each task's recorded ops: the sweep gives
exactly what stepping the programs in every run gives.

The oracle is the same sweep with replay off: with
``memo.STREAM_BUDGET_BYTES`` patched to 0 no stream is kept, so every
run steps every program.  Every program builds its ops through
``TaskContext.compute``, so its calls count the runs whose programs
stepped.
"""

import itertools
from functools import partial

import pytest

from repro.apps.synthetic import make_pipeline, sink_program
from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.core import profiling
from repro.core.profiling import profile_miss_curves
from repro.errors import SchedulingError
from repro.exp.scenario import Scenario, WorkloadSpec
from repro.exp.smoke import build_grid
from repro.kpn.process import TaskContext
from repro.mem import cwalker
from repro.patterns import memo
from repro.rtos.task import OpStreams, TaskState

C_AVAILABLE = cwalker.load() is not None
BUDGET = memo.STREAM_BUDGET_BYTES


@pytest.fixture
def sweep(monkeypatch):
    """``sweep(measure, budget)`` runs ``measure()``, one profiling
    sweep, with that stream budget.  Returns the profile, the
    ``TaskContext.compute`` calls it made and the sweep's stream table.
    """
    calls = []
    compute = TaskContext.compute

    def counted(self, *batches, **kwargs):
        calls.append(self.name)
        return compute(self, *batches, **kwargs)

    tables = []

    class Seen(OpStreams):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(TaskContext, "compute", counted)
    monkeypatch.setattr(profiling, "OpStreams", Seen)

    def run(measure, budget=BUDGET):
        monkeypatch.setattr(memo, "STREAM_BUDGET_BYTES", budget)
        calls.clear()
        profile = measure()
        return profile, len(calls), tables[-1]

    return run


def assert_replay_exact(sweep, scenario):
    replayed, calls, table = sweep(scenario.build_method().profile)
    regenerated, all_calls, unused = sweep(
        scenario.build_method().profile, budget=0
    )
    assert replayed == regenerated
    assert len(unused._kept) == 0
    assert len(table._kept) == len(replayed.instructions) * \
        scenario.method.profile_repeats
    # Only the first size's runs stepped the programs.
    assert calls * len(replayed.sizes) == all_calls


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("seed", [20050307, 7, 1])
@pytest.mark.parametrize("app", ["two_jpeg_canny", "mpeg2"])
def test_paper_apps_replay_exactly(sweep, app, seed):
    scenario = Scenario(
        workload=WorkloadSpec(app, {"scale": "paper", "frames": 1}),
        seed=seed,
    )
    assert_replay_exact(sweep, scenario)


@pytest.mark.parametrize(
    "variant", ["plain", "repeats=2", "reference"],
)
def test_smoke_pipeline_replays_exactly(sweep, variant):
    scenario = build_grid()[0]
    if variant == "repeats=2":
        # One stream per task and seed: the repeats use seeds s, s + 1.
        scenario = scenario.with_method(profile_repeats=2)
    elif variant == "reference":
        scenario = scenario.with_engine("reference")
    assert_replay_exact(sweep, scenario)


def _drifting_pipeline():
    """A builder whose task params change from one call to the next."""
    calls = itertools.count()
    return lambda: make_pipeline(
        n_tokens=8, work_bytes=2048 + 1024 * (next(calls) % 3)
    )


def test_a_context_that_changed_is_not_replayed(sweep):
    config = build_grid()[0].effective_cake
    measure = partial(profile_miss_curves, config=config, sizes=[1, 2, 4])
    replayed, calls, _ = sweep(partial(measure, _drifting_pipeline()))
    regenerated, all_calls, _ = sweep(
        partial(measure, _drifting_pipeline()), budget=0
    )
    assert replayed == regenerated
    assert calls == all_calls


def test_streams_over_the_budget_are_not_kept(sweep):
    scenario = build_grid()[0]
    full, full_calls, table = sweep(scenario.build_method().profile)
    budget = table.nbytes // 2
    trimmed, calls, half = sweep(scenario.build_method().profile, budget)
    regenerated, all_calls, _ = sweep(
        scenario.build_method().profile, budget=0
    )
    assert full == trimmed == regenerated
    assert 0 < len(half._kept) < len(table._kept)
    assert half.nbytes <= budget
    assert full_calls < calls < all_calls


def _greedy_sink(ctx):
    """The sink, then one more read than the source ever writes."""
    yield from sink_program(ctx)
    yield ctx.read("in")


@pytest.mark.parametrize("sink", ["sink", "greedy"])
def test_a_run_that_raises_keeps_no_stream(sink):
    network = make_pipeline(n_tokens=6)
    if sink == "greedy":
        network.tasks["stage2"].program = _greedy_sink
    config = CakeConfig(n_cpus=2)
    table = OpStreams(config.hierarchy.run_key)
    platform = Platform(network, config, streams=table.run(config.seed))
    if sink == "sink":
        platform.run()
        assert len(table._kept) == 3
        return
    with pytest.raises(SchedulingError, match="deadlock"):
        platform.run()
    # The source and the filter returned, in a run that raised.
    done = [task.name for task in platform.tasks
            if task.state is TaskState.DONE]
    assert done == ["stage0", "stage1"]
    assert len(table._kept) == 0
