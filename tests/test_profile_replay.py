"""Platform runs replay each task's recorded ops: a sweep or a session
gives exactly what stepping the programs in every run gives.

Every platform run goes through the process's op-stream table
(``OP_STREAMS``).  The oracle is the same work with replay off: with
``memo.STREAM_BUDGET_BYTES`` patched to 0 no stream is kept, so every
run steps every program.  Every program builds its ops through
``TaskContext.compute``, so its calls count the runs whose programs
stepped.
"""

import dataclasses
import itertools
import random
import sys
import threading
from collections import Counter
from functools import partial
from typing import NamedTuple

import pytest

from repro.apps.synthetic import make_pipeline, sink_program
from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.core.profiling import profile_miss_curves
from repro.errors import SchedulingError
from repro.exp import AsyncBackend, ExperimentRunner, clear_caches
from repro.exp.dynamic import merge_networks, qualified
from repro.exp.scenario import Scenario, WorkloadSpec, run_metrics_to_payload
from repro.exp.smoke import build_grid
from repro.kpn.graph import ProcessNetwork, TaskSpec
from repro.kpn.process import TaskContext
from repro.mem import cwalker
from repro.mem.hierarchy import MemorySystem
from repro.mem.trace import _RunsBatch
from repro.patterns import memo
from repro.rtos.task import OP_STREAMS, RunStreams, TaskState

C_AVAILABLE = cwalker.load() is not None
BUDGET = memo.STREAM_BUDGET_BYTES
PAPER_APPS = ("two_jpeg_canny", "mpeg2")


class Held(NamedTuple):
    """What the op-stream table holds."""

    streams: int
    nbytes: int


def held() -> Held:
    return Held(len(OP_STREAMS), OP_STREAMS.nbytes)


@pytest.fixture(autouse=True)
def empty_table():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def steps(monkeypatch):
    """Per platform run, in the order the runs started: its network's
    name and its ``TaskContext.compute`` calls per task."""
    log = []
    run, compute = Platform.run, TaskContext.compute

    def logged_run(self):
        log.append((self.network.name, Counter()))
        return run(self)

    def counted(self, *batches, **kwargs):
        log[-1][1][self.name] += 1
        return compute(self, *batches, **kwargs)

    monkeypatch.setattr(Platform, "run", logged_run)
    monkeypatch.setattr(TaskContext, "compute", counted)
    return log


def calls(steps) -> list:
    """``TaskContext.compute`` calls per logged run."""
    return [sum(tasks.values()) for _, tasks in steps]


@pytest.fixture
def sweep(monkeypatch, steps):
    """``sweep(measure, budget)`` runs ``measure()``, one profiling
    sweep, from an empty stream table with that stream budget.  Returns
    the profile, the ``TaskContext.compute`` calls it made and what the
    table then holds.
    """

    def run(measure, budget=BUDGET):
        monkeypatch.setattr(memo, "STREAM_BUDGET_BYTES", budget)
        clear_caches()
        steps.clear()
        profile = measure()
        return profile, sum(calls(steps)), held()

    return run


def assert_replay_exact(sweep, scenario):
    replayed, calls, table = sweep(scenario.build_method().profile)
    regenerated, all_calls, unused = sweep(
        scenario.build_method().profile, budget=0
    )
    assert replayed == regenerated
    assert unused.streams == 0
    assert table.streams == len(replayed.instructions) * \
        scenario.method.profile_repeats
    # Only the first size's runs stepped the programs.
    assert calls * len(replayed.sizes) == all_calls


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("seed", [20050307, 7, 1])
@pytest.mark.parametrize("app", PAPER_APPS)
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
    assert 0 < half.streams < table.streams
    assert half.nbytes <= budget
    assert full_calls < calls < all_calls


def test_a_run_never_evicts_the_streams_it_replayed(sweep, steps):
    """Past the budget a run keeps none of its recordings that would
    evict a stream it replayed: a sweep's later runs step only tasks
    that an earlier run could not keep, and settle on the same ones."""
    scenario = build_grid()[0]
    _, _, table = sweep(scenario.build_method().profile)
    sweep(scenario.build_method().profile, table.nbytes * 3 // 4)
    stepped = [set(tasks) for _, tasks in steps]
    assert len(stepped) == len(scenario.method.sizes) == 4
    assert len(stepped[0]) == 4
    assert set() < stepped[3] == stepped[2] <= stepped[1] < stepped[0]


@pytest.fixture
def recorded(monkeypatch, steps):
    """Per platform run (alongside ``steps``): the tasks that recorded
    their ops, and the tasks the table refused after the run."""
    log = []
    record, run = RunStreams._record, Platform.run

    def logged_record(self, key, params, program):
        log[-1][0].add(key[2])
        return record(self, key, params, program)

    def logged_run(self):
        log.append((set(), set()))
        metrics = run(self)
        log[-1][1].update(key[2] for key in OP_STREAMS._refused)
        return metrics

    monkeypatch.setattr(RunStreams, "_record", logged_record)
    monkeypatch.setattr(Platform, "run", logged_run)
    return log


def test_a_dropped_stream_is_not_recorded_until_room_frees(sweep, steps,
                                                           recorded):
    """Past the budget, a task whose recording was dropped steps its
    program without recording in the sweep's later runs, with the same
    profile.  A run that evicts frees room: the table forgets the
    refusals, and the task records again; so does clearing it."""
    scenario = build_grid()[0]
    _, _, table = sweep(scenario.build_method().profile)
    budget = table.nbytes * 3 // 4
    recorded.clear()
    trimmed, _, _ = sweep(scenario.build_method().profile, budget)
    stepped = [set(tasks) for _, tasks in steps]
    refused = recorded[1][1]
    assert refused and not recorded[0][1]
    assert refused <= recorded[1][0] and refused <= stepped[1]
    for (record, refusals), tasks in zip(recorded[2:], stepped[2:]):
        assert record == set() and refusals == refused
        assert tasks == refused

    # Another seed replays nothing, so its recordings evict freely.
    config = scenario.effective_cake
    Platform(scenario.workload.build()(),
             dataclasses.replace(config, seed=config.seed + 1)).run()
    assert not OP_STREAMS._refused
    recorded.clear()
    assert scenario.build_method().profile() == trimmed
    assert refused <= recorded[0][0]

    regenerated, _, _ = sweep(scenario.build_method().profile, budget=0)
    assert trimmed == regenerated
    recorded.clear()
    sweep(scenario.build_method().profile)
    assert len(recorded[0][0]) == 4 and not recorded[0][1]
    assert held().streams == 4


def _greedy_sink(ctx):
    """The sink, then one more read than the source ever writes."""
    yield from sink_program(ctx)
    yield ctx.read("in")


@pytest.mark.parametrize("sink", ["sink", "greedy"])
def test_a_run_that_raises_keeps_no_stream(sink):
    network = make_pipeline(n_tokens=6)
    if sink == "greedy":
        network.tasks["stage2"].program = _greedy_sink
    platform = Platform(network, CakeConfig(n_cpus=2))
    if sink == "sink":
        platform.run()
        assert held().streams == 3
        return
    with pytest.raises(SchedulingError, match="deadlock"):
        platform.run()
    # The source and the filter returned, in a run that raised.
    done = [task.name for task in platform.tasks
            if task.state is TaskState.DONE]
    assert done == ["stage0", "stage1"]
    assert held() == (0, 0)


LEAVERS = {qualified("gone", f"stage{i}") for i in range(3)}


def _two_pipelines_leaving_one(steps):
    """One run of a pipeline beside a ``gone.`` pipeline whose three
    tasks all detach mid-run; returns the tasks that stepped."""
    network = merge_networks(make_pipeline(n_tokens=24),
                             {"gone": make_pipeline(n_tokens=24)})
    platform = Platform(network, CakeConfig(n_cpus=2))
    states = {}

    def leave():
        for task in platform.tasks:
            if task.name in LEAVERS:
                states[task.name] = task.state
                platform.detach_task(task.name)

    platform.sim.schedule_replan(100_000, leave)
    steps.clear()
    platform.run()
    assert not {TaskState.NEW, TaskState.DONE} & set(states.values())
    assert len(states) == 3
    return set(steps[0][1])


def test_a_task_detached_mid_run_keeps_no_stream(steps):
    first = _two_pipelines_leaving_one(steps)
    assert held().streams == 3
    again = _two_pipelines_leaving_one(steps)
    assert first == {"stage0", "stage1", "stage2"} | LEAVERS
    assert again == LEAVERS


def test_clear_caches_empties_the_op_stream_table():
    Platform(make_pipeline(n_tokens=6), CakeConfig(n_cpus=2)).run()
    assert held().streams == 3 and held().nbytes > 0
    clear_caches()
    assert held() == (0, 0)


def _pipeline_run(seed: int):
    platform = Platform(make_pipeline(n_tokens=6),
                        CakeConfig(n_cpus=2, seed=seed))
    return run_metrics_to_payload(platform.run())


def test_threads_replay_and_keep_consistently(monkeypatch):
    """Eight threads run pipelines at three seeds through one table
    whose budget holds about two seeds' streams: every run gives the
    metrics of a run that stepped its programs, and the table's byte
    count stays the sum of its streams' bytes, within the budget."""
    seeds = (1, 2, 3)
    oracle = {seed: _pipeline_run(seed) for seed in seeds}
    budget = OP_STREAMS.nbytes * 2 // 3
    clear_caches()
    monkeypatch.setattr(memo, "STREAM_BUDGET_BYTES", budget)
    errors = []

    def run(slot):
        try:
            order = list(seeds) * 2
            random.Random(slot).shuffle(order)
            for seed in order:
                assert _pipeline_run(seed) == oracle[seed], seed
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    kept = OP_STREAMS._kept.values()
    assert 0 < OP_STREAMS.nbytes == sum(nbytes for _, _, nbytes in kept)
    assert OP_STREAMS.nbytes <= budget


def _lookup_program(ctx):
    """Table lookups drawn from the task's RNG stream."""
    for _ in range(ctx.params["n_tokens"]):
        yield ctx.compute(ctx.fetch(400), ctx.table(ctx.bss, 256))


def _lookup_run(seed: int):
    """One run of a lookup task, laid out alike at every seed."""
    network = ProcessNetwork("lookups")
    network.add_task(TaskSpec(name="walker", program=_lookup_program,
                              params={"n_tokens": 16}, bss_bytes=64 << 10))
    platform = Platform(network, CakeConfig(n_cpus=1, seed=seed),
                        placement="bump")
    return run_metrics_to_payload(platform.run())


def test_a_stream_is_replayed_only_at_its_seed(steps):
    first = _lookup_run(1)
    again = _lookup_run(1)
    other = _lookup_run(2)
    assert [n > 0 for n in calls(steps)] == [True, False, True]
    assert again == first
    clear_caches()
    assert other == _lookup_run(2)
    assert other != first


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_the_reference_walk_never_replays_a_runs_only_batch(
    steps, monkeypatch,
):
    """Compiled, then reference platforms of one network in one
    process: the compiled run replays runs-only batches, the reference
    one its own recording of the programs' batches."""
    scenario = build_grid()[0]
    walked = {"compiled": [], "reference": []}
    compiled_walk = MemorySystem._execute_batch_compiled
    reference_walk = MemorySystem._execute_batch_reference

    def compiled(self, cpu_id, task_owner, batch, now):
        walked["compiled"].append(type(batch))
        return compiled_walk(self, cpu_id, task_owner, batch, now)

    def reference(self, cpu_id, task_owner, batch, now):
        walked["reference"].append(type(batch))
        return reference_walk(self, cpu_id, task_owner, batch, now)

    monkeypatch.setattr(MemorySystem, "_execute_batch_compiled", compiled)
    monkeypatch.setattr(MemorySystem, "_execute_batch_reference", reference)
    payloads = []
    for engine in ("compiled", "compiled", "reference", "reference"):
        platform = Platform(scenario.workload.build()(),
                            scenario.effective_cake, engine=engine)
        payloads.append(run_metrics_to_payload(platform.run()))
    assert [n > 0 for n in calls(steps)] == [True, False, True, False]
    assert _RunsBatch in walked["compiled"]
    assert walked["reference"] and _RunsBatch not in walked["reference"]
    assert all(payload == payloads[0] for payload in payloads)


def _paper_session(seed: int, apps=PAPER_APPS):
    return [
        Scenario(workload=WorkloadSpec(app, {"scale": "paper",
                                             "frames": 1}), seed=seed)
        for app in apps
    ]


def _run_session(monkeypatch, scenarios, budget=BUDGET, backend=None):
    """``scenarios`` through a fresh runner from empty memo tables."""
    monkeypatch.setattr(memo, "STREAM_BUDGET_BYTES", budget)
    clear_caches()
    return ExperimentRunner(backend=backend).run(scenarios)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("seed", [20050307, 7, 1])
def test_a_paper_session_steps_each_apps_programs_once(
    steps, monkeypatch, seed,
):
    """Both paper apps: profile, baseline and validation.  Only each
    app's first platform run steps its programs; every later run of the
    same workload and seed replays, with the same records."""
    scenarios = _paper_session(seed)
    replayed = _run_session(monkeypatch, scenarios)
    replayed_steps = list(steps)
    steps.clear()
    regenerated = _run_session(monkeypatch, scenarios, budget=0)
    assert replayed.canonical() == regenerated.canonical()
    assert replayed.fingerprint() == regenerated.fingerprint()
    names = [name for name, _ in steps]
    assert [name for name, _ in replayed_steps] == names
    assert len(set(names)) == 2 and len(names) == 18
    assert all(n > 0 for n in calls(steps))
    firsts = [names.index(name) == index for index, name in enumerate(names)]
    assert calls(replayed_steps) == [
        n if first else 0 for n, first in zip(calls(steps), firsts)
    ]


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_async_session_gives_the_inline_fingerprint(monkeypatch):
    scenarios = _paper_session(20050307)
    inline = _run_session(monkeypatch, scenarios)
    threaded = _run_session(monkeypatch, scenarios,
                            backend=AsyncBackend(concurrency=2))
    assert threaded.fingerprint() == inline.fingerprint()


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_a_budget_for_one_app_gives_the_same_records(steps, monkeypatch):
    """A budget that holds either app's streams but not both: the
    table evicts the least recently replayed streams, never holds more
    than the budget, and the records stay the same."""
    alone = []
    for app in PAPER_APPS:
        _run_session(monkeypatch, _paper_session(20050307, apps=(app,)))
        alone.append(held().nbytes)
    budget = max(alone)
    assert sum(alone) > budget
    scenarios = _paper_session(20050307)
    after_runs = []
    run = Platform.run

    def checked(self):
        metrics = run(self)
        after_runs.append(held())
        return metrics

    monkeypatch.setattr(Platform, "run", checked)
    steps.clear()
    trimmed = _run_session(monkeypatch, scenarios, budget)
    stepped = sum(n > 0 for n in calls(steps))
    regenerated = _run_session(monkeypatch, scenarios, budget=0)
    assert trimmed.canonical() == regenerated.canonical()
    assert max(nbytes for _, nbytes in after_runs) <= budget
    # Evictions made some later runs step their programs again.
    assert 2 < stepped < 18
