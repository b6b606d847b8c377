"""Experiment runner: memoization, determinism, partition modes.

The acceptance contract of the sweep layer lives here:

- same grid point twice -> one profiling pass, identical records
  (modulo timing),
- a 16-scenario grid run with ``workers=4`` produces a store identical
  (ignoring timing) to ``workers=1``,
- profiling executes at most once per unique profile key.
"""

import sys
from pathlib import Path

import pytest

import repro.exp.runner as runner_module
from repro.cake import CakeConfig
from repro.core import MethodConfig
from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentRunner,
    ResultStore,
    Scenario,
    WorkloadSpec,
    clear_caches,
    run_scenario,
    sweep,
)
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.partition import PartitionMode


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with empty memo tables."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def profile_counter(monkeypatch):
    """Counts actual profiling passes in this process."""
    calls = []
    original = runner_module._compute_profile

    def counting(scenario):
        calls.append(scenario.profile_key)
        return original(scenario)

    monkeypatch.setattr(runner_module, "_compute_profile", counting)
    return calls


def small_cake(**kwargs):
    return CakeConfig(
        n_cpus=2,
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
            l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
        ),
        **kwargs,
    )


def base_scenario():
    return Scenario(
        workload=WorkloadSpec(
            "pipeline",
            {"n_stages": 3, "n_tokens": 6, "work_bytes": 6 * 1024},
        ),
        cake=small_cake(),
        method=MethodConfig(sizes=[1, 2]),
    )


# -- memoization ---------------------------------------------------------------


def test_same_grid_point_twice_profiles_once(profile_counter):
    scenario = base_scenario()
    runner = ExperimentRunner(workers=1)
    store = runner.run([scenario, scenario])
    assert len(store) == 2
    assert len(profile_counter) == 1
    assert runner.last_stats["profiles_computed"] == 1
    # Byte-identical records modulo the timing block.
    first, second = store.records
    assert first.canonical() == second.canonical()
    assert first.to_json_line() != "" and first.scenario_id == second.scenario_id


def test_l2_capacity_sweep_profiles_once(profile_counter):
    scenarios = sweep(base_scenario(), l2_size_kb=[64, 128],
                      solver=["dp", "greedy"])
    runner = ExperimentRunner(workers=1)
    store = runner.run(scenarios)
    assert len(store) == 4
    # One profile key covers the whole capacity x solver grid.
    assert len(profile_counter) == 1
    assert runner.last_stats == {
        "scenarios": 4,
        "profiles_computed": 1, "profiles_cached": 0,
        "profiles_from_disk": 0,
        "baselines_computed": 2, "baselines_cached": 0,
        "baselines_from_disk": 0,
    }


def test_profile_cache_survives_across_runner_calls(profile_counter):
    scenario = base_scenario()
    ExperimentRunner(workers=1).run([scenario])
    assert len(profile_counter) == 1
    second = ExperimentRunner(workers=1)
    second.run([scenario])
    assert len(profile_counter) == 1  # still one pass, cache hit
    assert second.last_stats["profiles_cached"] == 1
    assert second.last_stats["baselines_cached"] == 1


def test_run_scenario_uses_the_same_caches(profile_counter):
    scenario = base_scenario()
    outcome = run_scenario(scenario)
    assert outcome.report is not None
    ExperimentRunner(workers=1).run([scenario])
    assert len(profile_counter) == 1
    # The inline record equals the runner's record (modulo timing).
    store = ExperimentRunner(workers=1).run([scenario])
    assert outcome.record.canonical() == store.records[0].canonical()


def test_repeated_runs_accumulate_in_the_runner_store(tmp_path):
    path = tmp_path / "sweeps.jsonl"
    path.write_text('{"stale": true}\n')  # a previous session's leftovers
    runner = ExperimentRunner(workers=1, store_path=str(path))
    first = runner.run([base_scenario()])
    assert len(first) == 1  # stale content truncated on first use
    second = runner.run(sweep(base_scenario(), solver=["greedy"]))
    assert second is first and len(second) == 2
    # Nothing was silently truncated between sweeps.
    assert len(ResultStore.load(path)) == 2


def test_distinct_profiling_inputs_profile_separately(profile_counter):
    scenarios = sweep(base_scenario(), n_cpus=[1, 2])
    ExperimentRunner(workers=1).run(scenarios)
    assert len(profile_counter) == 2


# -- determinism ---------------------------------------------------------------


def sixteen_scenario_grid():
    return sweep(
        base_scenario(),
        l2_size_kb=[64, 128],
        n_cpus=[1, 2],
        solver=["dp", "greedy"],
        seed=[20050307, 7],
    )


def test_workers_do_not_change_the_store(tmp_path, profile_counter):
    scenarios = sixteen_scenario_grid()
    assert len(scenarios) == 16

    serial = ExperimentRunner(
        workers=1, store_path=str(tmp_path / "serial.jsonl")
    ).run(scenarios)
    serial_profiles = len(profile_counter)
    # 2 cpus x 2 seeds vary profiling inputs; capacity/solver do not.
    assert serial_profiles == 4

    clear_caches()
    parallel_runner = ExperimentRunner(
        workers=4, store_path=str(tmp_path / "parallel.jsonl")
    )
    parallel = parallel_runner.run(scenarios)
    assert parallel_runner.last_stats["profiles_computed"] == 4

    assert serial.fingerprint() == parallel.fingerprint()
    assert serial.canonical() == parallel.canonical()
    # And the JSONL files round-trip to the same store.
    assert ResultStore.load(tmp_path / "serial.jsonl").fingerprint() == \
        ResultStore.load(tmp_path / "parallel.jsonl").fingerprint()


# -- partition modes -----------------------------------------------------------


def test_shared_mode_records_baseline_only(profile_counter):
    from dataclasses import replace

    scenario = replace(base_scenario(), partition_mode=PartitionMode.SHARED)
    store = ExperimentRunner(workers=1).run([scenario])
    record = store.records[0]
    assert record.mode == "shared"
    assert record.shared is not None
    assert record.partitioned is None and record.plan is None
    assert record.profile_key is None
    assert len(profile_counter) == 0  # no miss curves needed
    assert record.miss_reduction_factor is None


def test_way_mode_assigns_columns_to_top_tasks():
    from dataclasses import replace

    scenario = replace(
        base_scenario(), partition_mode=PartitionMode.WAY_PARTITIONED
    )
    record = ExperimentRunner(workers=1).run([scenario]).records[0]
    assignment = record.payload["way_assignment"]
    ways = scenario.cake.hierarchy.l2_geometry.ways
    assert assignment and len(assignment) <= ways
    assert all(owner.startswith("task:") for owner in assignment)
    assert record.partitioned is not None and record.plan is None


def test_set_mode_record_contents():
    record = ExperimentRunner(workers=1).run([base_scenario()]).records[0]
    assert record.mode == "set"
    assert record.partitioned["cross_evictions"] == 0
    assert record.plan and record.predicted_misses is not None
    assert record.compositionality_max_rel_diff is not None
    assert record.payload["axes"]["sizes"] == [1, 2]


def test_records_report_requested_and_effective_engine(monkeypatch):
    """timing.engine is the engine the scenario asked for;
    timing.effective_engine is the one that walked its measured run:
    reference when no C walker loaded.  Neither enters the
    fingerprint."""
    from repro.mem import cwalker

    c_tier = "compiled" if cwalker.load() is not None else "reference"
    stores = []
    for engine, effective in (("compiled", c_tier),
                              ("reference", "reference")):
        store = ExperimentRunner(workers=1).run(
            [base_scenario().with_engine(engine)]
        )
        timing = store.records[0].payload["timing"]
        assert (timing["engine"], timing["effective_engine"]) == \
            (engine, effective)
        stores.append(store)
    monkeypatch.setattr(cwalker, "load", lambda: None)
    store = ExperimentRunner(workers=1).run(
        [base_scenario().with_engine("compiled")]
    )
    timing = store.records[0].payload["timing"]
    assert (timing["engine"], timing["effective_engine"]) == \
        ("compiled", "reference")
    stores.append(store)
    assert len({store.fingerprint() for store in stores}) == 1


def test_runner_rejects_bad_worker_count():
    with pytest.raises(ConfigurationError):
        ExperimentRunner(workers=0)


# -- execution backends --------------------------------------------------------


def test_make_backend_names_and_default():
    from repro.exp import (
        AsyncBackend,
        InlineBackend,
        ProcessPoolBackend,
        make_backend,
    )

    assert isinstance(make_backend(None, workers=1), InlineBackend)
    assert isinstance(make_backend(None, workers=3), ProcessPoolBackend)
    assert isinstance(make_backend("inline", workers=8), InlineBackend)
    pool = make_backend("pool", workers=3)
    assert isinstance(pool, ProcessPoolBackend) and pool.workers == 3
    concurrent = make_backend("async", workers=5)
    assert isinstance(concurrent, AsyncBackend) and concurrent.concurrency == 5
    assert make_backend(pool, workers=1) is pool
    with pytest.raises(ConfigurationError):
        make_backend("carrier-pigeon")
    with pytest.raises(ConfigurationError):
        AsyncBackend(concurrency=0)


def test_async_backend_matches_inline_fingerprint(tmp_path):
    from repro.exp import AsyncBackend

    scenarios = sweep(base_scenario(), l2_size_kb=[64, 128],
                      solver=["dp", "greedy"])
    serial = ExperimentRunner(workers=1).run(scenarios)
    clear_caches()
    concurrent = ExperimentRunner(
        backend=AsyncBackend(concurrency=4),
        store_path=str(tmp_path / "async.jsonl"),
    ).run(scenarios)
    assert concurrent.fingerprint() == serial.fingerprint()
    # Streamed JSONL preserves scenario order too.
    assert ResultStore.load(tmp_path / "async.jsonl").canonical() == \
        serial.canonical()


def test_backend_map_yields_results_in_task_order():
    from repro.exp import AsyncBackend, InlineBackend, ProcessPoolBackend

    tasks = [{"scenario": None, "index": i} for i in range(12)]

    def worker(task):
        return task["index"]

    assert list(InlineBackend().map(worker, tasks)) == list(range(12))
    assert list(AsyncBackend(concurrency=6).map(worker, tasks)) == \
        list(range(12))
    assert list(ProcessPoolBackend(workers=3).map(_index_worker, tasks)) == \
        list(range(12))
    assert list(ProcessPoolBackend(workers=3).map(_index_worker, [])) == []


def _index_worker(task):
    """Module-level so the process pool can pickle it."""
    return task["index"]


#: Set by the abandonment test before its pool forks: tasks signal
#: ``_STARTED`` as they start, and every task but the first then waits
#: for ``_RELEASE``.
_STARTED = None
_RELEASE = None


def _counted_worker(task):
    """Leave a marker file per executed task (the count survives the
    worker process)."""
    (Path(task["dir"]) / str(task["index"])).touch()
    _STARTED.release()
    if task["index"] and not _RELEASE.wait(timeout=60):
        raise TimeoutError("the test never released the task")
    return task["index"]


def test_process_pool_abandoned_stream_starts_no_queued_task(
    tmp_path, monkeypatch,
):
    """Regression: closing the stream after the first result left every
    call the pool had already queued to run, one whole scenario each.
    Only the calls in flight may finish: with 2 workers, task 0 (done)
    and tasks 1 and 2 (started while result 0 was handed over)."""
    import multiprocessing

    from repro.exp import ProcessPoolBackend

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the pool inherits the test's events through fork")
    context = multiprocessing.get_context("fork")
    started = context.Semaphore(0)
    release = context.Event()
    monkeypatch.setattr(sys.modules[__name__], "_STARTED", started)
    monkeypatch.setattr(sys.modules[__name__], "_RELEASE", release)
    tasks = [{"index": i, "dir": str(tmp_path)} for i in range(12)]
    stream = ProcessPoolBackend(workers=2).map(_counted_worker, tasks)
    assert next(stream) == 0
    for _ in range(3):  # tasks 0, 1 and 2 have started
        assert started.acquire(timeout=60)
    release.set()
    stream.close()
    assert sorted(int(path.name) for path in tmp_path.iterdir()) == [0, 1, 2]


def test_async_backend_streams_results_before_a_failure():
    """A failing task must not discard completed predecessors: records
    stream in task order until the failure, like the lazy backends."""
    from repro.exp import AsyncBackend

    def worker(task):
        if task["index"] == 4:
            raise ValueError("boom")
        return task["index"]

    received = []
    with pytest.raises(ValueError, match="boom"):
        for result in AsyncBackend(concurrency=3).map(
            worker, [{"index": i} for i in range(6)]
        ):
            received.append(result)
    assert received == [0, 1, 2, 3]


def test_async_backend_is_lazy_until_iterated():
    """An unconsumed map() must do no work -- parity with the lazy
    inline/pool backends."""
    import gc

    from repro.exp import AsyncBackend

    calls = []

    def worker(task):
        calls.append(task["index"])
        return task["index"]

    results = AsyncBackend(concurrency=2).map(
        worker, [{"index": i} for i in range(3)]
    )
    assert calls == []  # nothing scheduled yet
    del results
    gc.collect()
    assert calls == []  # dropping it unconsumed runs nothing either
    assert list(AsyncBackend(concurrency=2).map(
        worker, [{"index": i} for i in range(3)]
    )) == [0, 1, 2]


def test_async_backend_runs_inside_a_running_event_loop():
    import asyncio

    from repro.exp import AsyncBackend

    async def driver():
        return list(AsyncBackend(concurrency=2).map(
            _index_worker, [{"index": i} for i in range(4)]
        ))

    assert asyncio.run(driver()) == [0, 1, 2, 3]


def test_async_backend_failure_does_not_poison_reuse():
    """An exception in one sweep leaves the backend fully reusable:
    the loop thread and executor are retired per map(), so the next
    sweep starts clean."""
    from repro.exp import AsyncBackend

    backend = AsyncBackend(concurrency=2)

    def broken(task):
        raise RuntimeError(f"task {task['index']} broke")

    with pytest.raises(RuntimeError, match="task 0 broke"):
        list(backend.map(broken, [{"index": i} for i in range(4)]))
    assert list(
        backend.map(_index_worker, [{"index": i} for i in range(4)])
    ) == [0, 1, 2, 3]


def test_async_backend_cancellation_mid_sweep():
    """Closing the stream mid-sweep starts none of the unstarted tail
    and leaves the backend usable.

    With one slot, task 1 is submitted while result 0 is consumed; the
    close either cancels it before it starts or waits for it.
    """
    from repro.exp import AsyncBackend

    backend = AsyncBackend(concurrency=1)
    started = []

    def recorded(task):
        started.append(task["index"])
        return task["index"]

    stream = backend.map(recorded, [{"index": i} for i in range(6)])
    assert next(stream) == 0
    stream.close()  # abandon the sweep after one result
    assert started in ([0], [0, 1])
    started.clear()
    assert list(
        backend.map(recorded, [{"index": i} for i in (0, 2, 3)])
    ) == [0, 2, 3]
    assert started == [0, 2, 3]


def test_async_backend_runs_concurrency_tasks_at_once():
    """``concurrency`` caps the tasks running at once, and is reached:
    asyncio's default executor capped it at ``min(32, cpus + 4)``
    threads, which broke this barrier."""
    import os
    import threading

    from repro.exp import AsyncBackend

    n = min(32, (os.cpu_count() or 1) + 4) + 1
    barrier = threading.Barrier(n, timeout=10)
    lock = threading.Lock()
    running = [0]
    peak = [0]

    def meet(task):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            barrier.wait()
        finally:
            with lock:
                running[0] -= 1
        return task["index"]

    tasks = [{"index": i} for i in range(2 * n)]
    assert list(AsyncBackend(concurrency=n).map(meet, tasks)) == \
        list(range(2 * n))
    assert peak[0] == n


def test_failed_task_does_not_poison_subsequent_runs(monkeypatch):
    """A task failure surfaces to the caller, keeps the records that
    finished first, and leaves the runner good for the next sweep."""
    scenarios = sweep(base_scenario(), solver=["dp", "greedy"])
    real_execute = runner_module._execute_task

    def flaky_execute(task):
        scenario = Scenario.from_dict(task["scenario"])
        if scenario.method.solver == "greedy":
            raise ValueError("injected greedy failure")
        return real_execute(task)

    monkeypatch.setattr(runner_module, "_execute_task", flaky_execute)
    runner = ExperimentRunner(workers=1)
    partial = ResultStore()
    with pytest.raises(ValueError, match="injected greedy failure"):
        runner.run(scenarios, store=partial)
    # The dp record streamed before the greedy task failed.
    assert [r.axes["solver"] for r in partial] == ["dp"]

    monkeypatch.setattr(runner_module, "_execute_task", real_execute)
    recovered = runner.run(scenarios, store=ResultStore())
    assert len(recovered) == 2
    assert {r.axes["solver"] for r in recovered} == {"dp", "greedy"}
