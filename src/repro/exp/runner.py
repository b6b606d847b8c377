"""Executing scenarios: cached measurements, pluggable backends, result stream.

The runner turns scenario lists into :class:`~repro.exp.store.ResultStore`
records in two phases:

1. **Measure** -- every scenario needs the conventional shared-cache
   run (its :attr:`~repro.exp.scenario.Scenario.baseline_key` depends
   only on workload and platform) and, unless it runs in shared mode,
   miss curves (its :attr:`~repro.exp.scenario.Scenario.profile_key`,
   one per join group of a dynamic scenario).  Each *unique* key
   resolves once: from the process-wide payload memo, else from the
   attached :class:`~repro.exp.cache.ProfileCache`, else it is measured
   through the backend and written through to the cache.  Repeated
   grid points, whole L2-capacity or solver sweeps, *and separate
   sessions* never re-profile.
2. **Execute** -- each scenario runs its remaining work (optimize,
   partitioned simulation, validation) with its measurements injected,
   and streams one record into the store in scenario order.

Both phases move work through an :class:`ExecutionBackend` -- the
transport seam.  A backend maps a module-level worker callable over
JSON-serialisable task dicts and returns JSON results in task order;
nothing else crosses the boundary.  A measurement stays the JSON
payload the cache stores from the measure task that produced it to
the execute task that uses it: the memo holds payloads, execute tasks
share the memo's payload objects, and only the worker decodes them.
Only the runner reads or writes the memo and the cache, so a worker
is a pure function of its task and needs neither this process's
memory nor a shared cache directory.

Three backends ship: :class:`InlineBackend` (serial, easiest to
debug), :class:`ProcessPoolBackend` (fork pool, CPU parallelism) and
:class:`AsyncBackend` (a thread pool -- the simulation core holds no
module-global mutable state, so concurrent platforms are safe).  The
pool and thread backends share one sliding window
(:func:`_stream_window`): at most as many calls unfinished as the
executor has workers, results in task order, and nothing new started
once the caller leaves.  Every record is a pure function of its
scenario and every measurement payload round-trips exactly, so all
backends produce the same store fingerprint.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.cake.metrics import RunMetrics
from repro.cake.platform import Platform
from repro.core.allocation import optimize_way_assignment
from repro.core.method import MethodReport
from repro.core.profiling import ProfileResult
from repro.errors import ConfigurationError
from repro.exp.cache import (
    KIND_BASELINE,
    KIND_PROFILE,
    ProfileCache,
    resolve_cache,
)
from repro.exp.dynamic import _require_profiles, run_dynamic
from repro.exp.scenario import (
    Scenario,
    profile_from_payload,
    profile_to_payload,
    run_metrics_from_payload,
    run_metrics_to_payload,
)
from repro.exp.store import SCHEMA_VERSION, ResultStore, ScenarioRecord
from repro.mem.partition import PartitionMode
from repro.patterns import memo as pattern_memo

__all__ = [
    "AsyncBackend",
    "ExecutionBackend",
    "ExperimentRunner",
    "InlineBackend",
    "KNOWN_BACKENDS",
    "ProcessPoolBackend",
    "ScenarioOutcome",
    "clear_caches",
    "execute_scenario",
    "make_backend",
    "run_scenario",
]

#: (kind, key) -> the measurement's JSON payload, exactly as
#: ``ProfileCache.get`` or a measure task returned it; shared by every
#: runner in this process.  Payloads are read-only: execute tasks and
#: the cache share these very objects, so nothing may mutate one.
_PAYLOADS: Dict[tuple, Dict[str, Any]] = {}


def clear_caches() -> None:
    """Drop the process-wide memo tables: measurement payloads and the
    pattern kit's traffic batches (:mod:`repro.patterns.memo`)."""
    _PAYLOADS.clear()
    pattern_memo.clear()


def _compute_profile(scenario: Scenario) -> ProfileResult:
    """One profiling pass for the scenario's profile key."""
    return scenario.build_method().profile()


def _compute_baseline(scenario: Scenario) -> RunMetrics:
    """One conventional shared-cache simulation."""
    return scenario.build_method().simulate(None)


# -- record assembly ---------------------------------------------------------


def _metrics_payload(metrics: RunMetrics) -> Dict[str, Any]:
    """Raw counters of one run, in the stable record schema."""
    return {
        "accesses": metrics.l2_accesses,
        "misses": metrics.l2_misses,
        "miss_rate": metrics.l2_miss_rate,
        "mean_cpi": metrics.mean_cpi,
        "instructions": metrics.instructions,
        "elapsed_cycles": metrics.elapsed_cycles,
        "cross_evictions": metrics.l2_cross_evictions,
        "dram_lines": metrics.dram_lines,
        "misses_by_owner": {
            owner: stats.misses
            for owner, stats in sorted(metrics.l2_by_owner.items())
        },
    }


def _axes_view(scenario: Scenario) -> Dict[str, Any]:
    """The flat filter/table view stored on every record."""
    cake = scenario.effective_cake
    geometry = cake.hierarchy.l2_geometry
    axes = {
        "workload": scenario.workload.name,
        "mode": scenario.partition_mode.value,
        "l2_kb": geometry.size_bytes // 1024,
        "l2_ways": geometry.ways,
        "n_cpus": cake.n_cpus,
        "allocation_unit_sets": cake.allocation_unit_sets,
        "scheduling": cake.scheduling,
        "solver": scenario.method.solver,
        "fifo_policy": scenario.method.fifo_policy.value,
        "sizes": scenario.resolved_sizes,
        "seed": cake.seed,
        "tag": scenario.tag,
    }
    if scenario.transitions:
        # Only dynamic scenarios carry the axis at all: static records
        # (and therefore every pre-existing fingerprint) are unchanged.
        axes["transitions"] = len(scenario.transitions)
    return axes


def _base_record(scenario: Scenario) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "scenario_id": scenario.scenario_id,
        "profile_key": scenario.profile_key if scenario.needs_profile else None,
        # Canonical spec: engine-free, so records (and therefore store
        # fingerprints) are identical across the bit-identical engines.
        "scenario": scenario.to_dict(canonical=True),
        "axes": _axes_view(scenario),
        "plan": None,
        "way_assignment": None,
        "metrics": {"shared": None, "partitioned": None},
        "compositionality": None,
        # The engine rides in the timing block: execution metadata,
        # excluded from identity comparisons like the wall times.
        "timing": {"wall_s": 0.0, "created_unix": 0.0,
                   "engine": scenario.effective_cake.hierarchy.engine},
    }


@dataclass
class ScenarioOutcome:
    """A record plus (when the mode produces one) the full report."""

    record: ScenarioRecord
    report: Optional[MethodReport] = None


def execute_scenario(
    scenario: Scenario,
    profiles: Dict[str, ProfileResult],
    baseline: RunMetrics,
) -> ScenarioOutcome:
    """Run one scenario on its measurements; never measures them.

    ``profiles`` maps each join group (``""`` for the base workload;
    see :func:`_profile_requirements`) to its miss curves, and is
    empty in shared mode.  ``baseline`` is the shared-cache run.  A
    missing group raises :class:`~repro.errors.ConfigurationError`.
    """
    _require_profiles(profiles, _profile_requirements(scenario))
    started = time.time()
    method = scenario.build_method()
    record = _base_record(scenario)
    report: Optional[MethodReport] = None
    replan_wall_s: Optional[List[float]] = None

    record["metrics"]["shared"] = _metrics_payload(baseline)
    # The run the record is about: the baseline in shared mode, the
    # partitioned (or dynamic) run otherwise.
    measured = baseline

    if scenario.is_dynamic:
        result = run_dynamic(scenario, profiles)
        measured = result.metrics
        record["metrics"]["partitioned"] = _metrics_payload(result.metrics)
        record["plan"] = {
            "units_by_owner": {
                owner: units
                for owner, (_base, units)
                in sorted(result.initial_ranges.items())
            },
            "total_units": result.total_units,
            "predicted_misses": result.predicted_misses,
        }
        record["transitions"] = result.transition_payloads()
        record["epochs"] = result.epoch_payloads()
        replan_wall_s = result.replan_wall_s()

    elif scenario.partition_mode is PartitionMode.SHARED:
        pass  # the baseline is the whole experiment

    elif scenario.partition_mode is PartitionMode.SET_PARTITIONED:
        report = method.run(profile=profiles[""], shared_metrics=baseline)
        measured = report.partitioned_metrics
        record["metrics"]["partitioned"] = _metrics_payload(measured)
        record["plan"] = {
            "units_by_owner": dict(sorted(report.plan.units_by_owner.items())),
            "total_units": report.plan.total_units,
            "predicted_misses": report.plan.predicted_misses,
        }
        record["compositionality"] = {
            "max_relative_difference":
                report.compositionality.max_relative_difference,
            "total_simulated": report.compositionality.total_simulated,
        }

    elif scenario.partition_mode is PartitionMode.WAY_PARTITIONED:
        cake = scenario.effective_cake
        network = scenario.workload.build()()
        # Column caching gets its own optimizer: owners are ranked by
        # miss reduction *at way granularity* (k ways ~ k/ways of the
        # unit space, k = 0 legal), not by the set plan's fine-grained
        # unit counts -- the paper's granularity criticism made
        # executable, and the reason way- and set-mode plans diverge.
        way_plan = optimize_way_assignment(
            profiles[""].curve_list(
                [f"task:{name}" for name in network.tasks]
            ),
            cake.hierarchy.l2_geometry.ways,
            cake.n_allocation_units,
        )
        assignment = way_plan.ways_by_owner
        platform = Platform(
            network, cake, mode=PartitionMode.WAY_PARTITIONED
        )
        platform.cache_controller.program_way_partitions(assignment)
        measured = platform.run()
        record["metrics"]["partitioned"] = _metrics_payload(measured)
        record["way_assignment"] = {
            owner: list(ways_) for owner, ways_ in sorted(assignment.items())
        }

    else:  # pragma: no cover - PartitionMode is closed
        raise ConfigurationError(
            f"unsupported partition mode {scenario.partition_mode!r}"
        )

    record["timing"] = {
        "wall_s": time.time() - started,
        "created_unix": started,
        "engine": scenario.effective_cake.hierarchy.engine,
        # What actually walked the measured run after every fallback;
        # None when that run came from a cache, not a simulation here.
        "effective_engine": measured.effective_engine,
    }
    if replan_wall_s is not None:
        # Execution metadata like the wall times: ScenarioRecord's
        # canonical form drops the whole timing block, so replan
        # latency never perturbs fingerprints.
        record["timing"]["replan_wall_s"] = replan_wall_s
    return ScenarioOutcome(record=ScenarioRecord(record), report=report)


def run_scenario(
    scenario: Scenario,
    cache: Union[None, bool, str, ProfileCache] = None,
) -> ScenarioOutcome:
    """Execute one scenario inline, using the process-wide payload memo.

    ``cache`` optionally attaches a persistent
    :class:`~repro.exp.cache.ProfileCache` (same forms as
    :class:`ExperimentRunner` accepts): profiling and baseline work is
    then reused across sessions, not just within this process.  The
    scenario runs through the same execute task a runner would ship.
    """
    _resolve_measurements([scenario], resolve_cache(cache), InlineBackend())
    return _run_task(_task_for(scenario))


# -- the JSON task protocol --------------------------------------------------
#
# Workers are module-level callables taking one JSON-serialisable task
# dict and returning one JSON-serialisable result; they are the whole
# contract between the runner and a backend.  Both are pure functions
# of their task: neither reads the payload memo or a cache, so the same
# protocol serves threads, fork pools and remote queues.  A measure
# task returns a measurement's payload; an execute task carries the
# payloads of its scenario, and only the worker decodes them.


def _profile_requirements(scenario: Scenario) -> Dict[str, Scenario]:
    """Join group -> the static scenario whose curves ``scenario`` needs.

    One entry (group ``""``, the scenario itself) for a static
    scenario, one per join group for a dynamic one, none in shared
    mode.  Each group's profile key equals the one a static scenario
    of its workload uses, so their measurements are cached and shared
    alike.
    """
    if not scenario.needs_profile:
        return {}
    return dict(scenario.profile_requirements())


def _write_through(
    cache: ProfileCache, kind: str, key: str, payload: Dict[str, Any]
) -> None:
    """Best-effort cache write.

    An unwritable or full cache degrades the sweep to uncached
    computation -- it must never fail it (the read side already treats
    every problem as a miss).
    """
    try:
        cache.put(kind, key, payload)
    except OSError:
        pass


def _resolve_measurements(
    scenarios: Sequence[Scenario],
    cache: Optional[ProfileCache],
    backend: ExecutionBackend,
) -> Dict[str, int]:
    """Put the payload of every measurement ``scenarios`` need into the
    memo.

    Each unique key resolves memo -> ``cache`` -> measured through
    ``backend``, profiles before baselines, and the memo keeps the
    payload it got, unchanged.  New measurements are written through to
    the cache, and a memo hit the cache lacks or holds damaged is
    backfilled from the same payload, so a cache attached after
    measurement still fills up.  Returns the counts
    :attr:`ExperimentRunner.last_stats` reports.
    """
    needed: Dict[str, Dict[str, Scenario]] = {
        KIND_PROFILE: {}, KIND_BASELINE: {},
    }
    for scenario in scenarios:
        for requirement in _profile_requirements(scenario).values():
            needed[KIND_PROFILE].setdefault(
                requirement.profile_key, requirement
            )
        needed[KIND_BASELINE].setdefault(scenario.baseline_key, scenario)

    stats = {"scenarios": len(scenarios)}
    measure_tasks = []
    for kind, scenarios_by_key in needed.items():
        cached = from_disk = 0
        for key, scenario in scenarios_by_key.items():
            if (kind, key) in _PAYLOADS:
                cached += 1
                if cache is not None and cache.get(kind, key) is None:
                    _write_through(cache, kind, key, _PAYLOADS[kind, key])
                continue
            payload = cache.get(kind, key) if cache is not None else None
            if payload is not None:
                _PAYLOADS[kind, key] = payload
                from_disk += 1
                continue
            measure_tasks.append(
                {"kind": kind, "key": key, "scenario": scenario.to_dict()}
            )
        stats[f"{kind}s_computed"] = len(scenarios_by_key) - cached - from_disk
        stats[f"{kind}s_cached"] = cached
        stats[f"{kind}s_from_disk"] = from_disk

    # One combined measurement phase: profiles and baselines are
    # independent, so a parallel backend overlaps them freely instead
    # of draining one kind before starting the other.
    for result in backend.map(_measure_task, measure_tasks):
        kind, key, payload = result["kind"], result["key"], result["payload"]
        _PAYLOADS[kind, key] = payload
        if cache is not None:
            _write_through(cache, kind, key, payload)
    return stats


def _measure_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """One measurement -- ``kind`` picks profile or baseline work.

    Baseline payloads are slim: nothing reads per-task stats out of a
    shared-cache baseline (see ``run_metrics_to_payload``).
    """
    scenario = Scenario.from_dict(task["scenario"])
    if task["kind"] == KIND_PROFILE:
        payload = profile_to_payload(_compute_profile(scenario))
    else:
        payload = run_metrics_to_payload(
            _compute_baseline(scenario), task_stats=False
        )
    return {"kind": task["kind"], "key": task["key"], "payload": payload}


def _task_for(scenario: Scenario) -> Dict[str, Any]:
    """The execute task of ``scenario``, built from the memo.

    ``profiles`` maps each join group (``""`` for the base workload) to
    its profile payload, and ``baseline`` is the shared-cache run's
    payload.  They are the memo's own (read-only) objects: every task
    that needs a key shares one payload, and nothing is re-encoded.
    """
    return {
        "scenario": scenario.to_dict(),
        "profiles": {
            group: _PAYLOADS[KIND_PROFILE, requirement.profile_key]
            for group, requirement
            in _profile_requirements(scenario).items()
        },
        "baseline": _PAYLOADS[KIND_BASELINE, scenario.baseline_key],
    }


def _run_task(task: Dict[str, Any]) -> ScenarioOutcome:
    """Decode one execute task's scenario and payloads, and run it."""
    return execute_scenario(
        Scenario.from_dict(task["scenario"]),
        profiles={
            group: profile_from_payload(payload)
            for group, payload in task["profiles"].items()
        },
        baseline=run_metrics_from_payload(task["baseline"]),
    )


def _execute_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one scenario task; returns the record payload."""
    return _run_task(task).record.payload


# -- execution backends ------------------------------------------------------


def _stream_window(make_executor, width, worker, tasks):
    """Map ``worker`` over ``tasks`` on a fresh executor, in task order.

    Results are yielded in task order as soon as they and their
    predecessors finish, so a crashed sweep keeps every result before
    the crash.  At most ``width`` submitted calls are unfinished at a
    time, one per executor worker: a process pool moves a submitted
    call to its workers' queue at once, where it can no longer be
    cancelled.  So a caller that abandons the stream (closes or drops
    the generator) waits only for the calls in flight, and no other
    task starts.  Nothing runs until the first result is asked for.
    """
    tasks = list(tasks)
    if not tasks:
        return
    pending = iter(tasks)
    # Submitted calls in task order, until their result is yielded.
    window = deque()
    with make_executor() as executor:
        try:
            while True:
                running = [f for f in window if not f.done()]
                for task in islice(pending, width - len(running)):
                    window.append(executor.submit(worker, task))
                    running.append(window[-1])
                if not window:
                    return
                if window[0].done():
                    yield window.popleft().result()
                else:
                    wait(running, return_when=FIRST_COMPLETED)
        finally:
            for future in window:
                future.cancel()


class ExecutionBackend:
    """Transport seam: ordered map of JSON tasks through a worker.

    ``map(worker, tasks)`` applies a module-level callable to each
    JSON-serialisable task dict and yields JSON results *in task
    order*.  Implementations choose where the calls run (this thread, a
    fork pool, a thread pool, a remote fleet); they must not reorder
    results or require anything beyond JSON to cross the boundary.
    Every task carries everything its worker reads, so ``map`` is the
    whole interface.
    """

    def map(
        self,
        worker,
        tasks: Sequence[Dict[str, Any]],
    ) -> Iterator[Dict[str, Any]]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class InlineBackend(ExecutionBackend):
    """Runs every task serially in the calling thread."""

    def map(self, worker, tasks):
        for task in tasks:
            yield worker(task)


class ProcessPoolBackend(ExecutionBackend):
    """Runs tasks on a process pool (fork where available).

    The pool is created per :meth:`map` call and keeps at most
    ``workers`` calls unfinished (see :func:`_stream_window`).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def _make_pool(self) -> ProcessPoolExecutor:
        # fork (where available) inherits registered custom workloads;
        # spawn would only see import-time registrations.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context
        )

    def map(self, worker, tasks):
        return _stream_window(self._make_pool, self.workers, worker, tasks)

    def __repr__(self) -> str:
        return f"<ProcessPoolBackend workers={self.workers}>"


class AsyncBackend(ExecutionBackend):
    """Runs tasks concurrently on a thread pool.

    The pool is created per :meth:`map` call with ``concurrency``
    threads, and keeps at most ``concurrency`` calls unfinished (see
    :func:`_stream_window`).  The simulation core keeps all state
    per-platform (each ``MemorySystem`` owns its own C walker state),
    so concurrent scenarios do not interact -- and because records are
    pure functions of their scenarios, the fingerprint matches the
    serial one.
    """

    def __init__(self, concurrency: int = 4):
        if concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        self.concurrency = concurrency

    def map(self, worker, tasks):
        return _stream_window(
            partial(ThreadPoolExecutor, max_workers=self.concurrency),
            self.concurrency, worker, tasks,
        )

    def __repr__(self) -> str:
        return f"<AsyncBackend concurrency={self.concurrency}>"


#: Names make_backend understands (reported whole on a bad spec).
KNOWN_BACKENDS = ("auto", "inline", "pool", "async", "remote")


def make_backend(
    spec: Union[None, str, ExecutionBackend], workers: int = 1
) -> ExecutionBackend:
    """Normalise a user-facing backend argument.

    ``None`` picks inline for ``workers=1`` and a process pool
    otherwise (the historical behaviour); strings name a backend kind
    (see :data:`KNOWN_BACKENDS`); instances pass through.  ``remote``
    ships the sweep to the server named by ``$REPRO_SWEEP_SERVER``
    (construct :class:`~repro.exp.service.RemoteBackend` directly to
    name a URL explicitly); ``workers`` then caps the client-side
    in-flight tasks, with a fleet-friendly floor so the default
    ``workers=1`` does not serialise the server's whole fleet.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None or spec == "auto":
        return InlineBackend() if workers == 1 else ProcessPoolBackend(workers)
    if spec == "inline":
        return InlineBackend()
    if spec == "pool":
        return ProcessPoolBackend(workers)
    if spec == "async":
        return AsyncBackend(concurrency=workers)
    if spec == "remote":
        # Imported here: the service package imports this module for
        # the JSON task callables, so the dependency must stay one-way
        # at import time.
        from repro.exp.service import RemoteBackend

        return RemoteBackend(concurrency=max(workers, 16))
    raise ConfigurationError(
        f"unknown backend {spec!r} "
        f"(known backends: {', '.join(KNOWN_BACKENDS)}; pass one of "
        f"these names or an ExecutionBackend instance)"
    )


class ExperimentRunner:
    """Executes scenario lists and streams records into a store.

    ``workers=1`` runs inline (deterministic, easiest to debug);
    ``workers=N`` fans phases out over a process pool; ``backend=``
    overrides the transport entirely (name or
    :class:`ExecutionBackend` instance).  All backends produce
    byte-identical stores (modulo timing) because every record is a
    pure function of its scenario.

    ``cache=`` attaches a persistent
    :class:`~repro.exp.cache.ProfileCache`: ``True`` for the default
    location (``$REPRO_PROFILE_CACHE`` honoured), a path, or an
    instance.  With a cache, profiling and baseline measurements are
    reused across sessions.  Only the runner reads and writes it:
    execute tasks carry their measurements.
    """

    def __init__(
        self,
        workers: int = 1,
        store_path: Optional[str] = None,
        backend: Union[None, str, ExecutionBackend] = None,
        cache: Union[None, bool, str, ProfileCache] = None,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.store_path = store_path
        self.backend = make_backend(backend, workers)
        self.cache = resolve_cache(cache)
        #: The runner's own store stream: created (truncating any stale
        #: file) on the first :meth:`run`, then appended to -- repeated
        #: runs on one runner accumulate records instead of silently
        #: truncating the JSONL between sweeps.
        self._store: Optional[ResultStore] = None
        #: Filled by :meth:`run`: profiling/baseline work accounting.
        self.last_stats: Dict[str, int] = {}

    def run(
        self,
        scenarios: Iterable[Scenario],
        store: Optional[ResultStore] = None,
    ) -> ResultStore:
        """Execute every scenario; records stream in scenario order."""
        scenarios = list(scenarios)
        if store is None:
            if self._store is None:
                self._store = ResultStore(path=self.store_path)
            store = self._store
        self.last_stats = _resolve_measurements(
            scenarios, self.cache, self.backend
        )
        execute_tasks = [_task_for(scenario) for scenario in scenarios]
        for record in self.backend.map(_execute_task, execute_tasks):
            store.append(record)
        return store
