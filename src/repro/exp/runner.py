"""Executing scenarios: cached profiling, pluggable backends, result stream.

The runner turns scenario lists into :class:`~repro.exp.store.ResultStore`
records in three phases:

1. **Profile** -- every scenario that needs miss curves maps to a
   :attr:`~repro.exp.scenario.Scenario.profile_key`; each *unique* key
   is measured exactly once, memoized process-wide, and (when a
   :class:`~repro.exp.cache.ProfileCache` is attached) persisted on
   disk, so repeated grid points, whole L2-capacity or solver sweeps,
   *and separate sessions* never re-profile.
2. **Baseline** -- the conventional shared-cache run depends only on
   (workload, platform); it is cached the same way, so method-knob
   sweeps share one baseline simulation.
3. **Execute** -- each scenario runs its remaining work (optimize,
   partitioned simulation, validation) with the cached pieces injected,
   and streams one record into the store in scenario order.

Every phase moves work through an :class:`ExecutionBackend` -- the
transport seam.  A backend maps a module-level worker callable over
JSON-serialisable task dicts and returns JSON results in task order;
nothing else crosses the boundary.  Execute tasks carry the *cache
path and content keys*, not measurement objects: a worker loads the
profile/baseline it needs from the persistent cache (or from an inline
JSON payload when no cache is attached), which keeps per-task traffic
small and makes the protocol transport-agnostic -- a distributed
backend only needs to move the same JSON.

Three backends ship: :class:`InlineBackend` (serial, easiest to
debug), :class:`ProcessPoolBackend` (fork pool, CPU parallelism) and
:class:`AsyncBackend` (asyncio over a thread pool -- the simulation
core holds no module-global mutable state, so concurrent platforms are
safe).  Every record is a pure function of its scenario and every
measurement payload round-trips exactly, so all backends produce the
same store fingerprint.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    clear_generation,
    resolve_cache,
)
from repro.exp.dynamic import run_dynamic
from repro.exp.scenario import (
    Scenario,
    profile_from_payload,
    profile_to_payload,
    run_metrics_from_payload,
    run_metrics_to_payload,
)
from repro.exp.store import SCHEMA_VERSION, ResultStore, ScenarioRecord
from repro.mem.partition import PartitionMode

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

#: profile_key -> ProfileResult, shared by every runner in this process.
_PROFILE_CACHE: Dict[str, ProfileResult] = {}
#: baseline_key -> RunMetrics of the shared-cache run.
_BASELINE_CACHE: Dict[str, RunMetrics] = {}
#: (cache root, kind, key) triples this process has verified on disk;
#: lets steady-state warm runs skip re-reading and re-checksumming
#: entries that cannot have changed under us.
_VERIFIED_ON_DISK: set = set()


def clear_caches() -> None:
    """Drop the process-wide profile and baseline memo tables."""
    _PROFILE_CACHE.clear()
    _BASELINE_CACHE.clear()
    _VERIFIED_ON_DISK.clear()


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
    profile: Optional[ProfileResult] = None,
    baseline: Optional[RunMetrics] = None,
    profiles: Optional[Dict[str, ProfileResult]] = None,
) -> ScenarioOutcome:
    """Run one scenario with pre-measured pieces injected.

    ``profile`` (miss curves) and ``baseline`` (the shared-cache run)
    are computed here when missing; the runner passes cached ones.
    Dynamic scenarios take ``profiles`` instead: one entry per
    :meth:`~repro.exp.scenario.Scenario.profile_requirements` group.
    """
    started = time.time()
    method = scenario.build_method()
    record = _base_record(scenario)
    report: Optional[MethodReport] = None
    replan_wall_s: Optional[List[float]] = None

    if baseline is None:
        baseline = _compute_baseline(scenario)
    record["metrics"]["shared"] = _metrics_payload(baseline)
    # The run the record is about: the baseline in shared mode, the
    # partitioned (or dynamic) run otherwise.
    measured = baseline

    if scenario.is_dynamic:
        resolved: Dict[str, ProfileResult] = dict(profiles or {})
        if profile is not None:
            resolved.setdefault("", profile)
        for group, requirement in scenario.profile_requirements():
            if group not in resolved:
                resolved[group] = _compute_profile(requirement)
        result = run_dynamic(scenario, resolved)
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
        if profile is None:
            profile = _compute_profile(scenario)
        report = method.run(profile=profile, shared_metrics=baseline)
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
        if profile is None:
            profile = _compute_profile(scenario)
        cake = scenario.effective_cake
        network = scenario.workload.build()()
        # Column caching gets its own optimizer: owners are ranked by
        # miss reduction *at way granularity* (k ways ~ k/ways of the
        # unit space, k = 0 legal), not by the set plan's fine-grained
        # unit counts -- the paper's granularity criticism made
        # executable, and the reason way- and set-mode plans diverge.
        way_plan = optimize_way_assignment(
            profile.curve_list(
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
    """Execute one scenario inline, using the process-wide memo tables.

    ``cache`` optionally attaches a persistent
    :class:`~repro.exp.cache.ProfileCache` (same forms as
    :class:`ExperimentRunner` accepts): profiling and baseline work is
    then reused across sessions, not just within this process.
    """
    disk = resolve_cache(cache)
    task = {
        "profile_key":
            scenario.profile_key if scenario.needs_profile else None,
        "baseline_key": scenario.baseline_key,
    }
    return execute_scenario(
        scenario,
        profile=_resolve_profile(scenario, task, cache=disk),
        baseline=_resolve_baseline(scenario, task, cache=disk),
        profiles=_resolve_profile_groups(scenario, task, cache=disk),
    )


# -- the JSON task protocol --------------------------------------------------
#
# Workers are module-level callables taking one JSON-serialisable task
# dict and returning one JSON-serialisable result; they are the whole
# contract between the runner and a backend.  Measurements travel by
# *reference* -- a cache directory plus content keys -- with inline
# payloads only as the fallback when no cache is attached, so the same
# protocol serves fork pools, threads, and (eventually) remote queues.


def _persist(
    disk: Optional[ProfileCache],
    kind: str,
    key: str,
    measurement,
    only_if_absent: bool = False,
) -> bool:
    """Best-effort write-through to the disk cache.

    An unwritable or full cache degrades the sweep to uncached
    computation -- it must never fail it (the read side already treats
    every problem as a miss).  ``only_if_absent`` backfills entries the
    in-process memo resolved without touching disk, so a cache attached
    *after* measurements were memoized still ends up populated.
    Returns whether the entry is now verifiably on disk.
    """
    if disk is None:
        return False
    # The clear-generation folds ProfileCache.clear() into the token,
    # so emptying a cache invalidates every verification memo for it.
    # (Out-of-band deletion -- rm -rf behind a running process -- is
    # healed one session later, when the cold memo probes the disk.)
    token = (str(disk.root), clear_generation(disk.root), kind, key)
    try:
        if only_if_absent:
            if token in _VERIFIED_ON_DISK:
                return True
            # Gate on a *valid* entry, not mere file existence: a stale
            # or corrupt file must not block the backfill forever.
            if disk.get(kind, key) is not None:
                _VERIFIED_ON_DISK.add(token)
                return True
        if kind == KIND_PROFILE:
            disk.put_profile(key, measurement)
        else:
            disk.put_baseline(key, measurement)
        _VERIFIED_ON_DISK.add(token)
        return True
    except OSError:
        return False


def _measure_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """One measurement -- ``kind`` picks profile or baseline work.

    Profiling sweeps and baselines are independent, so the runner
    submits them as one task list and any backend overlaps them.
    """
    scenario = Scenario.from_dict(task["scenario"])
    if task["kind"] == KIND_PROFILE:
        payload = profile_to_payload(_compute_profile(scenario))
    else:
        # Baseline envelopes are slim: per-task stats are never read
        # out of a cached baseline (see run_metrics_to_payload).
        payload = run_metrics_to_payload(
            _compute_baseline(scenario), task_stats=False
        )
    persisted = False
    if task.get("cache_dir"):
        try:
            ProfileCache(task["cache_dir"]).put(
                task["kind"], task["key"], payload
            )
            persisted = True
        except OSError:
            pass  # unwritable cache: the result still returns inline
    return {
        "kind": task["kind"],
        "key": task["key"],
        "payload": payload,
        # The worker knows its own write outcome; the runner uses it to
        # decide whether execute tasks can reference this key by cache
        # path or must carry the payload inline.
        "persisted": persisted,
    }


def _open_cache(
    task: Dict[str, Any], cache: Optional[ProfileCache]
) -> Optional[ProfileCache]:
    """The cache to resolve through: the caller's instance when given
    (its traffic counters then see the lookups), else one bound to the
    task's ``cache_dir``."""
    if cache is not None:
        return cache
    if task.get("cache_dir"):
        return ProfileCache(task["cache_dir"])
    return None


def _resolve(
    kind: str,
    scenario: Scenario,
    task: Dict[str, Any],
    cache: Optional[ProfileCache] = None,
):
    """One measurement by the memo -> disk -> inline -> compute cascade.

    The single resolution path for both kinds: a memo hit returns
    immediately (backfilling a late-attached cache unless the runner's
    planning phase already did, flagged by ``task["persisted"]``), a
    disk or inline-payload hit is memoized, and a measurement that is
    nowhere -- lost or damaged between phases -- is recomputed rather
    than failed, healing the cache for the next reader.
    """
    if kind == KIND_PROFILE:
        key, memo = task["profile_key"], _PROFILE_CACHE
        decode, compute = profile_from_payload, _compute_profile
        inline = task.get("profile")
    else:
        key, memo = task["baseline_key"], _BASELINE_CACHE
        decode, compute = run_metrics_from_payload, _compute_baseline
        inline = task.get("baseline")
    disk = _open_cache(task, cache)
    value = memo.get(key)
    if value is not None:
        if not task.get("persisted"):
            _persist(disk, kind, key, value, only_if_absent=True)
        return value
    if disk is not None:
        value = (
            disk.get_profile(key) if kind == KIND_PROFILE
            else disk.get_baseline(key)
        )
    if value is None and inline is not None:
        value = decode(inline)
        _persist(disk, kind, key, value, only_if_absent=True)
    if value is None:
        value = compute(scenario)
        _persist(disk, kind, key, value)
    memo[key] = value
    return value


def _resolve_profile(
    scenario: Scenario,
    task: Dict[str, Any],
    cache: Optional[ProfileCache] = None,
) -> Optional[ProfileResult]:
    """The task's miss curves (None when the mode needs no profiling)."""
    if not scenario.needs_profile:
        return None
    return _resolve(KIND_PROFILE, scenario, task, cache)


def _resolve_baseline(
    scenario: Scenario,
    task: Dict[str, Any],
    cache: Optional[ProfileCache] = None,
) -> RunMetrics:
    """The task's shared-cache run."""
    return _resolve(KIND_BASELINE, scenario, task, cache)


def _resolve_profile_groups(
    scenario: Scenario,
    task: Dict[str, Any],
    cache: Optional[ProfileCache] = None,
) -> Optional[Dict[str, ProfileResult]]:
    """Per-group miss curves of a dynamic scenario (else ``None``).

    Each :meth:`~repro.exp.scenario.Scenario.profile_requirements`
    entry resolves through the same memo -> disk -> inline -> compute
    cascade as a static profile, keyed by the *requirement's* profile
    key -- a join group whose workload was already profiled standalone
    hits the cache and costs zero profiling passes.
    """
    if not (scenario.is_dynamic and scenario.needs_profile):
        return None
    inline = task.get("profiles") or {}
    profiles: Dict[str, ProfileResult] = {}
    for group, requirement in scenario.profile_requirements():
        sub_task = {
            "profile_key": requirement.profile_key,
            "cache_dir": task.get("cache_dir"),
            "persisted": task.get("persisted"),
            "profile": inline.get(group),
        }
        profiles[group] = _resolve(KIND_PROFILE, requirement, sub_task, cache)
    return profiles


def _execute_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one scenario task; returns the record payload."""
    scenario = Scenario.from_dict(task["scenario"])
    outcome = execute_scenario(
        scenario,
        profile=_resolve_profile(scenario, task),
        baseline=_resolve_baseline(scenario, task),
        profiles=_resolve_profile_groups(scenario, task),
    )
    return outcome.record.payload


# -- execution backends ------------------------------------------------------


class ExecutionBackend:
    """Transport seam: ordered map of JSON tasks through a worker.

    ``map(worker, tasks)`` applies a module-level callable to each
    JSON-serialisable task dict and yields JSON results *in task
    order*.  Implementations choose where the calls run (this thread, a
    fork pool, an event loop, a remote fleet); they must not reorder
    results or require anything beyond JSON to cross the boundary.
    """

    name = "base"
    #: Whether workers see this process's memo tables (threads do,
    #: separate processes and remote transports do not).  When False
    #: and no disk cache is attached, execute tasks carry their
    #: measurements as inline JSON payloads.
    shares_memory = False

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

    name = "inline"
    shares_memory = True

    def map(self, worker, tasks):
        for task in tasks:
            yield worker(task)


class ProcessPoolBackend(ExecutionBackend):
    """Runs tasks on a process pool (fork where available).

    The pool is created per :meth:`map` call, after the previous phase
    finished -- with fork, workers therefore inherit the parent's memo
    tables as of that moment, and execute workers usually resolve their
    measurements without touching the disk cache at all.
    """

    name = "process-pool"

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
        tasks = list(tasks)
        if not tasks:
            return
        with self._make_pool() as pool:
            yield from pool.map(worker, tasks)

    def __repr__(self) -> str:
        return f"<ProcessPoolBackend workers={self.workers}>"


class AsyncBackend(ExecutionBackend):
    """Runs tasks concurrently on an asyncio event loop.

    Each task executes in a thread-pool executor with at most
    ``concurrency`` in flight, and results *stream* in task order --
    each yields as soon as it and its predecessors finish, so a
    crashed sweep keeps every record that completed before the crash,
    exactly like the lazy inline/pool backends.  The loop runs on a
    private host thread, so the backend also works when the caller
    already has an event loop running (notebooks, coroutine-driven
    apps).  The simulation core keeps all state per-platform (each
    ``MemorySystem`` owns its own C walker state), so concurrent
    scenarios do not interact -- and because records are pure
    functions of their scenarios, the fingerprint matches the serial
    one.  This is the asyncio face of the transport seam: a
    remote/queue backend can replace ``run_in_executor`` with a network
    await and keep the rest.
    """

    name = "async"
    shares_memory = True

    def __init__(self, concurrency: int = 4):
        if concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        self.concurrency = concurrency

    async def _dispatch(
        self, worker, task: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run one task once the concurrency gate admits it.

        THE transport seam: the base class awaits a thread-pool
        executor; :class:`~repro.exp.service.RemoteBackend` overrides
        exactly this coroutine with a network await (submit to the
        sweep server, poll for the result) and inherits all the
        ordering, streaming and cleanup machinery unchanged.
        """
        return await asyncio.get_running_loop().run_in_executor(
            None, worker, task
        )

    def map(self, worker, tasks):
        tasks = list(tasks)
        if not tasks:
            return iter(())

        def stream():
            # Everything -- loop thread, task submission -- starts on
            # first iteration, so an unconsumed map() does no work,
            # matching the lazy inline/pool backends.
            loop = asyncio.new_event_loop()
            host = threading.Thread(
                target=loop.run_forever, name="async-backend-loop",
                daemon=True,
            )
            host.start()
            gate = asyncio.Semaphore(self.concurrency)
            # Set by the caller thread before it cancels anything:
            # cancelling a running task frees its gate slot, and a
            # waiter whose own cancellation has not reached the loop
            # yet must not start.
            closed = threading.Event()

            async def one(task: Dict[str, Any]) -> Dict[str, Any]:
                async with gate:
                    if closed.is_set():
                        raise asyncio.CancelledError()
                    return await self._dispatch(worker, task)

            futures = [
                asyncio.run_coroutine_threadsafe(one(task), loop)
                for task in tasks
            ]
            try:
                for future in futures:
                    yield future.result()
            finally:
                # On failure (or abandonment): cancel what has not
                # started, drain what has, then retire the loop -- no
                # pending-task warnings, no leaked threads.
                closed.set()
                for future in futures:
                    future.cancel()
                for future in futures:
                    try:
                        future.result()
                    except BaseException:
                        pass
                # Executor shutdown must run *on* the host loop: the
                # calling thread may itself be inside a running loop.
                asyncio.run_coroutine_threadsafe(
                    loop.shutdown_default_executor(), loop
                ).result()
                loop.call_soon_threadsafe(loop.stop)
                host.join()
                loop.close()

        return stream()

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
    if spec in ("pool", "process", "process-pool"):
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
    reused across sessions and workers receive cache *paths* instead of
    measurement payloads.
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

    def _plan(
        self,
        kind: str,
        scenarios_by_key: Dict[str, Scenario],
        memo: Dict[str, Any],
        on_disk: set,
    ):
        """Resolve keys through memo then disk; return what to compute.

        Memo hits are backfilled to the attached cache (validity-gated,
        once per key) so a cache attached *after* measurement still gets
        populated; every key verified on disk lands in ``on_disk``.
        Returns ``(missing keys -> scenario, disk-hit count)``.
        """
        getter = None
        if self.cache is not None:
            getter = (
                self.cache.get_profile if kind == KIND_PROFILE
                else self.cache.get_baseline
            )
        missing: Dict[str, Scenario] = {}
        from_disk = 0
        for key, scenario in scenarios_by_key.items():
            if key in memo:
                if _persist(self.cache, kind, key, memo[key],
                            only_if_absent=True):
                    on_disk.add((kind, key))
                continue
            if getter is not None:
                cached = getter(key)
                if cached is not None:
                    memo[key] = cached
                    from_disk += 1
                    on_disk.add((kind, key))
                    continue
            missing[key] = scenario
        return missing, from_disk

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
        cache_dir = str(self.cache.root) if self.cache is not None else None

        # Phases 1+2: resolve each unique profile key / baseline key
        # through memo then disk; what remains must be measured.
        profile_scenarios: Dict[str, Scenario] = {}
        baseline_scenarios: Dict[str, Scenario] = {}
        for scenario in scenarios:
            if scenario.needs_profile:
                # One requirement for a static scenario (itself); one
                # per join group for a dynamic one -- each group's
                # standalone profile is planned, cached and shared
                # exactly like a static scenario's.
                for _group, requirement in scenario.profile_requirements():
                    profile_scenarios.setdefault(
                        requirement.profile_key, requirement
                    )
            baseline_scenarios.setdefault(scenario.baseline_key, scenario)
        on_disk: set = set()
        missing_profiles, profiles_from_disk = self._plan(
            KIND_PROFILE, profile_scenarios, _PROFILE_CACHE, on_disk
        )
        missing_baselines, baselines_from_disk = self._plan(
            KIND_BASELINE, baseline_scenarios, _BASELINE_CACHE, on_disk
        )

        self.last_stats = {
            "scenarios": len(scenarios),
            "profiles_computed": len(missing_profiles),
            "profiles_cached":
                len(profile_scenarios) - len(missing_profiles)
                - profiles_from_disk,
            "profiles_from_disk": profiles_from_disk,
            "baselines_computed": len(missing_baselines),
            "baselines_cached":
                len(baseline_scenarios) - len(missing_baselines)
                - baselines_from_disk,
            "baselines_from_disk": baselines_from_disk,
        }

        # One combined measurement phase: profiles and baselines are
        # independent, so a parallel backend overlaps them freely
        # instead of draining one kind before starting the other.
        backend = self.backend
        measure_tasks = [
            {"kind": kind, "key": key, "scenario": scenario.to_dict(),
             "cache_dir": cache_dir}
            for kind, missing in (
                (KIND_PROFILE, missing_profiles),
                (KIND_BASELINE, missing_baselines),
            )
            for key, scenario in missing.items()
        ]
        for result in backend.map(_measure_task, measure_tasks):
            if result["kind"] == KIND_PROFILE:
                _PROFILE_CACHE[result["key"]] = profile_from_payload(
                    result["payload"]
                )
            else:
                _BASELINE_CACHE[result["key"]] = run_metrics_from_payload(
                    result["payload"]
                )
            if result["persisted"]:
                # The worker's own write outcome: a key that landed on
                # disk can be referenced by cache path, anything else
                # must ship inline to non-memory-sharing backends.
                on_disk.add((result["kind"], result["key"]))

        # Phase 3: execute.  Tasks reference measurements by cache path
        # + key; inline payloads ride along only for keys a non-shared
        # backend could not otherwise resolve -- serialized once per
        # unique key, with every task referencing the same (read-only)
        # payload object.
        inline_payloads: Dict[Any, Dict[str, Any]] = {}

        def inline_payload(kind: str, key: str) -> Dict[str, Any]:
            if (kind, key) not in inline_payloads:
                inline_payloads[(kind, key)] = (
                    profile_to_payload(_PROFILE_CACHE[key])
                    if kind == KIND_PROFILE
                    else run_metrics_to_payload(
                        _BASELINE_CACHE[key], task_stats=False
                    )
                )
            return inline_payloads[(kind, key)]

        execute_tasks: List[Dict[str, Any]] = []
        for scenario in scenarios:
            task: Dict[str, Any] = {
                "scenario": scenario.to_dict(),
                "profile_key":
                    scenario.profile_key if scenario.needs_profile else None,
                "baseline_key": scenario.baseline_key,
                "cache_dir": cache_dir,
                # Persistence was handled once per key in _plan; workers
                # must not re-verify it per task.
                "persisted": self.cache is not None,
            }
            if not backend.shares_memory:
                profile_key = task["profile_key"]
                if profile_key is not None and \
                        (KIND_PROFILE, profile_key) not in on_disk:
                    task["profile"] = inline_payload(KIND_PROFILE, profile_key)
                if scenario.is_dynamic and scenario.needs_profile:
                    # Per-group curves of a dynamic scenario travel the
                    # same way: by cache reference when on disk, inline
                    # otherwise (serialized once per unique key).
                    group_payloads = {
                        group: inline_payload(
                            KIND_PROFILE, requirement.profile_key
                        )
                        for group, requirement
                        in scenario.profile_requirements()
                        if (KIND_PROFILE, requirement.profile_key)
                        not in on_disk
                    }
                    if group_payloads:
                        task["profiles"] = group_payloads
                if (KIND_BASELINE, task["baseline_key"]) not in on_disk:
                    task["baseline"] = inline_payload(
                        KIND_BASELINE, task["baseline_key"]
                    )
            execute_tasks.append(task)
        for payload in backend.map(_execute_task, execute_tasks):
            store.append(payload)
        return store
