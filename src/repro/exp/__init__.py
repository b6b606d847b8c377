"""Declarative experiments: scenario grids, sweep runner, result store.

The paper's evaluation -- and every scaling direction on the roadmap --
is a *sweep*: many (workload, platform, method) points, not one.  This
package makes that the top-level API:

- :mod:`repro.exp.scenario` -- the frozen :class:`Scenario` spec, its
  content hashes (scenario identity, profiling identity), and the JSON
  payload forms of the expensive measurements.
- :mod:`repro.exp.workloads` -- the named-workload registry scenarios
  refer to (serialisable, pool-safe).
- :mod:`repro.exp.grid` -- :class:`Grid` / :func:`sweep`, expanding
  axes (L2 size/ways, CPUs, solver, sizes menu, app, seed, ...) into
  deterministic scenario lists.
- :mod:`repro.exp.cache` -- :class:`ProfileCache`, the persistent
  content-addressed store of profiling sweeps and baselines (atomic,
  checksummed, ``python -m repro.exp.cache stats|clear``).
- :mod:`repro.exp.runner` -- :class:`ExperimentRunner`, executing
  scenarios through a pluggable :class:`ExecutionBackend` (inline,
  process pool, thread pool) with cached profiling and shared
  baselines, streaming records into a store; the only reader and
  writer of the profile cache.
- :mod:`repro.exp.service` -- the distributed half: a work-queue
  server on the stdlib ``http.server`` (``python -m repro.exp.service
  serve``), pulling workers with leases/heartbeats/retry, and
  :class:`RemoteBackend` (``backend="remote"``) shipping the same JSON
  tasks over HTTP; the tasks carry their measurements, so workers
  share no cache.
- :mod:`repro.exp.store` -- :class:`ResultStore`, the append-only JSONL
  record stream with indexed load/filter/to-table queries.

Typical use::

    from repro.exp import ExperimentRunner, Scenario, WorkloadSpec, sweep

    base = Scenario(workload=WorkloadSpec("mpeg2", {"scale": "paper"}))
    scenarios = sweep(base, l2_size_kb=[256, 512, 1024], solver=["dp"])
    store = ExperimentRunner(workers=4, cache=True).run(scenarios)
    print(store.to_table())
"""

from repro.exp.cache import ProfileCache, default_cache_dir, resolve_cache
from repro.exp.dynamic import (
    DynamicResult,
    DynamicScenario,
    EpochRecord,
    TransitionOutcome,
    merge_networks,
    run_dynamic,
)
from repro.exp.grid import AXES, Grid, sweep
from repro.exp.runner import (
    AsyncBackend,
    ExecutionBackend,
    ExperimentRunner,
    InlineBackend,
    KNOWN_BACKENDS,
    ProcessPoolBackend,
    ScenarioOutcome,
    clear_caches,
    execute_scenario,
    make_backend,
    run_scenario,
)

# Imported after runner: the service's worker and backend modules hang
# off the runner's task protocol and ExecutionBackend seam.
from repro.exp.service import (
    RemoteBackend,
    ServiceClient,
    SweepServer,
    run_worker,
)
from repro.exp.scenario import (
    Scenario,
    TransitionSpec,
    WorkloadSpec,
    content_hash,
    profile_from_payload,
    profile_to_payload,
    run_metrics_from_payload,
    run_metrics_to_payload,
)
from repro.exp.store import SCHEMA_VERSION, ResultStore, ScenarioRecord
from repro.exp.workloads import (
    register_workload,
    registered_workloads,
    workload_builder,
)

__all__ = [
    "AXES",
    "AsyncBackend",
    "DynamicResult",
    "DynamicScenario",
    "EpochRecord",
    "ExecutionBackend",
    "ExperimentRunner",
    "Grid",
    "InlineBackend",
    "KNOWN_BACKENDS",
    "ProcessPoolBackend",
    "ProfileCache",
    "RemoteBackend",
    "ResultStore",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioOutcome",
    "ScenarioRecord",
    "ServiceClient",
    "SweepServer",
    "TransitionOutcome",
    "TransitionSpec",
    "WorkloadSpec",
    "clear_caches",
    "content_hash",
    "default_cache_dir",
    "execute_scenario",
    "make_backend",
    "merge_networks",
    "run_dynamic",
    "profile_from_payload",
    "profile_to_payload",
    "register_workload",
    "registered_workloads",
    "resolve_cache",
    "run_metrics_from_payload",
    "run_metrics_to_payload",
    "run_scenario",
    "run_worker",
    "sweep",
    "workload_builder",
]
