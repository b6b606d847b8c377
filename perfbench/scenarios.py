"""The benchmark's workloads, their correctness checks and span hooks.

Three workloads, all run through the public experiment API on the
inline runner with the library's default engine:

- ``cold_paper`` -- the paper's experiment from an empty cache.
- ``warm_paper`` -- JPEG+Canny from a warm cache, static, with an
  online leave and join, and with the mark-only control.
- ``warm_grid`` -- the smoke grid's base scenario swept over 30
  points, from a warm cache.

Each scenario is one operation.  It fails when it raises, when its
record differs from the pin for the seed, or when it breaks one of the
invariants that hold on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.cake import CakeConfig
from repro.cake.platform import Platform
from repro.core import MethodConfig
from repro.core.allocation import BufferPolicy
from repro.core.method import CompositionalMethod
from repro.exp import (
    DynamicScenario,
    ExperimentRunner,
    ProfileCache,
    ResultStore,
    Scenario,
    TransitionSpec,
    WorkloadSpec,
    content_hash,
    sweep,
)
from repro.kpn.process import TaskContext
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig, MemorySystem
from repro.mem.partition import OwnerResolver, PartitionMode, SetPartitionMap
from repro.mem.trace import AccessBatch
from repro.rtos.cachectl import CacheController

import repro.core.method as core_method
import repro.exp.runner as exp_runner

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Simulated instants of warm_paper's online transitions (cycles).
T_LEAVE = 400_000.0
T_JOIN = 800_000.0

#: JPEG decoder 1 -- the leaving set.
LEAVER = dict(
    tasks=("FrontEnd1", "IDCT1", "Raster1", "BackEnd1"),
    fifos=("coef1", "pix1", "lines1"),
    frames=("jpeg_in1", "jpeg_out1"),
)

#: The paper's in-text results (§5) beside which the accuracy block
#: prints the model's numbers.
PAPER_REFERENCE = {
    "two_jpeg_canny": "9.46% -> 2.21%, ~5x fewer misses, CPI -20%",
    "mpeg2": "5.1% -> 0.8%, ~6.5x fewer misses, CPI -4%",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the timed scenarios and how to prepare."""

    name: str
    scenarios: tuple
    #: Whether set-up fills the cache with a cold pass (the timed part
    #: then runs in a new session against it).
    warm: bool

    def fill_scenarios(self) -> List[Scenario]:
        """The cold pass: the first scenario needing each profile or
        baseline key, which leaves the cache exactly as warm as the
        whole list would."""
        seen: Set[str] = set()
        chosen: List[Scenario] = []
        for scenario in self.scenarios:
            keys = {f"b:{scenario.baseline_key}"}
            if scenario.needs_profile:
                keys |= {
                    f"p:{requirement.profile_key}"
                    for _group, requirement in scenario.profile_requirements()
                }
            if not keys <= seen:
                seen |= keys
                chosen.append(scenario)
        return chosen


def _paper_app(name: str, seed: int) -> Scenario:
    """A paper application at paper scale, one frame, library defaults."""
    return Scenario(
        workload=WorkloadSpec(name, {"scale": "paper", "frames": 1}),
        seed=seed,
    )


def _grid_base(seed: int) -> Scenario:
    """The smoke grid's base scenario: four 12 KB pipeline stages."""
    return Scenario(
        workload=WorkloadSpec(
            "pipeline",
            {"n_stages": 4, "n_tokens": 24, "token_bytes": 1024,
             "work_bytes": 12 * 1024},
        ),
        cake=CakeConfig(
            n_cpus=2,
            hierarchy=HierarchyConfig(
                l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
                l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
            ),
        ),
        method=MethodConfig(sizes=[1, 2, 4, 8]),
        seed=seed,
    )


def build_workload(name: str, seed: int) -> Workload:
    """The named workload with its inputs derived from ``seed``."""
    if name == "cold_paper":
        return Workload(
            name,
            (_paper_app("two_jpeg_canny", seed), _paper_app("mpeg2", seed)),
            warm=False,
        )
    if name == "warm_paper":
        static = _paper_app("two_jpeg_canny", seed)
        dynamic = replace(static, transitions=(
            TransitionSpec(at=T_LEAVE, action="leave", **LEAVER),
            TransitionSpec(at=T_JOIN, action="join",
                           workload=static.workload, group="late"),
        ))
        control = replace(static, transitions=(
            TransitionSpec(at=T_LEAVE, action="mark"),
            TransitionSpec(at=T_JOIN, action="mark"),
        ))
        return Workload(name, (static, dynamic, control), warm=True)
    if name == "warm_grid":
        base = _grid_base(seed)
        grid = sweep(
            base,
            l2_size_kb=[32, 64, 128],
            fifo_policy=list(BufferPolicy),
            solver=["dp", "greedy", "milp"],
        )
        grid += sweep(
            replace(base, partition_mode=PartitionMode.WAY_PARTITIONED),
            l2_size_kb=[32, 64, 128],
        )
        return Workload(name, tuple(grid), warm=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cold_paper", "warm_paper", "warm_grid")


def run_session(
    scenarios, cache: ProfileCache, store_path: Path
) -> tuple:
    """One session: a fresh inline runner over ``scenarios``.

    Returns ``(store, runner, error)``; records completed before an
    exception stay in the store.
    """
    runner = ExperimentRunner(workers=1, cache=cache)
    store = ResultStore(path=store_path)
    try:
        runner.run(scenarios, store=store)
    except Exception as exc:  # a failed operation, counted by the caller
        return store, runner, exc
    return store, runner, None


# -- pins and checks ----------------------------------------------------------


def load_pins() -> Dict[str, Any]:
    return json.loads(PINS_PATH.read_text())


def record_hash(record) -> str:
    """Content hash of a record minus its timing block."""
    return content_hash(record.canonical())


def pin_entry(store: ResultStore, instructions: int) -> Dict[str, Any]:
    """What the pins file stores for one workload and seed."""
    return {
        "fingerprint": store.fingerprint(),
        "instructions": instructions,
        "records": {
            record.scenario_id: record_hash(record) for record in store
        },
    }


def check_session(
    workload: Workload,
    seed: int,
    store: ResultStore,
    error: Optional[BaseException],
    instructions: int,
    profiling_passes: int,
    last_stats: Dict[str, int],
    pins: Dict[str, Any],
) -> Dict[str, str]:
    """Failed operations of one timed session: scenario id -> reason.

    Invariants apply on every seed; pins only where the pins file has
    an entry for the workload and seed.
    """
    by_id = {record.scenario_id: record for record in store}
    failed: Dict[str, str] = {}

    def fail(scenario_id: str, reason: str) -> None:
        failed.setdefault(scenario_id, reason)

    for scenario in workload.scenarios:
        record = by_id.get(scenario.scenario_id)
        if record is None:
            fail(scenario.scenario_id, "no record (the session raised)")
            continue
        transitions = record.payload.get("transitions") or []
        if not scenario.transitions and \
                scenario.partition_mode is PartitionMode.SET_PARTITIONED and \
                record.partitioned["cross_evictions"] != 0:
            fail(scenario.scenario_id,
                 f"{record.partitioned['cross_evictions']} cross-owner "
                 f"evictions under static set partitioning")
        for outcome in transitions:
            if outcome["action"] != "mark" and not outcome["admitted"]:
                fail(scenario.scenario_id,
                     f"{outcome['action']} at {outcome['at']} rejected "
                     f"({outcome['reason']})")

    every = [scenario.scenario_id for scenario in workload.scenarios]
    if workload.warm and (
        profiling_passes != 0
        or last_stats.get("profiles_computed", 0) != 0
        or last_stats.get("baselines_computed", 0) != 0
    ):
        for scenario_id in every:
            fail(scenario_id,
                 f"warm session measured work: {profiling_passes} profiling "
                 f"passes, runner stats {last_stats}")

    pinned = pins.get(workload.name, {}).get(str(seed))
    if pinned is not None:
        for scenario_id, digest in pinned["records"].items():
            record = by_id.get(scenario_id)
            if record is not None and record_hash(record) != digest:
                fail(scenario_id, "record differs from its pin")
        if instructions != pinned["instructions"]:
            for scenario_id in every:
                fail(scenario_id,
                     f"simulated {instructions} instructions, pinned "
                     f"{pinned['instructions']}")
        if not failed and error is None and \
                store.fingerprint() != pinned["fingerprint"]:
            for scenario_id in every:
                fail(scenario_id, "store fingerprint differs from its pin")
    return failed


def accuracy_lines(store: ResultStore) -> List[str]:
    """The informational accuracy block (never a regression metric)."""
    lines = []
    for record in store:
        name = record.axes["workload"]
        if name not in PAPER_REFERENCE or record.payload.get("transitions") \
                or record.mode != PartitionMode.SET_PARTITIONED.value:
            continue
        lines.append(
            f"  {name:15s} L2 miss rate {record.shared_miss_rate:.2%} -> "
            f"{record.partitioned_miss_rate:.2%}, "
            f"{record.miss_reduction_factor:.2f}x fewer misses, "
            f"CPI {-record.cpi_improvement:+.1%}"
            f"   | paper: {PAPER_REFERENCE[name]}"
        )
    if lines:
        lines.insert(0, "accuracy (informational; the model is unvalidated "
                        "at frames=1, not a regression metric):")
    return lines


def replan_summary(store: ResultStore) -> Dict[str, float]:
    """Replan latency and admission counts from the dynamic records."""
    waits: List[float] = []
    admitted = rejected = 0
    for record in store:
        outcomes = record.payload.get("transitions") or []
        walls = record.payload["timing"].get("replan_wall_s") or []
        for outcome, wall in zip(outcomes, walls):
            if outcome["action"] == "mark":
                continue
            waits.append(wall)
            if outcome["admitted"]:
                admitted += 1
            else:
                rejected += 1
    waits.sort()
    median = 0.0
    if waits:
        mid = len(waits) // 2
        median = waits[mid] if len(waits) % 2 else \
            (waits[mid - 1] + waits[mid]) / 2
    return {
        "exp.replan_ms": median * 1e3,
        "exp.admitted": admitted,
        "exp.rejected": rejected,
    }


# -- span hooks -----------------------------------------------------------------


def install_spans(tracer, walker) -> None:
    """Wrap every layer's public entry points with span recorders.

    ``walker`` is the :class:`~repro.mem.cwalker.CWalker` that
    ``cwalker.load()`` returned (``None`` without the C tier).  The
    runner helpers labelled last only tag spans with the scenario (or
    measurement) they serve.
    """
    wrap = tracer.wrap
    wrap(Platform, "__init__", "Platform.__init__", "cake.build")
    wrap(Platform, "run", "Platform.run", "cake.run")
    for attr in ("program_set_partitions", "program_way_partitions",
                 "program_set_layout", "assign_units", "release_units"):
        wrap(CacheController, attr, f"CacheController.{attr}",
             "rtos.program")
    for attr in ("fetch", "stream", "block", "gather", "stencil", "table"):
        wrap(TaskContext, attr, f"TaskContext.{attr}", "kpn.traffic")
    wrap(TaskContext, "compute", "TaskContext.compute", "kpn.traffic",
         count=lambda args, op: (op.batch.n_accesses, 0))
    wrap(MemorySystem, "execute_batch", "MemorySystem.execute_batch",
         "mem.execute")
    wrap(MemorySystem, "execute_segment", "MemorySystem.execute_segment",
         "mem.execute", count=lambda args, _result: (len(args[1]), 0))
    wrap(AccessBatch, "runs", "AccessBatch.runs", "mem.coalesce",
         count=lambda args, runs: (int(runs[0].shape[0]),
                                   args[0].n_accesses))
    wrap(OwnerResolver, "resolve_many", "OwnerResolver.resolve_many",
         "mem.resolve")
    wrap(SetPartitionMap, "map_index_many", "SetPartitionMap.map_index_many",
         "mem.map_index")
    if walker is not None:
        wrap(walker, "walk_batch", "CWalker.walk_batch", "mem.c_walk")
        wrap(walker, "walk_segment", "CWalker.walk_segment", "mem.c_walk")
    wrap(MemorySystem, "sync_state", "MemorySystem.sync_state", "mem.sync")
    wrap(MemorySystem, "quiesce", "MemorySystem.quiesce", "mem.sync")
    for attr in ("repartition", "repartition_owners"):
        wrap(MemorySystem, attr, f"MemorySystem.{attr}", "mem.repartition",
             count=lambda args, writebacks: (writebacks, 0))
    wrap(CompositionalMethod, "profile", "CompositionalMethod.profile",
         "core.profile")
    wrap(CompositionalMethod, "optimize", "CompositionalMethod.optimize",
         "core.optimize")
    wrap(exp_runner, "optimize_way_assignment", "optimize_way_assignment",
         "core.optimize")
    wrap(core_method, "compare_expected_simulated",
         "compare_expected_simulated", "core.validate")
    wrap(ExperimentRunner, "run", "ExperimentRunner.run", "exp.run")
    wrap(ProfileCache, "get", "ProfileCache.get", "exp.cache_get",
         count=lambda args, payload: (int(payload is not None), 0))
    wrap(ProfileCache, "put", "ProfileCache.put", "exp.cache_put")
    wrap(ResultStore, "append", "ResultStore.append", "exp.store_append")
    wrap(DynamicScenario, "run", "DynamicScenario.run", "exp.dynamic")
    tracer.label(exp_runner, "_measure_task",
                 lambda args: f"measure:{args[0]['kind']}:{args[0]['key']}")
    tracer.label(exp_runner, "execute_scenario",
                 lambda args: args[0].scenario_id)
