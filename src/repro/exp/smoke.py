"""CI mini-grid smoke: ``python -m repro.exp.smoke``.

Runs a 2x2 scenario grid (two L2 sizes x two solvers) *twice* against
a persistent profile cache, then asserts the experiment pipeline's
contracts end to end:

- the JSONL schema round-trips through :meth:`ResultStore.load`,
- profiling ran once for the whole grid (the L2 axis and the solver
  axis share one profile key) -- and on the second pass, with the memo
  tables cleared, ran *zero* times: everything resolves from the
  on-disk cache, and the store fingerprint is byte-identical,
- a third pass re-runs the grid with ``engine="reference"`` (the
  oracle walk, where the first two passes ran the default ``compiled``
  engine): cache keys and records exclude the engine, so it must
  re-measure nothing and reproduce the cold fingerprint bit for bit,
- every set-partitioned record removed cross-owner interference.

The cache root honours ``$REPRO_PROFILE_CACHE``; without it a temp
directory keeps local runs hermetic.  CI points the env var at a
workspace path and invokes the smoke twice -- the second invocation
passes ``--expect-warm``, which additionally asserts that the *first*
pass of that process performed zero profiling passes AND that its
store fingerprint matches the one the cold invocation recorded next
to the cache (cross-process identity, not just cross-runner).

Finishes in well under 30 seconds; exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro.cake import CakeConfig
from repro.core import MethodConfig
from repro.core.profiling import profiling_passes
from repro.exp import (
    ExperimentRunner,
    ProfileCache,
    ResultStore,
    Scenario,
    TransitionSpec,
    WorkloadSpec,
    clear_caches,
    content_hash,
    run_scenario,
    sweep,
)
from repro.exp.cache import CACHE_ENV_VAR
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig


def _base_scenario() -> Scenario:
    # Four 12 KB stages against a 64/128 KB L2: the stages genuinely
    # contend for the cache, so partitioning has something to win.
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
    )


def build_grid():
    """The 2x2 smoke grid: L2 capacity x solver, one profile key."""
    return sweep(_base_scenario(), l2_size_kb=[64, 128], solver=["dp", "greedy"])


def build_dynamic_scenario() -> Scenario:
    """One online transition: the smoke pipeline joins itself mid-run.

    The join group's profile requirement is *exactly* the profile key
    the static grid caches, so against a warm cache the arrival costs
    zero profiling passes -- the compositional online contract.
    """
    base = _base_scenario()
    return Scenario(
        workload=base.workload,
        cake=base.cake,
        method=base.method,
        transitions=(
            TransitionSpec(
                at=200_000.0, action="join",
                workload=base.workload, group="late",
            ),
        ),
    )


def _check_records(store: ResultStore, problems: List[str]) -> None:
    """The per-record contracts both passes must satisfy."""
    if len(store) != 4:
        problems.append(f"expected 4 records, got {len(store)}")
    for record in store:
        if record.partitioned["cross_evictions"] != 0:
            problems.append(
                f"{record.scenario_id}: set partitioning left "
                f"{record.partitioned['cross_evictions']} cross-evictions"
            )
        if record.miss_reduction_factor < 1.2:
            problems.append(
                f"{record.scenario_id}: no miss reduction "
                f"({record.miss_reduction_factor})"
            )


def run_smoke(
    cache_dir: Path,
    tmp: Path,
    expect_warm: bool,
    backend: Optional[str] = None,
) -> int:
    scenarios = build_grid()
    cache = ProfileCache(cache_dir)
    problems: List[str] = []

    # Pass 1: parallel runner against the (possibly pre-warmed) cache.
    # ``backend`` overrides the transport (the CI service job passes
    # "remote" to ship this pass through a server + worker fleet); the
    # later passes stay inline, so their fingerprint checks double as
    # a transport-vs-inline differential gate.
    runner = ExperimentRunner(
        workers=2, store_path=str(tmp / "smoke.jsonl"), cache=cache,
        backend=backend,
    )
    store = runner.run(scenarios)
    stats = runner.last_stats
    measured = stats["profiles_computed"] + stats["profiles_from_disk"]
    if measured != 1:
        problems.append(
            f"expected exactly 1 profile for the grid (computed or "
            f"cached), got {stats}"
        )
    if expect_warm and (
        stats["profiles_computed"] != 0 or stats["baselines_computed"] != 0
    ):
        problems.append(
            f"--expect-warm: first pass still computed "
            f"{stats['profiles_computed']} profiles / "
            f"{stats['baselines_computed']} baselines (cache at "
            f"{cache.root} was cold or partial)"
        )
    # Pin the store fingerprint *across processes*: each invocation
    # records it next to the cache, and --expect-warm compares against
    # what the cold invocation recorded -- cached measurements must
    # reproduce the cold run's records bit for bit.
    marker = cache_dir / "smoke.fingerprint"
    if expect_warm:
        if not marker.exists():
            problems.append(
                f"--expect-warm: no fingerprint recorded at {marker} "
                f"(was the cold smoke run against this cache?)"
            )
        elif marker.read_text().strip() != store.fingerprint():
            problems.append(
                f"cross-process fingerprint drift: cold run recorded "
                f"{marker.read_text().strip()}, warm cache reproduced "
                f"{store.fingerprint()}"
            )
    cache_dir.mkdir(parents=True, exist_ok=True)
    marker.write_text(store.fingerprint() + "\n")
    loaded = ResultStore.load(tmp / "smoke.jsonl")
    if loaded.fingerprint() != store.fingerprint():
        problems.append("JSONL round-trip changed the store fingerprint")
    if loaded.canonical() != store.canonical():
        problems.append("JSONL round-trip changed record contents")
    _check_records(store, problems)

    # Pass 2: memo tables cleared, fresh inline runner -- everything
    # must come from the disk cache, with zero profiling passes.
    clear_caches()
    passes_before = profiling_passes()
    second_runner = ExperimentRunner(
        workers=1, store_path=str(tmp / "smoke_warm.jsonl"), cache=cache
    )
    second = second_runner.run(scenarios)
    warm_stats = second_runner.last_stats
    warm_passes = profiling_passes() - passes_before
    if warm_passes != 0:
        problems.append(
            f"warm pass performed {warm_passes} profiling passes "
            f"(expected 0)"
        )
    if warm_stats["profiles_computed"] != 0 or warm_stats["baselines_computed"] != 0:
        problems.append(f"warm pass recomputed work: {warm_stats}")
    if warm_stats["profiles_from_disk"] != 1:
        problems.append(
            f"warm pass expected 1 profile from disk, got {warm_stats}"
        )
    if second.fingerprint() != store.fingerprint():
        problems.append(
            "warm-cache fingerprint differs from the cold run "
            f"({second.fingerprint()} != {store.fingerprint()})"
        )

    # Pass 3: the same grid on the reference engine (passes 1 and 2
    # ran the default, compiled one).  Engines are bit-identical and
    # excluded from every identity, so this pass must (a) reuse every
    # cached measurement -- profile and baseline keys are
    # engine-invariant -- and (b) reproduce the cold store fingerprint
    # record for record.  (Without a C toolchain the default engine
    # already degrades to the reference walk; the gate holds either
    # way.)
    reference_runner = ExperimentRunner(
        workers=1, store_path=str(tmp / "smoke_reference.jsonl"),
        cache=cache,
    )
    reference = reference_runner.run(
        [scenario.with_engine("reference") for scenario in scenarios]
    )
    reference_stats = reference_runner.last_stats
    if (reference_stats["profiles_computed"]
            or reference_stats["baselines_computed"]):
        problems.append(
            f"engine='reference' pass re-measured work (engine must be "
            f"excluded from cache keys): {reference_stats}"
        )
    if reference.fingerprint() != store.fingerprint():
        problems.append(
            "engine='reference' fingerprint differs from the cold run "
            f"({reference.fingerprint()} != {store.fingerprint()})"
        )

    # Pass 4: one online transition.  The dynamic scenario's two
    # profile requirements (base + join group) both map to the profile
    # key the grid already measured, so the arrival of the
    # already-profiled task set performs zero profiling passes; and its
    # record (canonical form, timing excluded) must be deterministic
    # across processes, pinned like the grid fingerprint.
    passes_before = profiling_passes()
    dynamic_outcome = run_scenario(build_dynamic_scenario(), cache=cache)
    dynamic_passes = profiling_passes() - passes_before
    if dynamic_passes != 0:
        problems.append(
            f"dynamic scenario performed {dynamic_passes} profiling passes "
            f"(a warm-cache arrival must re-profile nothing)"
        )
    payload = dynamic_outcome.record.payload
    transitions = payload.get("transitions") or []
    if len(transitions) != 1 or not transitions[0]["admitted"]:
        problems.append(f"dynamic join was not admitted: {transitions}")
    epochs = payload.get("epochs") or []
    if len(epochs) != 2:
        problems.append(f"expected 2 epochs (join + end), got {len(epochs)}")
    dynamic_fp = content_hash(dynamic_outcome.record.canonical())
    dynamic_marker = cache_dir / "smoke.dynamic.fingerprint"
    if expect_warm:
        if not dynamic_marker.exists():
            problems.append(
                f"--expect-warm: no dynamic fingerprint at {dynamic_marker}"
            )
        elif dynamic_marker.read_text().strip() != dynamic_fp:
            problems.append(
                f"dynamic record fingerprint drift: cold run recorded "
                f"{dynamic_marker.read_text().strip()}, warm reproduced "
                f"{dynamic_fp}"
            )
    dynamic_marker.write_text(dynamic_fp + "\n")

    header, rows = store.to_table(
        ("l2_kb", "solver", "shared_miss_rate", "partitioned_miss_rate",
         "miss_reduction_factor")
    )
    print("mini-grid smoke (2x2 scenarios, workers=2, then warm re-run)")
    print("  " + " | ".join(header))
    for row in rows:
        print("  " + " | ".join(
            f"{v:.4f}" if isinstance(v, float) else str(v) for v in row
        ))
    print(
        f"  cache {cache.root}: "
        f"profiles computed={stats['profiles_computed']} "
        f"from_disk={stats['profiles_from_disk']}; warm pass "
        f"computed={warm_stats['profiles_computed']} "
        f"from_disk={warm_stats['profiles_from_disk']} "
        f"(profiling passes: {warm_passes})"
    )
    if problems:
        for problem in problems:
            print(f"SMOKE FAILURE: {problem}", file=sys.stderr)
        return 1
    print(
        "smoke ok: schema round-trips, 1 profile pass, warm re-run "
        "re-profiled nothing, reference engine reproduced the "
        "fingerprint from cache, online join admitted with zero "
        "re-profiling, interference-free"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp.smoke",
        description="CI mini-grid smoke over the cached sweep pipeline.",
    )
    parser.add_argument(
        "--expect-warm",
        action="store_true",
        help="assert the profile cache is already warm (zero profiling "
        "passes even on the first run of this process)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="execution backend for the first grid pass (e.g. 'remote' "
        "to ship it through a running sweep server + worker fleet; "
        "default: a 2-worker process pool)",
    )
    args = parser.parse_args(argv)

    env_dir = os.environ.get(CACHE_ENV_VAR)
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = Path(env_dir) if env_dir else Path(tmp) / "cache"
        return run_smoke(
            cache_dir, Path(tmp), args.expect_warm, backend=args.backend
        )


if __name__ == "__main__":
    sys.exit(main())
