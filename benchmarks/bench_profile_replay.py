"""Platform runs replay each task's ops: exactness and speed gates.

Every platform run goes through the process's op-stream table
(:class:`~repro.rtos.task.OpStreams`): the first run of a workload and
seed records every task's ops, and its later runs replay them instead
of stepping the programs and coalescing the batches they build afresh.
This bench times two things per paper application, each as it is and
regenerated (a stream budget of 0: every run steps every program), in
interleaved pairs on the same machine, every one from empty memo
tables (:func:`~repro.exp.clear_caches` also empties the op-stream
table, and the table reads the patched budget when it records):

- the default profiling sweep at ``FRAMES`` frames, where the sweep's
  first run records and its later sizes replay;
- a whole cold scenario at ``SCENARIO_FRAMES`` frame
  (``run_scenario(..., cache=False)``: profile, baseline and
  validation), where the baseline and the validation replay too.

The gates: equal ``ProfileResult``\\ s and equal records, and the
replayed side at least ``GATE_MIN_SPEEDUP`` x (sweeps) and
``SCENARIO_GATE_MIN_SPEEDUP`` x (scenarios) faster than the
regenerated one, the apps' summed times median against median.

Run the gates with::

    PYTHONPATH=src python -m pytest benchmarks/bench_profile_replay.py -m perf_smoke

or standalone (writes ``benchmarks/results/BENCH_profile_replay.json``)::

    PYTHONPATH=src python benchmarks/bench_profile_replay.py
"""

import json
import platform as platform_mod
import statistics
import time
from pathlib import Path

import pytest

from repro.cake.config import CakeConfig
from repro.core.profiling import profile_miss_curves
from repro.exp import Scenario, WorkloadSpec, clear_caches, run_scenario
from repro.exp.workloads import workload_builder
from repro.mem import cwalker
from repro.patterns import memo

RESULTS_DIR = Path(__file__).parent / "results"

#: Both paper applications.  At ``FRAMES`` frames a sweep's streams
#: outgrow the budget: only the tasks whose streams fit replay.
APPS = ("two_jpeg_canny", "mpeg2")
FRAMES = 4
#: One frame, as in the repository benchmark's cold paper session:
#: every stream of one application's scenario fits the budget.
SCENARIO_FRAMES = 1

#: Interleaved (replayed, regenerated) pairs per application.
RUNS = 5

#: The replayed sweeps must beat the regenerated ones by this factor.
#: Five runs of this bench on a shared 2-vCPU Linux host read 1.153,
#: 1.170, 1.180, 1.195 and 1.196x (at four frames the streams of 14 of
#: JPEG+Canny's 15 tasks and 9 of MPEG-2's 13 fit the budget).  Two
#: runs with the budget at 0 on both sides read 1.017 and 1.007x: a
#: sweep that stopped replaying.  The gate sits between.  With one
#: stream table per process a four-frame sweep keeps 13 of JPEG+Canny's
#: 15 streams and 11 of MPEG-2's 13; four runs then read 1.176, 1.181,
#: 1.219 and 1.268x.
GATE_MIN_SPEEDUP = 1.08

#: The replayed cold scenarios must beat the regenerated ones by this
#: factor.  Five runs of this bench on a shared 2-vCPU Linux host read
#: 1.463, 1.498, 1.502, 1.582 and 1.587x (at one frame every stream
#: fits, so 1 of each application's 9 platform runs steps its
#: programs).  Two runs with the budget at 0 on both sides
#: read 0.977 and 1.134x.  The gate sits between.  Replay confined to
#: the profiling sweep, with the baseline and the validation stepping
#: their programs, read 1.274, 1.328 and 1.493x on the same pairs: the
#: host's noise hides it here, and ``tests/test_profile_replay.py``
#: counts the runs that step programs instead.
SCENARIO_GATE_MIN_SPEEDUP = 1.25


def _timed(budget: int, work):
    """``work()`` from empty memo tables with ``budget`` stream bytes;
    returns its result and its seconds."""
    saved = memo.STREAM_BUDGET_BYTES
    memo.STREAM_BUDGET_BYTES = budget
    clear_caches()
    try:
        start = time.perf_counter()
        result = work()
        return result, time.perf_counter() - start
    finally:
        memo.STREAM_BUDGET_BYTES = saved


def timed_sweep(app: str, budget: int):
    """One default sweep of ``app`` at ``FRAMES`` frames."""
    builder = workload_builder(app, scale="paper", frames=FRAMES)
    return _timed(budget, lambda: profile_miss_curves(builder, CakeConfig()))


def timed_scenario(app: str, budget: int):
    """One cold scenario of ``app`` at ``SCENARIO_FRAMES`` frames;
    returns its record without timing."""
    scenario = Scenario(workload=WorkloadSpec(
        app, {"scale": "paper", "frames": SCENARIO_FRAMES},
    ))
    return _timed(
        budget,
        lambda: run_scenario(scenario, cache=False).record.canonical(),
    )


def _pairs(timed, runs: int) -> dict:
    """Interleaved replayed and regenerated ``timed(app, budget)`` runs
    of every app; their seconds and the speedup of the apps' sums."""
    per_app = {}
    for app in APPS:
        app_seconds = {"replayed": [], "regenerated": []}
        for run in range(runs):
            order = [("replayed", memo.STREAM_BUDGET_BYTES),
                     ("regenerated", 0)]
            results = {}
            for kind, budget in order if run % 2 == 0 else order[::-1]:
                results[kind], elapsed = timed(app, budget)
                app_seconds[kind].append(round(elapsed, 3))
            assert results["replayed"] == results["regenerated"], (
                f"{app}: the replayed {timed.__name__} differs from the "
                f"regenerated one -- an exactness failure, not a perf "
                f"question"
            )
        per_app[app] = app_seconds
    # A pair's time is the sum over the apps of that run's times.
    totals = {
        kind: [sum(run) for run in zip(*(per_app[app][kind] for app in APPS))]
        for kind in ("replayed", "regenerated")
    }
    return {
        "seconds": per_app,
        "speedup": round(
            statistics.median(totals["regenerated"])
            / statistics.median(totals["replayed"]), 3,
        ),
    }


def measure(runs: int = RUNS, parts=("sweeps", "scenarios")) -> dict:
    """Interleaved replayed and regenerated sweeps and cold scenarios."""
    report = {
        "bench": "profile_replay",
        "apps": list(APPS),
        "runs": runs,
        "stream_budget_bytes": memo.STREAM_BUDGET_BYTES,
        "c_walker_available": cwalker.load() is not None,
        "python": platform_mod.python_version(),
    }
    if "sweeps" in parts:
        report["sweeps"] = {"frames": FRAMES,
                            "gate_min_speedup": GATE_MIN_SPEEDUP,
                            **_pairs(timed_sweep, runs)}
    if "scenarios" in parts:
        report["scenarios"] = {
            "frames": SCENARIO_FRAMES,
            "gate_min_speedup": SCENARIO_GATE_MIN_SPEEDUP,
            **_pairs(timed_scenario, runs),
        }
    return report


def write_artifact(report: dict) -> Path:
    """Persist ``BENCH_profile_replay.json`` under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_profile_replay.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


#: The parts the gates measured in this process, written together.
_MEASURED: dict = {}


def _gate(part: str) -> None:
    if cwalker.load() is None:
        pytest.skip("no C compiler: the reference walk takes minutes "
                    "over these runs")
    _MEASURED.update(measure(parts=(part,)))
    write_artifact(_MEASURED)
    result = _MEASURED[part]
    assert result["speedup"] >= result["gate_min_speedup"], (
        f"replayed {part} read {result['speedup']}x the regenerated ones, "
        f"below the {result['gate_min_speedup']}x gate "
        f"({json.dumps(result['seconds'])})"
    )


@pytest.mark.perf_smoke
def test_profile_replay_gate():
    """Replayed sweeps equal regenerated ones and beat them by
    ``GATE_MIN_SPEEDUP`` x."""
    _gate("sweeps")


@pytest.mark.perf_smoke
def test_scenario_replay_gate():
    """Replayed cold scenarios give the regenerated records and beat
    them by ``SCENARIO_GATE_MIN_SPEEDUP`` x."""
    _gate("scenarios")


if __name__ == "__main__":
    result = measure()
    print(json.dumps(result, indent=2))
    print(f"wrote {write_artifact(result)}")
