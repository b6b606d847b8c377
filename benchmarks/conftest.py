"""Shared fixtures for the benchmark harness.

The paper's two applications are declared once as experiment
:class:`~repro.exp.Scenario` specs; :func:`repro.exp.run_scenario`
executes them through the single-scenario engine with process-wide
memoization, so the expensive artifacts (profiling sweep + shared +
partitioned simulation) are computed once per session and shared by
the per-table / per-figure benchmarks *and* the ablation grids --
an ablation that varies only the solver or the FIFO policy reuses the
session's miss curves and baseline run instead of re-measuring them.

Profiling and baselines additionally persist in a
:class:`~repro.exp.ProfileCache` under ``benchmarks/results/``: a
*second* benchmark session re-profiles nothing at all (identical keys
yield identical payloads, so re-runs reproduce the same records).
Delete ``benchmarks/results/profile_cache`` -- or run ``python -m
repro.exp.cache clear --dir benchmarks/results/profile_cache`` -- to
force fresh measurements.

Every scenario's record also streams into a session-wide
:class:`~repro.exp.ResultStore` (``benchmarks/results/experiments.jsonl``)
rendered as a closing sweep report, and each benchmark still writes
its textual artifact under ``benchmarks/results/``.
"""

from pathlib import Path

import pytest

from repro.analysis import report_from_store
from repro.cake import CakeConfig
from repro.core import MethodConfig
from repro.exp import ProfileCache, ResultStore, Scenario, WorkloadSpec, run_scenario

RESULTS_DIR = Path(__file__).parent / "results"

#: Cross-session measurement reuse for the benchmark harness.
PROFILE_CACHE = ProfileCache(RESULTS_DIR / "profile_cache")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf_smoke: hierarchy-engine regression gates -- the compiled "
        "engine against the seed baseline (2x) and the reference engine "
        "(12x on the schedule bench, 7x on a paper-scale run), and the "
        "online-transition survivor check (run with: pytest "
        "benchmarks/bench_engine_speed.py -m perf_smoke)",
    )

#: Allocation-size menu (units) used by every profiling sweep.
SIZE_MENU = [1, 2, 4, 8, 16, 32, 64]

#: Frames simulated per application (app 1 strips are heavier).
APP1_FRAMES = 2
APP2_FRAMES = 4

#: The paper's CAKE instance: 4 CPUs, 512 KB 4-way L2.
PAPER_CAKE = CakeConfig()

#: 2x JPEG + Canny (Table 1 / Figure 2-3 left).
APP1_SCENARIO = Scenario(
    workload=WorkloadSpec(
        "two_jpeg_canny", {"scale": "paper", "frames": APP1_FRAMES}
    ),
    cake=PAPER_CAKE,
    method=MethodConfig(sizes=SIZE_MENU, solver="dp"),
)

#: The 13-task MPEG-2 decoder (Table 2 / Figure 2-3 right).
APP2_SCENARIO = Scenario(
    workload=WorkloadSpec(
        "mpeg2", {"scale": "paper", "frames": APP2_FRAMES}
    ),
    cake=PAPER_CAKE,
    method=MethodConfig(sizes=SIZE_MENU, solver="dp"),
)


def write_artifact(name: str, text: str) -> Path:
    """Persist one benchmark's textual artifact."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def platform_config():
    """The paper's CAKE instance: 4 CPUs, 512 KB 4-way L2."""
    return PAPER_CAKE


@pytest.fixture(scope="session")
def app1_method():
    """Single-scenario pipeline engine for 2x JPEG + Canny."""
    return APP1_SCENARIO.build_method()


@pytest.fixture(scope="session")
def app2_method():
    """Single-scenario pipeline engine for the MPEG-2 decoder."""
    return APP2_SCENARIO.build_method()


@pytest.fixture(scope="session")
def experiment_store():
    """The session's result stream (records append as benches run)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return ResultStore(path=RESULTS_DIR / "experiments.jsonl")


@pytest.fixture(scope="session")
def app1_outcome(experiment_store):
    """Record + full report for application 1 (computed once)."""
    outcome = run_scenario(APP1_SCENARIO, cache=PROFILE_CACHE)
    experiment_store.append(outcome.record)
    return outcome


@pytest.fixture(scope="session")
def app2_outcome(experiment_store):
    """Record + full report for application 2 (computed once)."""
    outcome = run_scenario(APP2_SCENARIO, cache=PROFILE_CACHE)
    experiment_store.append(outcome.record)
    return outcome


@pytest.fixture(scope="session")
def app1_report(app1_outcome):
    """Full pipeline MethodReport for application 1."""
    return app1_outcome.report


@pytest.fixture(scope="session")
def app2_report(app2_outcome):
    """Full pipeline MethodReport for application 2."""
    return app2_outcome.report


@pytest.fixture(scope="session", autouse=True)
def render_store_report(request, experiment_store):
    """Close the session with the sweep report over every record."""
    yield
    if len(experiment_store):
        write_artifact(
            "experiments_report.txt",
            report_from_store(
                experiment_store, title="benchmark session sweeps",
                columns=("workload", "mode", "l2_kb", "n_cpus", "solver",
                         "fifo_policy", "scheduling", "tag",
                         "shared_miss_rate", "partitioned_miss_rate",
                         "miss_reduction_factor", "cpi_improvement"),
            ),
        )
