"""Compiled-engine throughput on a multi-CPU schedule: the companion of
the 2M-ref microbench.

``bench_engine_speed`` measures one giant batch on one CPU.  This bench
measures a four-CPU tile running communicating task chains whose
compute ops are a few thousand uncoalesced references each.  Every
engine runs the same per-op CPU loop through the event kernel; the
fast engine walks each op's batch in Python, while the compiled engine
(the default) keeps cache/bank/bus state resident in C and walks each
batch in one C call.  The gate requires the compiled engine to hold
``GATE_MIN_SPEEDUP`` x the pure-Python fast engine's throughput on
this workload (recorded in ``BENCH_schedule.json``), with bit-identical
RunMetrics.  A second gate runs one paper-scale MPEG-2 decode end to
end on the default engine and on ``fast``: identical RunMetrics, and
the default engine at least ``PAPER_GATE_MIN_SPEEDUP`` x faster -- it
fails if the default engine silently demotes to the Python walker.

Run the gate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_schedule_speed.py -m perf_smoke

or standalone (measures every engine tier and writes the artifact)::

    PYTHONPATH=src python benchmarks/bench_schedule_speed.py
"""

import json
import platform as platform_mod
import statistics
import time
from pathlib import Path
from typing import Optional

import pytest

from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.exp.scenario import run_metrics_to_payload
from repro.exp.workloads import workload_builder
from repro.kpn.graph import FifoSpec, ProcessNetwork, TaskSpec
from repro.apps.synthetic import sink_program, source_program
from repro.mem import cwalker
from repro.mem.hierarchy import HierarchyConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: The bench instance: four source -> table-walker -> sink chains on a
#: four-CPU paper tile.  Each walker op performs ``LOOKUPS``
#: data-dependent (uncoalesced) table references, and ``BURSTS`` such
#: ops run back-to-back between FIFO synchronisations, so the hierarchy
#: walk, not FIFO handling, dominates the run.
N_CHAINS = 4
N_CPUS = 4
N_TOKENS = 48
BURSTS = 4
LOOKUPS = 3000
TABLE_BYTES = 192 * 1024

#: The perf_smoke gate fails when the compiled engine drops below this
#: multiple of the pure-Python fast engine (eleven local runs on a
#: shared 2-vCPU Linux host: 2.06-3.09x, median 2.58x; the gate sits
#: well under the median to absorb CI machine noise).
GATE_MIN_SPEEDUP = 1.5


#: The end-to-end gate's instance: the paper's MPEG-2 decoder, one
#: frame, on the paper tile with a shared L2 -- one of the platform runs
#: every profiling sweep and baseline is made of.
PAPER_WORKLOAD = ("mpeg2", {"scale": "paper", "frames": 1})

#: The default engine must run ``PAPER_WORKLOAD`` at least this much
#: faster than the pure-Python fast engine (23 local trials of the
#: median-of-``PAPER_GATE_RUNS`` comparison on the same host:
#: 1.27-1.97x, median 1.59x).
PAPER_GATE_MIN_SPEEDUP = 1.3

#: Timed ``PAPER_WORKLOAD`` runs per engine, interleaved after one
#: untimed warm-up run per engine; the gate compares their medians.
PAPER_GATE_RUNS = 3


def _walker_program(ctx):
    """Bursts of data-dependent table lookups between FIFO syncs."""
    n_tokens = ctx.params["n_tokens"]
    bursts = ctx.params["bursts"]
    lookups = ctx.params["lookups"]
    table_bytes = min(ctx.params["table_bytes"], ctx.bss.size)
    for _ in range(n_tokens):
        yield ctx.read("in")
        for _ in range(bursts):
            yield ctx.compute(
                ctx.fetch(lookups * 4),
                ctx.table(ctx.bss, lookups, table_bytes=table_bytes,
                          skew=1.1),
                label="vld",
            )
        yield ctx.write("out")


def build_schedule_network(n_tokens: int = N_TOKENS) -> ProcessNetwork:
    """The canonical multi-chain schedule-bench network."""
    network = ProcessNetwork(
        "schedule_bench", rt_data_bytes=8 * 1024, rt_bss_bytes=8 * 1024
    )
    for chain in range(N_CHAINS):
        network.add_task(TaskSpec(
            name=f"src{chain}", program=source_program,
            params={"n_tokens": n_tokens, "work_bytes": 2048,
                    "instr": 500},
            heap_bytes=4096,
        ))
        network.add_task(TaskSpec(
            name=f"walk{chain}", program=_walker_program,
            params={"n_tokens": n_tokens, "bursts": BURSTS,
                    "lookups": LOOKUPS, "table_bytes": TABLE_BYTES},
            bss_bytes=TABLE_BYTES,
        ))
        network.add_task(TaskSpec(
            name=f"sink{chain}", program=sink_program,
            params={"n_tokens": n_tokens, "work_bytes": 2048,
                    "instr": 500},
            heap_bytes=4096,
        ))
        network.add_fifo(FifoSpec(
            name=f"a{chain}", producer=f"src{chain}", producer_port="out",
            consumer=f"walk{chain}", consumer_port="in",
            token_bytes=512, capacity_tokens=4,
        ))
        network.add_fifo(FifoSpec(
            name=f"b{chain}", producer=f"walk{chain}", producer_port="out",
            consumer=f"sink{chain}", consumer_port="in",
            token_bytes=512, capacity_tokens=4,
        ))
    return network


def measure_engine(engine: str, n_tokens: int = N_TOKENS) -> dict:
    """One full platform run on ``engine``; returns rates + metrics."""
    tile = Platform(
        build_schedule_network(n_tokens), CakeConfig(n_cpus=N_CPUS),
        engine=engine,
    )
    start = time.perf_counter()
    metrics = tile.run()
    elapsed = time.perf_counter() - start
    instructions = sum(cpu.instructions for cpu in metrics.cpus)
    return {
        "engine": engine,
        "seconds": round(elapsed, 3),
        "instructions": instructions,
        "instructions_per_sec": round(instructions / elapsed, 1),
        "kernel_events": tile.sim.events_processed,
        "elapsed_cycles": metrics.elapsed_cycles,
        "_payload": run_metrics_to_payload(metrics),
    }


def _collect(engines, n_tokens: int = N_TOKENS) -> dict:
    runs = [measure_engine(engine, n_tokens) for engine in engines]
    payloads = {run["engine"]: run.pop("_payload") for run in runs}
    reference = next(iter(payloads.values()))
    for engine, payload in payloads.items():
        assert payload == reference, (
            f"RunMetrics of engine {engine!r} diverge on the bench "
            f"workload -- differential failure, not a perf question"
        )
    by_engine = {run["engine"]: run for run in runs}
    report = {
        "bench": "schedule_speed_multi_cpu",
        "n_cpus": N_CPUS,
        "n_chains": N_CHAINS,
        "n_tokens": n_tokens,
        "bursts_per_token": BURSTS,
        "lookups_per_op": LOOKUPS,
        "table_bytes": TABLE_BYTES,
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "c_walker_available": cwalker.load() is not None,
        "python": platform_mod.python_version(),
        "runs": runs,
    }
    if "fast" in by_engine and "compiled" in by_engine:
        report["compiled_speedup_vs_fast"] = round(
            by_engine["compiled"]["instructions_per_sec"]
            / by_engine["fast"]["instructions_per_sec"], 2,
        )
    return report


def measure_paper_run(engine: Optional[str] = None) -> dict:
    """One ``PAPER_WORKLOAD`` run; ``None`` runs the default engine."""
    name, kwargs = PAPER_WORKLOAD
    tile = Platform(workload_builder(name, **kwargs)(), CakeConfig(),
                    engine=engine)
    start = time.perf_counter()
    metrics = tile.run()
    elapsed = time.perf_counter() - start
    return {
        "engine": tile.config.hierarchy.engine,
        "effective_engine": metrics.effective_engine,
        "seconds": round(elapsed, 3),
        "_payload": run_metrics_to_payload(metrics),
    }


def write_schedule_artifact(report: dict) -> Path:
    """Persist ``BENCH_schedule.json`` under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_schedule.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


@pytest.mark.perf_smoke
def test_schedule_speed_gate():
    """Compiled engine must hold >= GATE_MIN_SPEEDUP x the fast engine
    on the multi-CPU schedule bench (bit-identical metrics asserted)."""
    if cwalker.load() is None:
        pytest.skip("no C compiler: the compiled engine degrades to fast")
    report = _collect(["fast", "compiled"])
    write_schedule_artifact(report)
    speedup = report["compiled_speedup_vs_fast"]
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"compiled engine regressed: {speedup}x over the fast "
        f"engine is below the {GATE_MIN_SPEEDUP}x gate "
        f"({json.dumps(report['runs'], indent=2)})"
    )


@pytest.mark.perf_smoke
def test_schedule_engines_identical_metrics():
    """The bench workload itself must see bit-identical engine metrics
    (including the reference oracle, on a reduced token count)."""
    _collect(["reference", "fast", "compiled"], n_tokens=8)


@pytest.mark.perf_smoke
def test_paper_scale_default_engine_gate():
    """The default engine must price a paper-scale run bit-identically
    to the fast engine and >= PAPER_GATE_MIN_SPEEDUP x faster, median
    against median over ``PAPER_GATE_RUNS`` interleaved timed runs."""
    # The untimed warm-up runs carry the identity checks.
    default = measure_paper_run()
    fast = measure_paper_run("fast")
    assert default.pop("_payload") == fast.pop("_payload"), (
        "RunMetrics of the default and fast engines diverge on the "
        "paper-scale run -- differential failure, not a perf question"
    )
    if cwalker.load() is None:
        pytest.skip("no C compiler: the default engine degrades to fast")
    assert default["effective_engine"] == HierarchyConfig().engine, default
    seconds = {None: [], "fast": []}
    for _ in range(PAPER_GATE_RUNS):
        for engine, runs in seconds.items():
            runs.append(measure_paper_run(engine)["seconds"])
    speedup = (statistics.median(seconds["fast"])
               / statistics.median(seconds[None]))
    assert speedup >= PAPER_GATE_MIN_SPEEDUP, (
        f"default engine regressed on the paper-scale run: {speedup:.2f}x "
        f"over the fast engine is below the {PAPER_GATE_MIN_SPEEDUP}x "
        f"gate (seconds per run: default {seconds[None]}, "
        f"fast {seconds['fast']})"
    )


if __name__ == "__main__":
    report = _collect(["reference", "fast", "compiled"])
    path = write_schedule_artifact(report)
    print(json.dumps(report, indent=2))
    print(f"artifact: {path}")
