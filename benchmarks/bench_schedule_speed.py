"""Compiled-engine throughput on a multi-CPU schedule: the companion of
the 2M-ref microbench.

``bench_engine_speed`` measures one giant batch on one CPU.  This bench
measures a four-CPU tile running communicating task chains whose
compute ops are a few thousand uncoalesced references each.  Both
engines run the same per-op CPU loop through the event kernel; the
reference engine walks each op's batch with one cache-model call per
run, while the compiled engine (the default) keeps cache/bank/bus
state and per-owner statistics resident in C and does each op --
coalescing, owner lookup, set mapping, walk and stats -- in one C
call.  The gate
requires the compiled engine to hold ``GATE_MIN_SPEEDUP`` x the
reference engine's throughput on this workload (recorded in
``BENCH_schedule.json``), with bit-identical RunMetrics.  A second gate
runs one paper-scale MPEG-2 decode end to end on the default engine
and on ``reference``: identical RunMetrics, and the default engine at
least ``PAPER_GATE_MIN_SPEEDUP`` x faster -- it fails if the default
engine silently demotes to its reference fallback.  A third gate
counts, on each paper application, the runs the two engines probe: the
compiled engine folds each L1 set's revisits within a batch into one
run, so it must probe at most ``FOLD_GATE_MAX_RATIO`` of the reference
engine's runs, with identical RunMetrics.  A fourth gate counts, on
each paper application, the objects one profiling platform build
allocates at the smallest and the largest size of the default menu:
the cache models keep per-set state only for sets that hold a line, so
a build adds at most ``BUILD_GATE_MAX_OBJECTS`` objects at 16,384 L2
sets as at 2,048.

Run the gate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_schedule_speed.py -m perf_smoke

or standalone (measures every engine tier and writes the artifact)::

    PYTHONPATH=src python benchmarks/bench_schedule_speed.py
"""

import gc
import json
import platform as platform_mod
import statistics
import time
from pathlib import Path
from typing import Optional

import pytest

from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.core.allocation import buffer_units
from repro.core.profiling import (
    _virtual_sets,
    default_sizes,
    optimized_item_names,
)
from repro.exp.scenario import run_metrics_to_payload
from repro.exp.workloads import workload_builder
from repro.kpn.graph import FifoSpec, ProcessNetwork, TaskSpec
from repro.apps.synthetic import sink_program, source_program
from repro.mem import cwalker
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.partition import PartitionMode
from repro.mem.trace import AccessBatch
from repro.rtos.task import OP_STREAMS

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
#: multiple of the reference engine.  It sits between the two designs
#: of the compiled engine's per-op path, measured in five interleaved
#: runs each on a shared 2-vCPU Linux host: one C call that coalesces,
#: resolves owners, maps sets and counts per-owner statistics itself
#: read 18.9-27.9x the reference engine (median 23.0x; compiled
#: 0.37-0.63 s, reference 8.9-11.9 s); the earlier design, whose C walk
#: sat inside numpy coalescing, owner resolution and a bincount stats
#: flush, read 5.6-7.1x (median 6.2x; compiled 1.18-2.12 s, reference
#: 8.1-13.1 s).  Falling back to that design fails the gate.
GATE_MIN_SPEEDUP = 12.0


#: The end-to-end gate's instance: the paper's MPEG-2 decoder, one
#: frame, on the paper tile with a shared L2 -- one of the platform runs
#: every profiling sweep and baseline is made of.
PAPER_WORKLOAD = ("mpeg2", {"scale": "paper", "frames": 1})

#: The default engine must run ``PAPER_WORKLOAD`` at least this much
#: faster than the reference engine.  Five trials of this gate's
#: median-of-``PAPER_GATE_RUNS`` comparison per design, interleaved on
#: the same host as ``GATE_MIN_SPEEDUP``: the one-C-call design read
#: 10.4-13.3x (median 10.7x; default runs 0.09-0.17 s), the earlier
#: numpy-bookkeeping design 3.45-3.99x (median 3.55x; default runs
#: 0.27-0.54 s).  The gate sits between them.
PAPER_GATE_MIN_SPEEDUP = 7.0

#: Timed ``PAPER_WORKLOAD`` runs per engine, interleaved after one
#: untimed warm-up run per engine; the gate compares their medians.
PAPER_GATE_RUNS = 3

#: The paper's applications at one frame, for the fold's count gate.
FOLD_WORKLOADS = (("two_jpeg_canny", {"scale": "paper", "frames": 1}),
                  PAPER_WORKLOAD)

#: The compiled engine folds every run on the line its L1 set last saw
#: earlier in the batch into that run, so one platform run of each
#: ``FOLD_WORKLOADS`` app walks at most this share of the runs the
#: reference engine walks.  The counts are deterministic: 166,265 of
#: 493,765 (0.34) for JPEG+Canny and 294,551 of 630,584 (0.47) for
#: MPEG-2; without the fold both read 1.0.
FOLD_GATE_MAX_RATIO = 0.55

#: One profiling platform build of a ``FOLD_WORKLOADS`` app, at the
#: smallest or the largest size of the default menu (an L2 of 2,048 or
#: 16,384 sets), adds at most this many objects the garbage collector
#: tracks.  The counts read 404-417 at both sizes; with one Python list
#: per cache set they read 2,543-2,562 and 16,879-16,898.
BUILD_GATE_MAX_OBJECTS = 1000


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
        "compiled_speedup_vs_reference": round(
            by_engine["compiled"]["instructions_per_sec"]
            / by_engine["reference"]["instructions_per_sec"], 2,
        ),
    }
    return report


def measure_paper_run(engine: Optional[str] = None) -> dict:
    """One ``PAPER_WORKLOAD`` run; ``None`` runs the default engine.

    The op-stream table is emptied first, so every run steps its
    programs: a later run of the same network in one process would
    replay the ops the first one recorded
    (:class:`~repro.rtos.task.OpStreams`).
    """
    OP_STREAMS.clear()
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


def count_walked_runs(workload, engine: str, monkeypatch) -> tuple:
    """One run of ``workload`` on ``engine`` from an empty op-stream
    table: the runs its walks probed, and its RunMetrics payload.

    The compiled engine's runs are the ``n_runs`` of its C walks, the
    reference engine's the runs :meth:`AccessBatch.runs` gives it.
    """
    probed = []
    if engine == "compiled":
        walker = cwalker.load()
        walk = walker.walk_batch

        def counted(*args):
            probed.append(args[6])
            return walk(*args)

        monkeypatch.setattr(walker, "walk_batch", counted)
    else:
        runs = AccessBatch.runs

        def counted(batch, line_shift):
            result = runs(batch, line_shift)
            probed.append(result[0].shape[0])
            return result

        monkeypatch.setattr(AccessBatch, "runs", counted)
    OP_STREAMS.clear()
    name, kwargs = workload
    try:
        metrics = Platform(workload_builder(name, **kwargs)(), CakeConfig(),
                           engine=engine).run()
    finally:
        monkeypatch.undo()
    return sum(probed), run_metrics_to_payload(metrics)


def count_build_objects(workload, largest: bool) -> tuple:
    """The L2 set count of ``workload``'s profiling platform at the
    smallest (or the ``largest``) size of the default menu, and the
    objects the garbage collector tracks that one build of it adds.

    Built as :func:`~repro.core.profiling.profile_miss_curves` builds
    it, from a network built beforehand, with the collector off.
    """
    name, kwargs = workload
    builder = workload_builder(name, **kwargs)
    config = CakeConfig()
    reference = builder()
    items = optimized_item_names(reference)
    buffers_total = sum(buffer_units(reference, config.unit_bytes).values())
    sizes = default_sizes(config.n_allocation_units)
    size = sizes[-1] if largest else sizes[0]
    run_config = config.with_l2_sets(
        _virtual_sets(config, len(items), size, buffers_total)
    )
    # A first build loads what any build needs once per process.
    Platform(builder(), run_config, mode=PartitionMode.SET_PARTITIONED)
    network = builder()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        platform = Platform(network, run_config,
                            mode=PartitionMode.SET_PARTITIONED)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    del platform
    return run_config.hierarchy.l2_geometry.sets, added


def write_schedule_artifact(report: dict) -> Path:
    """Persist ``BENCH_schedule.json`` under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_schedule.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


@pytest.mark.perf_smoke
def test_schedule_speed_gate():
    """Compiled engine must hold >= GATE_MIN_SPEEDUP x the reference
    engine on the multi-CPU schedule bench (bit-identical metrics
    asserted)."""
    if cwalker.load() is None:
        pytest.skip("no C compiler: the compiled engine degrades to "
                    "reference")
    report = _collect(["reference", "compiled"])
    write_schedule_artifact(report)
    speedup = report["compiled_speedup_vs_reference"]
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"compiled engine regressed: {speedup}x over the reference "
        f"engine is below the {GATE_MIN_SPEEDUP}x gate "
        f"({json.dumps(report['runs'], indent=2)})"
    )


@pytest.mark.perf_smoke
def test_schedule_engines_identical_metrics():
    """The bench workload itself must see bit-identical engine metrics
    (on a reduced token count; runs without a C compiler too)."""
    _collect(["reference", "compiled"], n_tokens=8)


@pytest.mark.perf_smoke
def test_paper_scale_default_engine_gate():
    """The default engine must price a paper-scale run bit-identically
    to the reference engine and >= PAPER_GATE_MIN_SPEEDUP x faster,
    median against median over ``PAPER_GATE_RUNS`` interleaved timed
    runs, each from an empty op-stream table."""
    # The untimed warm-up runs carry the identity checks.
    default = measure_paper_run()
    reference = measure_paper_run("reference")
    assert default.pop("_payload") == reference.pop("_payload"), (
        "RunMetrics of the default and reference engines diverge on the "
        "paper-scale run -- differential failure, not a perf question"
    )
    if cwalker.load() is None:
        pytest.skip("no C compiler: the default engine degrades to "
                    "reference")
    assert default["effective_engine"] == HierarchyConfig().engine, default
    seconds = {None: [], "reference": []}
    for _ in range(PAPER_GATE_RUNS):
        for engine, runs in seconds.items():
            runs.append(measure_paper_run(engine)["seconds"])
    speedup = (statistics.median(seconds["reference"])
               / statistics.median(seconds[None]))
    assert speedup >= PAPER_GATE_MIN_SPEEDUP, (
        f"default engine regressed on the paper-scale run: {speedup:.2f}x "
        f"over the reference engine is below the {PAPER_GATE_MIN_SPEEDUP}x "
        f"gate (seconds per run: default {seconds[None]}, "
        f"reference {seconds['reference']})"
    )


@pytest.mark.perf_smoke
@pytest.mark.parametrize("workload", FOLD_WORKLOADS,
                         ids=[name for name, _ in FOLD_WORKLOADS])
def test_folded_walk_probes_fewer_runs(workload, monkeypatch):
    """The compiled engine walks at most ``FOLD_GATE_MAX_RATIO`` of
    the reference engine's runs on each paper app, with identical
    RunMetrics."""
    if cwalker.load() is None:
        pytest.skip("no C compiler: the compiled engine walks unfolded "
                    "runs on its reference fallback")
    compiled, compiled_payload = count_walked_runs(workload, "compiled",
                                                   monkeypatch)
    reference, reference_payload = count_walked_runs(workload, "reference",
                                                     monkeypatch)
    assert compiled_payload == reference_payload, (
        "RunMetrics of the compiled and reference engines diverge -- "
        "differential failure, not a perf question"
    )
    ratio = compiled / reference
    assert ratio <= FOLD_GATE_MAX_RATIO, (
        f"the compiled walk probed {compiled:,} runs against the "
        f"reference walk's {reference:,} ({ratio:.3f}), above the "
        f"{FOLD_GATE_MAX_RATIO} gate"
    )


@pytest.mark.perf_smoke
@pytest.mark.parametrize("largest", [False, True],
                         ids=["smallest_size", "largest_size"])
@pytest.mark.parametrize("workload", FOLD_WORKLOADS,
                         ids=[name for name, _ in FOLD_WORKLOADS])
def test_profiling_build_allocates_no_per_set_state(workload, largest):
    """One profiling platform build adds at most
    ``BUILD_GATE_MAX_OBJECTS`` tracked objects, at the default menu's
    smallest and largest size alike."""
    sets, added = count_build_objects(workload, largest)
    assert added <= BUILD_GATE_MAX_OBJECTS, (
        f"one profiling platform build with a {sets:,}-set L2 added "
        f"{added:,} tracked objects, above the {BUILD_GATE_MAX_OBJECTS:,} "
        f"gate"
    )


if __name__ == "__main__":
    report = _collect(["reference", "compiled"])
    path = write_schedule_artifact(report)
    print(json.dumps(report, indent=2))
    print(f"artifact: {path}")
