"""Online-transition benchmark: MPEG-2 joins a running JPEG+Canny
pipeline, then one JPEG decoder leaves.

The paper's compositionality claim, taken online: because every owner's
misses depend only on its own partition, a task-set change must be
*invisible* to the tasks that survive it.  This bench runs the
transition scenario against a **control** run of the identical platform
(same union network, same initial layout, mark-only transitions at the
same instants) and asserts, per epoch, that every surviving task's
partitioned cycle and instruction counts are bit-identical between the
two -- on both execution engines -- while the join re-profiles
nothing (the arriving decoder's miss curves come from the warm profile)
and the replan latency is reported.

Cross-task timing coupling is configured away so the invariant is exact
rather than approximate: static scheduling on disjoint CPU sets (the
leaver alone on CPU 0, the survivors on CPU 1, the arriving decoder on
CPUs 2-3), zero context-switch cost, a flat bus (``max_surcharge=0``),
constant-latency DRAM (``bank_penalty_cycles=0``), fully resident
shared-region partitions pre-warmed by a dedicated warmer task, and
exclusive set partitions for every owner.

Run the gate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_transitions.py -m perf_smoke

or standalone (writes ``benchmarks/results/BENCH_transitions.json``)::

    PYTHONPATH=src python benchmarks/bench_transitions.py
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.apps.workloads import mpeg2_workload, two_jpeg_canny_workload
from repro.cake.config import CakeConfig
from repro.core.method import MethodConfig
from repro.core.profiling import profile_miss_curves, profiling_passes
from repro.exp.dynamic import DynamicScenario
from repro.exp.scenario import (
    TransitionSpec,
    WorkloadSpec,
    run_metrics_to_payload,
)
from repro.kpn.graph import TaskSpec
from repro.mem.bus import BusConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.memory import DramConfig

RESULTS_DIR = Path(__file__).parent / "results"

ENGINES = ("reference", "compiled")

#: Simulated instants of the two transitions (cycles).
T_JOIN = 60_000.0
T_LEAVE = 150_000.0

#: The departing JPEG decoder (chain 1) and the tasks that survive it.
LEAVER_TASKS = ("FrontEnd1", "IDCT1", "Raster1", "BackEnd1")
LEAVER_FIFOS = ("coef1", "pix1", "lines1")
LEAVER_FRAMES = ("jpeg_in1", "jpeg_out1")
SURVIVOR_TASKS = (
    "FrontEnd2", "IDCT2", "Raster2", "BackEnd2",
    "Fr.canny", "HorizSobel", "VertSobel", "LowPass",
    "HorizNMS", "VertNMS", "MaxTreshold",
)

METHOD = MethodConfig(sizes=[1, 2, 4, 8, 16, 32], solver="dp")


def bench_cake() -> CakeConfig:
    """The paper tile with every cross-task timing coupling disabled."""
    return CakeConfig(
        n_cpus=4,
        hierarchy=HierarchyConfig(
            dram=DramConfig(bank_penalty_cycles=0),
            bus=BusConfig(max_surcharge=0.0),
        ),
        switch_cycles=0,
        scheduling="static",
    )


def _warmer_program(ctx):
    """Touch every line of all four shared regions once, at startup:
    afterwards the (fully resident) shared partitions never miss, so
    the arriving decoder cannot warm lines for anyone else."""
    for name in ("appl.data", "appl.bss", "rt.data", "rt.bss"):
        region = ctx.shared(name)
        yield ctx.compute(ctx.stream(region, 0, region.size))


def _pin(network, names, cpu: int) -> None:
    for name in names:
        network.tasks[name] = replace(network.tasks[name], affinity=cpu)


def build_base():
    """JPEG+Canny with the leaver isolated on CPU 0, survivors on CPU 1,
    plus the shared-region warmer."""
    network = two_jpeg_canny_workload(scale="test", frames=1)
    _pin(network, LEAVER_TASKS, 0)
    _pin(network, SURVIVOR_TASKS, 1)
    network.add_task(TaskSpec(
        name="warmer", program=_warmer_program, affinity=0,
    ))
    return network


def build_mpeg2():
    """The arriving decoder, spread over CPUs 2-3 only."""
    network = mpeg2_workload(scale="test", frames=1)
    for i, name in enumerate(sorted(network.tasks)):
        network.tasks[name] = replace(network.tasks[name], affinity=2 + i % 2)
    return network


def _fixed_shared_units(cake: CakeConfig) -> dict:
    """Full-residency partitions for the union's shared regions."""
    base, join = build_base(), build_mpeg2()
    sizes = {
        "appl.data": max(base.appl_data_bytes, join.appl_data_bytes),
        "appl.bss": max(base.appl_bss_bytes, join.appl_bss_bytes),
        "rt.data": max(base.rt_data_bytes, join.rt_data_bytes),
        "rt.bss": max(base.rt_bss_bytes, join.rt_bss_bytes),
    }
    return {
        name: -(-nbytes // cake.unit_bytes) for name, nbytes in sizes.items()
    }


def _measure_profiles(cake: CakeConfig) -> dict:
    """One profiling pass per application -- the warm cache the
    transition runs are handed (and must not add to)."""
    def measure(builder):
        return profile_miss_curves(
            builder, cake, sizes=METHOD.sizes,
            fifo_policy=METHOD.fifo_policy, repeats=METHOD.profile_repeats,
        )
    return {"": measure(build_base), "mpeg2": measure(build_mpeg2)}


def _run(transitions, profiles, cake, engine):
    dynamic = DynamicScenario(
        build_base,
        cake=cake,
        method=METHOD,
        transitions=transitions,
        join_builders={"mpeg2": build_mpeg2},
        engine=engine,
        fixed_units=_fixed_shared_units(cake),
    )
    return dynamic.run(profiles=profiles)


DYNAMIC_TRANSITIONS = (
    TransitionSpec(at=T_JOIN, action="join", group="mpeg2",
                   workload=WorkloadSpec(
                       "mpeg2", {"scale": "test", "frames": 1})),
    TransitionSpec(at=T_LEAVE, action="leave",
                   tasks=LEAVER_TASKS, fifos=LEAVER_FIFOS,
                   frames=LEAVER_FRAMES),
)

CONTROL_TRANSITIONS = (
    TransitionSpec(at=T_JOIN, action="mark"),
    TransitionSpec(at=T_LEAVE, action="mark"),
)


def collect() -> dict:
    """Run dynamic + control on every engine; assert all contracts."""
    cake = bench_cake()
    profiles = _measure_profiles(cake)

    passes_before = profiling_passes()
    runs = {}
    for kind, transitions in (
        ("dynamic", DYNAMIC_TRANSITIONS), ("control", CONTROL_TRANSITIONS)
    ):
        for engine in ENGINES:
            runs[kind, engine] = _run(transitions, profiles, cake, engine)
    reprofiled = profiling_passes() - passes_before
    assert reprofiled == 0, (
        f"warm-cache transitions performed {reprofiled} profiling passes"
    )

    # Engines bit-identical, per variant.
    for kind in ("dynamic", "control"):
        reference = (
            run_metrics_to_payload(runs[kind, "reference"].metrics),
            runs[kind, "reference"].epoch_payloads(),
            runs[kind, "reference"].transition_payloads(),
        )
        got = (
            run_metrics_to_payload(runs[kind, "compiled"].metrics),
            runs[kind, "compiled"].epoch_payloads(),
            runs[kind, "compiled"].transition_payloads(),
        )
        assert got == reference, f"{kind} run diverges on engine 'compiled'"

    dynamic = runs["dynamic", "compiled"]
    control = runs["control", "compiled"]
    join, leave = dynamic.transitions
    assert join.admitted, f"MPEG-2 arrival rejected: {join.reason!r}"
    assert leave.admitted

    # The paper's invariant, per epoch: the join and the leave are
    # invisible to every surviving task's partitioned execution.
    assert len(dynamic.epochs) == len(control.epochs) == 3
    mismatches = []
    for dyn_epoch, ctl_epoch in zip(dynamic.epochs, control.epochs):
        for name in SURVIVOR_TASKS:
            for counters in ("task_cycles", "task_instructions"):
                dyn = getattr(dyn_epoch, counters)[name]
                ctl = getattr(ctl_epoch, counters)[name]
                if dyn != ctl:
                    mismatches.append(
                        (dyn_epoch.index, name, counters, dyn, ctl)
                    )
    assert not mismatches, (
        f"transitions perturbed surviving tasks: {mismatches}"
    )
    # The leaver itself matches up to its departure...
    for epoch in (0, 1):
        for name in LEAVER_TASKS:
            assert dynamic.epochs[epoch].task_cycles[name] == \
                control.epochs[epoch].task_cycles[name]
    # ... and the arrival did real work.
    assert sum(
        cycles
        for name, cycles in dynamic.epochs[1].task_cycles.items()
        if name.startswith("mpeg2.")
    ) > 0

    return {
        "bench": "online_transitions",
        "workloads": {"base": "two_jpeg_canny[test]",
                      "join": "mpeg2[test]"},
        "t_join": T_JOIN,
        "t_leave": T_LEAVE,
        "total_units": dynamic.total_units,
        "join": join.to_payload(),
        "leave": leave.to_payload(),
        "profiling_passes_during_transitions": reprofiled,
        "replan_wall_s": {
            engine: [round(w, 6) for w in runs["dynamic", engine].replan_wall_s()]
            for engine in ENGINES
        },
        "epochs": dynamic.epoch_payloads(),
        "survivors_checked": len(SURVIVOR_TASKS),
        "engines_identical": True,
    }


def write_artifact(report: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_transitions.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


@pytest.mark.perf_smoke
def test_transition_compositionality_gate():
    """Join/leave must be invisible to survivors, per epoch, on both
    engines, with zero re-profiling on warm curves."""
    report = collect()
    write_artifact(report)
    assert report["join"]["admitted"]
    assert report["profiling_passes_during_transitions"] == 0


if __name__ == "__main__":
    report = collect()
    path = write_artifact(report)
    print(json.dumps(report, indent=2))
    print(f"artifact: {path}")
