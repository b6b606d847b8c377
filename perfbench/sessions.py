"""Timed, checked sessions of one workload, and the metrics they yield.

Every time is read at the nominal host speed (see ``probe.py``): the
probe is sampled at a fixed pace inside each timed part (in blocks
around traced sessions and set-up steps instead); the seconds it takes
are left out of the time, and the time is multiplied by the host's
speed over those samples.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from repro.cake.platform import Platform
from repro.core.profiling import profiling_passes
from repro.exp import ProfileCache, clear_caches

import scenarios
import spans
from probe import BLOCK, Probe

#: Preparations per untraced run; setup_s reports their median.
SETUPS = 3
#: Timed sessions per untraced run at least (wall_s is their median).
MIN_SESSIONS = 2


class Run:
    """Sessions of one benchmark invocation and their failure accounting."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.workload = scenarios.build_workload(args.workload, args.seed)
        self.pins = scenarios.load_pins()
        #: Counts every platform run, traced or not: the simulated
        #: instructions of a session are exact on every seed.
        #: Uninstalled by the caller when the run ends.
        self.counter = spans.RunCounter()
        self.counter.install(Platform)
        self.probe = Probe()
        self.sessions = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.last_store = None

    def prepare(self, count: int):
        """``count`` preparations; returns (the warm cache, their times,
        the host's speed while they ran).

        A preparation is a temp cache dir and a cleared memo, plus, for
        a warm workload, the cold pass that fills the cache.  The speed
        covers the start-up before them too: its first probes run right
        after it.
        """
        times = []
        cache = None
        self.probe.sample(BLOCK)
        for index in range(count):
            error = None
            with self.probe.during():
                started = time.perf_counter()
                prep_dir = self.work / f"prepare{index}"
                cache = ProfileCache(prep_dir / "cache")
                clear_caches()
                if self.workload.warm:
                    _store, _runner, error = scenarios.run_session(
                        self.workload.fill_scenarios(), cache,
                        prep_dir / "fill.jsonl",
                    )
                times.append(time.perf_counter() - started
                             - self.probe.inside_s)
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
                self.problems.append(
                    f"cold pass raised {type(error).__name__}: {error}"
                )
            self.probe.sample(BLOCK)
        self.counter.reset()
        return (cache if self.workload.warm else None), times, \
            self.probe.take()

    def session(self, cache, tracer=None, walker=None):
        """One checked timed session; returns (its measured seconds, the
        host's speed while it ran, counts, store).

        ``cache`` is the warm cache, or ``None`` for a new empty one.
        With a ``tracer`` the session is traced: spans are installed
        for it alone and removed right after, and the probe runs only
        before and after it, so that no span holds probe time.
        """
        self.sessions += 1
        session_dir = self.work / f"session{self.sessions}"
        if cache is None:
            cache = ProfileCache(session_dir / "cache")
        timed = self.workload.scenarios
        store_path = session_dir / "store.jsonl"
        clear_caches()
        self.counter.reset()
        passes = profiling_passes()
        # Collect the previous session's garbage outside the timed part.
        gc.collect()
        if tracer is not None:
            self.probe.sample(BLOCK)
            tracer.clear()
            tracer.set_scenario("session")
            scenarios.install_spans(tracer, walker)
            try:
                with tracer.span("bench.timed", "bench.timed"):
                    store, runner, error = scenarios.run_session(
                        timed, cache, store_path
                    )
            finally:
                tracer.restore()
            wall = tracer.end[0] - tracer.start[0]
            self.probe.sample(BLOCK)
        else:
            with self.probe.during():
                started = time.perf_counter()
                store, runner, error = scenarios.run_session(
                    timed, cache, store_path
                )
                wall = time.perf_counter() - started - self.probe.inside_s
        counts = self.counter.reset()
        speed = self.probe.take()
        passes = profiling_passes() - passes

        if self.args.update_pins and self.sessions == 1:
            self.update_pins(store, counts["instructions"], error)
        failed = scenarios.check_session(
            self.workload, self.args.seed, store, error,
            counts["instructions"], passes, runner.last_stats, self.pins,
        )
        self.attempted += len(timed)
        self.failed += len(failed)
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            self.problems.append(
                f"session {self.sessions} raised {type(error).__name__}: "
                f"{error}"
            )
        self.problems.extend(
            f"session {self.sessions}: {sid}: {why}"
            for sid, why in failed.items()
        )
        self.last_store = store
        return wall, speed, counts, store

    def update_pins(self, store, instructions, error):
        if error is not None:
            raise RuntimeError("refusing to pin a session that raised") \
                from error
        self.pins.setdefault(self.args.workload, {})[str(self.args.seed)] = \
            scenarios.pin_entry(store, instructions)
        scenarios.PINS_PATH.write_text(
            json.dumps(self.pins, indent=1, sort_keys=True) + "\n"
        )
        print(f"pinned {self.args.workload} seed {self.args.seed}")

    # -- the two kinds of run ----------------------------------------------

    def end_to_end(self, setup_base_s: float):
        """Untraced sessions: the end-to-end metrics."""
        cache, prep_times, setup_speed = self.prepare(SETUPS)
        measured, walls, rates = [], [], []
        while True:
            wall, speed, counts, _store = self.session(cache)
            measured.append(wall)
            walls.append(wall * speed)
            rates.append(counts["instructions"] / walls[-1] / 1e6)
            if len(measured) >= MIN_SESSIONS and \
                    sum(measured) >= self.args.seconds:
                break
        setup = setup_base_s + statistics.median(prep_times)
        print(f"setup: {setup_base_s:.3f} s start-up, imports and load; "
              f"preparations {_join(prep_times)} s; host speed "
              f"{setup_speed:.3f}")
        print(f"sessions: {len(measured)}, measured {_join(measured)} s, "
              f"at nominal speed {_join(walls)} s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "wall_s": statistics.median(walls),
            "sim_minstr_per_s": statistics.median(rates),
            "setup_s": setup * setup_speed,
            "peak_rss_mb": peak_kib / 1024.0,
        }

    def per_layer(self, walker, spans_path: Path):
        """Untraced and traced sessions in turn: the per-layer metrics
        (means over the traced sessions) and the tracing overhead."""
        cache, _prep_times, _speed = self.prepare(1)
        tracer = spans.Tracer()
        plain, traced, samples = [], [], []
        while True:
            wall, _speed, _counts, _store = self.session(cache)
            plain.append(wall)
            wall, speed, counts, store = self.session(cache, tracer, walker)
            traced.append(wall)
            sample = spans.layer_metrics(tracer)
            sample.update({
                "host.speed": speed,
                "sim.events": counts["events"],
                "sim.instructions": counts["instructions"],
                "sim.cycles": counts["cycles"],
                "mem.l2_accesses": counts["l2_accesses"],
                "mem.l2_misses": counts["l2_misses"],
                "mem.cross_evictions": counts["cross_evictions"],
                "mem.dram_lines": counts["dram_lines"],
                "cake.us_per_event": (
                    sample["cake.self_s"] / counts["events"] * 1e6
                    if counts["events"] else 0.0
                ),
            })
            sample.update(scenarios.replan_summary(store))
            samples.append(sample)
            if sum(plain) + sum(traced) >= self.args.seconds:
                break
        metrics = spans.mean_metrics(samples)
        metrics["trace.overhead_s"] = (
            statistics.fmean(traced) - statistics.fmean(plain)
        )
        if abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"]) > \
                1e-6 * metrics["trace.wall_s"]:
            self.problems.append("span self times do not add up to the "
                                 "traced wall time")
        print(f"sessions: {len(plain)} untraced ({_join(plain)} s), "
              f"{len(traced)} traced ({_join(traced)} s)")
        print(f"self times of all spans add up to "
              f"{metrics['trace.self_sum_s']:.6f} s; traced wall_s "
              f"{metrics['trace.wall_s']:.6f} s")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path, {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "wall_s": traced[-1],
        })
        print(f"spans of the last traced session: {spans_path} "
              f"({len(tracer.start)} spans)")
        return metrics


def _join(values) -> str:
    return ", ".join(f"{value:.3f}" for value in values)

