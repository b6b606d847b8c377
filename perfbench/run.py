"""The repository benchmark: simulator speed on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_paper --seed 20050307 \\
        --seconds 15 --trace 0

Workloads (see ``scenarios.py``): ``cold_paper``, ``warm_paper``,
``warm_grid``.  Everything runs in this one process, through the
library's public experiment API on the inline runner
(``ExperimentRunner(workers=1)``) with the default engine.

A run prepares the workload (imports, ``cwalker.load()``, a temp cache
dir, and for the warm workloads the cold pass that fills the cache),
then repeats the workload's timed part -- one fresh runner session --
until ``--seconds`` of timed work have passed, and at least twice.
Every session is checked (pins on the default seed, invariants on
every seed).

A shared host's speed drifts (by up to 1.8x over minutes on the 2-vCPU
host the benchmark was tuned on), so every time is read at a nominal
host speed: measured seconds times the speed a fixed probe shows over
the same stretch of the run (see ``probe.py``; the measured seconds
are printed too).

``--trace 0`` prints the end-to-end metrics:

- ``wall_s`` -- median host seconds of one timed session, at the
  nominal speed;
- ``sim_minstr_per_s`` -- median simulated instructions (every platform
  run of the session, profiling included) per host second at the
  nominal speed, in millions;
- ``setup_s`` -- interpreter start to the first timed call, at the
  nominal speed: start-up, imports and ``cwalker.load()`` once, plus
  the median of three preparations (temp cache dir, and the cold pass
  for warm workloads);
- ``peak_rss_mb`` -- ``ru_maxrss`` of this process, in MiB.

``--trace 1`` alternates untraced and traced sessions and prints the
per-layer metrics of the traced ones, as measured, with the host's
speed beside them (spans written to ``.perfbench/spans/``).
``--update-pins`` rewrites the pins of the workload and seed from the
first session (for deliberate model changes only; speed work must
leave records bit-identical).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
code path is not comparable -- the C walker did not load, or
``REPRO_NO_CWALKER`` / ``REPRO_SWEEP_SERVER`` is set -- is flagged and
reports ``correct: false``.
"""

import resource
import time

_ENTRY = time.perf_counter()
_USAGE = resource.getrusage(resource.RUSAGE_SELF)
#: Interpreter start-up before this line ran, counted into setup_s.
#: Start-up is CPU-bound, so its CPU time stands in for its wall time.
_STARTUP_S = _USAGE.ru_utime + _USAGE.ru_stime

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch (temp cache dirs, stores) and span output, both gitignored.
SCRATCH = ROOT / ".perfbench"

WORKLOADS = ("cold_paper", "warm_paper", "warm_grid")
#: Seconds a run may take after the library has loaded.
DEADLINE_S = 170
#: Environment that changes which code path runs.
PATH_ENV = ("REPRO_NO_CWALKER", "REPRO_SWEEP_SERVER")

END_TO_END = {
    "wall_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of the traced run.  The comment above each group
#: names the end-to-end metric it should move, and on which workload.
PER_LAYER = {
    # Event kernel: wall_s everywhere (the compiled tier exists to cut
    # events per instruction).
    "sim.events": "count",
    "sim.instructions": "count",
    "sim.cycles": "count",
    # CPU runners, scheduler, FIFOs (cake.self_s) and cache-partition
    # programming: wall_s on warm_grid (30 platform builds) and on
    # warm_paper (mid-run programming).
    "cake.build_s": "s",
    "cake.build_n": "count",
    "cake.run_s": "s",
    "cake.run_n": "count",
    "cake.self_s": "s",
    "cake.us_per_event": "us",
    "rtos.program_s": "s",
    "rtos.program_n": "count",
    # Traffic generation by the task programs: ~5% of wall_s everywhere.
    "kpn.traffic_s": "s",
    "kpn.traffic_n": "count",
    "kpn.accesses": "count",
    # Memory hierarchy: wall_s and sim_minstr_per_s on all three, setup_s
    # on the warm ones; sync and repartition only on warm_paper.
    "mem.execute_s": "s",
    "mem.execute_n": "count",
    "mem.self_s": "s",
    "mem.coalesce_s": "s",
    "mem.resolve_s": "s",
    "mem.map_index_s": "s",
    "mem.c_walk_s": "s",
    "mem.runs_per_access": "ratio",
    "mem.c_calls": "count",
    "mem.c_run_share": "ratio",
    "mem.entries_per_segment": "count",
    "mem.ns_per_access": "ns",
    "mem.sync_n": "count",
    "mem.sync_s": "s",
    "mem.repartition_n": "count",
    "mem.writebacks": "count",
    "mem.l2_accesses": "count",
    "mem.l2_misses": "count",
    "mem.cross_evictions": "count",
    "mem.dram_lines": "count",
    # Method: profiling moves wall_s on cold_paper only (setup_s on the
    # warm ones, where it is zero in the timed part); optimize moves
    # wall_s on warm_grid.
    "core.profile_s": "s",
    "core.profile_n": "count",
    "core.profile_runs": "count",
    "core.optimize_s": "s",
    "core.optimize_n": "count",
    "core.validate_s": "s",
    # Runner, cache and store: wall_s on warm_grid and warm_paper,
    # setup_s and peak_rss_mb everywhere.
    "exp.run_s": "s",
    "exp.self_s": "s",
    "exp.cache_get_n": "count",
    "exp.cache_hit_ratio": "ratio",
    "exp.cache_get_s": "s",
    "exp.cache_put_n": "count",
    "exp.cache_put_s": "s",
    "exp.store_append_n": "count",
    "exp.store_append_s": "s",
    "exp.dynamic_s": "s",
    "exp.replan_ms": "ms",
    "exp.admitted": "count",
    "exp.rejected": "count",
    # The traced session's wall time and its excess over untraced ones.
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    # The host's speed during the traced sessions, as a share of the
    # nominal speed: the per-layer times above are as measured.
    "host.speed": "ratio",
}


class Stopped(BaseException):
    """Raised by the alarm and SIGTERM handlers, so that the run unwinds
    through its clean-up.  A ``BaseException``: no ``except Exception``
    on the way up (the session runner counts those as failed
    operations) may swallow it."""


def _stop(signum, _frame):
    if signum == signal.SIGALRM:
        raise Stopped(f"run exceeded {DEADLINE_S} s after set-up")
    raise Stopped(f"stopped by signal {signum}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Benchmark the simulator on one workload.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: CakeConfig.seed)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true")
    return parser.parse_args(argv)


def import_benchmark():
    """Import the library from this checkout's ``src/`` and the session
    module built on it (raises ImportError without them)."""
    sys.path.insert(0, str(SRC))
    import numpy
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    import sessions

    return numpy, repro, sessions


def leftovers():
    """Processes or Python threads still alive besides this one."""
    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"child processes still alive: {children}")
    threads = [t for t in threading.enumerate()
               if t is not threading.main_thread()]
    if threads:
        problems.append(f"threads still alive: {threads}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        numpy, repro, sessions = import_benchmark()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    from repro.cake import CakeConfig
    from repro.mem import cwalker
    from repro.mem.hierarchy import HierarchyConfig

    walker = cwalker.load()
    setup_base_s = _STARTUP_S + (time.perf_counter() - _ENTRY)
    if args.seed is None:
        args.seed = CakeConfig().seed

    flags = [f"{name} is set" for name in PATH_ENV if os.environ.get(name)]
    if walker is None:
        flags.append("the C walker did not load")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("code path: " + json.dumps({
        "engine": HierarchyConfig().engine,
        "c_walker": walker is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "seed": args.seed,
        "flagged": flags,
    }, sort_keys=True))
    if flags:
        print("FLAGGED, not comparable: " + "; ".join(flags),
              file=sys.stderr)

    handlers = {
        signum: signal.signal(signum, _stop)
        for signum in (signal.SIGALRM, signal.SIGTERM)
    }
    signal.alarm(DEADLINE_S)
    (SCRATCH / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=SCRATCH / "work"))
    run = None
    try:
        run = sessions.Run(args, work)
        if args.trace:
            metrics = run.per_layer(
                walker,
                SCRATCH / "spans" / f"{args.workload}-seed{args.seed}.json.gz",
            )
            units = PER_LAYER
        else:
            metrics = run.end_to_end(setup_base_s)
            units = END_TO_END
    except Stopped as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    finally:
        signal.alarm(0)
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        if run is not None:
            run.counter.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        for empty in (SCRATCH / "work", SCRATCH):
            try:
                empty.rmdir()
            except OSError:
                pass  # still holds another run's scratch, or spans

    for line in sessions.scenarios.accuracy_lines(run.last_store):
        print(line)
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:24s} {metrics[name]:18.6f} {unit}")
    left = leftovers()
    if left:
        for problem in left:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems and not flags,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
