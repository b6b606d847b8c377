"""In-memory span tracer and the per-layer metrics derived from it.

The traced run wraps each layer's public entry points with a span
recorder, installed for one timed repetition and restored right after
it.  A span is ``(name, start, end, parent, scenario)`` plus two
integer payloads (runs and accesses for run coalescing, accesses for
traffic generation, writebacks for repartitioning).  Spans live in
flat typed arrays, so a repetition with a million spans stays small,
and :meth:`Tracer.write` stores them once, at the end of the run.

Self time is a span's duration minus the durations of its direct
children.  Every span descends from the ``bench.timed`` root, so the
self times of all spans add up to the root's duration, the traced
wall time.  Layer totals count nested spans of the same group once:
``execute_segment`` falling back to ``execute_batch``, or
``quiesce`` calling ``sync_state``, is one piece of work.

Platform runs are also counted with tracing off (:class:`RunCounter`),
so the simulated-instruction numerator of the throughput metric is
exact on every seed.  That wrapper records a handful of integers per
platform run and no times.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span groups, one bit each in the open-groups mask.  A layer total
#: sums only the spans opened while no other span of its group was open.
GROUPS = (
    "bench.timed",
    "cake.build",
    "cake.run",
    "rtos.program",
    "kpn.traffic",
    "mem.execute",
    "mem.coalesce",
    "mem.resolve",
    "mem.map_index",
    "mem.c_walk",
    "mem.sync",
    "mem.repartition",
    "core.profile",
    "core.optimize",
    "core.validate",
    "exp.run",
    "exp.cache_get",
    "exp.cache_put",
    "exp.store_append",
    "exp.dynamic",
)
_BIT = {group: 1 << index for index, group in enumerate(GROUPS)}


class RunCounter:
    """Model counts of every ``Platform.run`` (no timing).

    Installed for the whole benchmark process: the simulated
    instruction total of a repetition is the numerator of
    ``sim_minstr_per_s``, on any seed.
    """

    FIELDS = ("runs", "events", "instructions", "cycles", "l2_accesses",
              "l2_misses", "cross_evictions", "dram_lines")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.FIELDS, 0)
        self._restore: Optional[Callable[[], None]] = None

    def reset(self) -> Dict[str, int]:
        """Return the totals so far and start counting from zero."""
        totals, self.totals = self.totals, dict.fromkeys(self.FIELDS, 0)
        return totals

    def install(self, platform_cls) -> None:
        original = platform_cls.run
        counter = self

        @functools.wraps(original)
        def run(platform, *args, **kwargs):
            metrics = original(platform, *args, **kwargs)
            totals = counter.totals
            totals["runs"] += 1
            totals["events"] += platform.sim.events_processed
            totals["instructions"] += metrics.instructions
            totals["cycles"] += int(metrics.elapsed_cycles)
            totals["l2_accesses"] += metrics.l2_accesses
            totals["l2_misses"] += metrics.l2_misses
            totals["cross_evictions"] += metrics.l2_cross_evictions
            totals["dram_lines"] += metrics.dram_lines
            return metrics

        platform_cls.run = run

        def restore() -> None:
            platform_cls.run = original

        self._restore = restore

    def uninstall(self) -> None:
        if self._restore is not None:
            self._restore()
            self._restore = None


class Tracer:
    """Span recorder with install/restore of the wrapped entry points."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_group: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self.scenarios: List[str] = []
        self._scenario_ids: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.clear()

    # -- recording ---------------------------------------------------------

    def clear(self) -> None:
        """Drop recorded spans (the name table and patches stay)."""
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.scenario = array("i")
        self.ctx = array("i")
        self.n = array("q")
        self.m = array("q")
        self._stack: List[int] = []
        self._open = [0] * len(GROUPS)
        self._mask = 0
        self._current_scenario = -1

    def _name_id(self, name: str, group: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._name_group.append(GROUPS.index(group))
        return self._name_ids[name]

    def set_scenario(self, label: str) -> None:
        """Attribute the spans opened from now on to ``label``."""
        if label not in self._scenario_ids:
            self._scenario_ids[label] = len(self.scenarios)
            self.scenarios.append(label)
        self._current_scenario = self._scenario_ids[label]

    def _begin(self, name_id: int, group: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.scenario.append(self._current_scenario)
        self.ctx.append(self._mask)
        self.n.append(0)
        self.m.append(0)
        self.end.append(0.0)
        stack.append(index)
        opened = self._open
        if not opened[group]:
            self._mask |= 1 << group
        opened[group] += 1
        self.start.append(time.perf_counter())
        return index

    def _finish(self, index: int, group: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        opened = self._open
        opened[group] -= 1
        if not opened[group]:
            self._mask &= ~(1 << group)

    @contextlib.contextmanager
    def span(self, name: str, group: str):
        """Record one span around a ``with`` block (the benchmark's root)."""
        group_id = GROUPS.index(group)
        index = self._begin(self._name_id(name, group), group_id)
        try:
            yield
        finally:
            self._finish(index, group_id)

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        group: str,
        count: Optional[Callable[[tuple, Any], Tuple[int, int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class, a module or an instance; ``count`` maps
        ``(args, result)`` to the span's two integer payloads.
        """
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # The function as stored on the class, so restoring puts
            # back exactly what was there.
            original = owner.__dict__[attr]
        name_id = self._name_id(name, group)
        group_id = GROUPS.index(group)
        begin, finish = self._begin, self._finish
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = begin(name_id, group_id)
            try:
                result = original(*args, **kwargs)
            finally:
                finish(index, group_id)
            if count is not None:
                tracer.n[index], tracer.m[index] = count(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def label(self, owner: Any, attr: str,
              labeller: Callable[[tuple], str]) -> None:
        """Wrap ``owner.attr`` so spans opened inside the call carry the
        label ``labeller(args)`` (the enclosing label resumes after)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            enclosing = tracer._current_scenario
            tracer.set_scenario(labeller(args))
            try:
                return original(*args, **kwargs)
            finally:
                tracer._current_scenario = enclosing

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "scenario": np.frombuffer(self.scenario, dtype=np.int32),
            "ctx": np.frombuffer(self.ctx, dtype=np.int32).astype(np.int64),
            "n": np.frombuffer(self.n, dtype=np.int64),
            "m": np.frombuffer(self.m, dtype=np.int64),
        }

    def write(self, path, extra: Dict[str, Any]) -> None:
        """Write the spans once, as gzipped columnar JSON."""
        cols = self.columns()
        payload = {
            "names": self.names,
            "scenarios": self.scenarios,
            "spans": {
                key: cols[key].tolist()
                for key in ("name", "start", "end", "parent", "scenario",
                            "n", "m")
            },
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer times and counts of one traced repetition.

    Returns raw sums keyed by the benchmark's per-layer metric names
    (the caller adds model counts and record-derived metrics).
    """
    cols = tracer.columns()
    name, parent, ctx = cols["name"], cols["parent"], cols["ctx"]
    duration = cols["end"] - cols["start"]
    n_spans = duration.shape[0]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=n_spans
    )
    self_time = duration - child_time
    group_of_name = np.asarray(tracer._name_group, dtype=np.int64)
    group = group_of_name[name] if n_spans else np.zeros(0, dtype=np.int64)

    def in_group(label: str) -> np.ndarray:
        return group == GROUPS.index(label)

    def outer(label: str) -> np.ndarray:
        """Spans of the group not nested in another span of it."""
        return in_group(label) & ((ctx & _BIT[label]) == 0)

    def total(label: str) -> float:
        return float(duration[outer(label)].sum())

    def count(label: str) -> int:
        return int(outer(label).sum())

    def self_of(label: str) -> float:
        return float(self_time[in_group(label)].sum())

    def named(qualname: str) -> np.ndarray:
        if qualname not in tracer._name_ids:
            return np.zeros(n_spans, dtype=bool)
        return name == tracer._name_ids[qualname]

    metrics: Dict[str, float] = {
        "trace.wall_s": total("bench.timed"),
        "trace.self_sum_s": float(self_time.sum()),
        "cake.build_s": total("cake.build"),
        "cake.build_n": count("cake.build"),
        "cake.run_s": total("cake.run"),
        "cake.run_n": count("cake.run"),
        "cake.self_s": self_of("cake.run"),
        "rtos.program_s": total("rtos.program"),
        "rtos.program_n": count("rtos.program"),
        "kpn.traffic_s": total("kpn.traffic"),
        "kpn.traffic_n": count("kpn.traffic"),
        "kpn.accesses": int(cols["n"][outer("kpn.traffic")].sum()),
        "mem.execute_s": total("mem.execute"),
        "mem.execute_n": count("mem.execute"),
        "mem.self_s": self_of("mem.execute"),
        "mem.coalesce_s": total("mem.coalesce"),
        "mem.resolve_s": total("mem.resolve"),
        "mem.map_index_s": total("mem.map_index"),
        "mem.c_walk_s": total("mem.c_walk"),
        "mem.c_calls": count("mem.c_walk"),
        "mem.sync_n": count("mem.sync"),
        "mem.sync_s": total("mem.sync"),
        "mem.repartition_n": count("mem.repartition"),
        "mem.writebacks": int(cols["n"][outer("mem.repartition")].sum()),
        "core.profile_s": total("core.profile"),
        "core.profile_n": count("core.profile"),
        "core.profile_runs": int(
            (outer("cake.run") & ((ctx & _BIT["core.profile"]) != 0)).sum()
        ),
        "core.optimize_s": total("core.optimize"),
        "core.optimize_n": count("core.optimize"),
        "core.validate_s": total("core.validate"),
        "exp.run_s": total("exp.run"),
        "exp.self_s": self_of("exp.run") + self_of("exp.dynamic"),
        "exp.cache_get_n": count("exp.cache_get"),
        "exp.cache_get_s": total("exp.cache_get"),
        "exp.cache_put_n": count("exp.cache_put"),
        "exp.cache_put_s": total("exp.cache_put"),
        "exp.store_append_n": count("exp.store_append"),
        "exp.store_append_s": total("exp.store_append"),
        "exp.dynamic_s": total("exp.dynamic"),
    }
    gets = outer("exp.cache_get")
    metrics["exp.cache_hit_ratio"] = (
        float(cols["n"][gets].sum()) / int(gets.sum()) if gets.any() else 0.0
    )

    # Run coalescing: runs per access, and which tier walked them -- a
    # coalesce span belongs to the execute span that is its parent,
    # and that execute span ran in C when a C-walk span shares it.
    coalesce = in_group("mem.coalesce")
    runs = int(cols["n"][coalesce].sum())
    accesses = int(cols["m"][coalesce].sum())
    c_parents = np.unique(parent[in_group("mem.c_walk")])
    c_runs = int(cols["n"][coalesce & np.isin(parent, c_parents)].sum())
    metrics["mem.runs_per_access"] = runs / accesses if accesses else 0.0
    metrics["mem.c_run_share"] = c_runs / runs if runs else 0.0
    metrics["mem.ns_per_access"] = (
        metrics["mem.execute_s"] / accesses * 1e9 if accesses else 0.0
    )
    segments = named("MemorySystem.execute_segment")
    metrics["mem.entries_per_segment"] = (
        float(cols["n"][segments].mean()) if segments.any() else 0.0
    )
    return metrics


def mean_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key mean over repetitions (linear, so self times still add
    up to the mean traced wall time)."""
    return {
        key: statistics.fmean(sample[key] for sample in samples)
        for key in samples[0]
    }
