"""The declarative scenario specification.

A :class:`Scenario` is a frozen value object naming everything one
experiment point needs: which workload (by registry name + kwargs),
which platform (:class:`~repro.cake.config.CakeConfig`), which method
knobs (:class:`~repro.core.method.MethodConfig`), which partition mode,
and which seed.  Because the spec is pure data it serialises to JSON,
round-trips through the result store, and hashes to two stable keys:

- :attr:`Scenario.scenario_id` -- the identity of the whole experiment
  point (every field except the presentation ``tag``).
- :attr:`Scenario.profile_key` -- the identity of the *profiling* work
  the point needs.  Profiling runs on an enlarged virtual L2 and, in a
  fully partitioned cache, per-owner miss curves are independent of the
  total L2 set count, so the key deliberately excludes the L2 set
  count and the solver: an L2-capacity sweep or a solver comparison
  profiles exactly once (``tests/test_exp_runner.py`` pins this).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.cake.config import CakeConfig
from repro.cake.metrics import CpuMetrics, RunMetrics
from repro.core.method import CompositionalMethod, MethodConfig
from repro.core.misscurve import MissCurve
from repro.core.profiling import ProfileResult, default_sizes
from repro.errors import ConfigurationError
from repro.exp.workloads import workload_builder
from repro.kpn.graph import ProcessNetwork
from repro.mem.bus import BusConfig
from repro.mem.cache import CacheGeometry, OwnerStats
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.memory import DramConfig
from repro.mem.partition import PartitionMode
from repro.rtos.task import TaskStats

__all__ = [
    "Scenario",
    "TransitionSpec",
    "WorkloadSpec",
    "content_hash",
    "profile_from_payload",
    "profile_to_payload",
    "run_metrics_from_payload",
    "run_metrics_to_payload",
]


def content_hash(payload: Any, digits: int = 16) -> str:
    """Stable short hash of a JSON-serialisable payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:digits]


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by registry name plus builder keyword arguments."""

    name: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> Callable[[], ProcessNetwork]:
        """The zero-argument network builder this spec names."""
        return workload_builder(self.name, **dict(self.kwargs))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        return cls(name=payload["name"], kwargs=dict(payload.get("kwargs", {})))


#: Online-transition actions: a workload joins the running platform, a
#: task group leaves it, or a bare epoch boundary is marked (the
#: control-run shape: same epochs, no platform change).
TRANSITION_ACTIONS = ("join", "leave", "mark")


@dataclass(frozen=True)
class TransitionSpec:
    """One scheduled online transition of a dynamic scenario.

    ``join`` attaches ``workload`` (its entities prefixed ``group.``)
    at sim time ``at``, subject to admission control; ``budget``
    optionally caps the arrival's predicted cycle cost.  ``leave``
    detaches either a previously joined ``group`` or the explicitly
    named base-network ``tasks``/``fifos``/``frames``.  ``mark`` only
    closes a measurement epoch.
    """

    at: float
    action: str
    workload: Optional[WorkloadSpec] = None
    group: str = ""
    tasks: tuple = ()
    fifos: tuple = ()
    frames: tuple = ()
    #: Cycle budget for admission control (join only); ``None`` = no cap.
    budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.action not in TRANSITION_ACTIONS:
            raise ValueError(
                f"unknown transition action {self.action!r}; "
                f"pick from {TRANSITION_ACTIONS}"
            )
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(
                f"transition time must be finite and >= 0, got {self.at!r}"
            )
        if self.budget is not None and not math.isfinite(self.budget):
            raise ValueError(f"budget must be finite, got {self.budget!r}")
        if self.action == "join" and (self.workload is None or not self.group):
            raise ValueError("a join transition needs a workload and a group")
        if self.action == "leave" and not (self.group or self.tasks):
            raise ValueError("a leave transition needs a group or tasks")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "action": self.action,
            "workload": None if self.workload is None
            else self.workload.to_dict(),
            "group": self.group,
            "tasks": list(self.tasks),
            "fifos": list(self.fifos),
            "frames": list(self.frames),
            "budget": self.budget,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TransitionSpec":
        workload = payload.get("workload")
        return cls(
            at=payload["at"],
            action=payload["action"],
            workload=None if workload is None
            else WorkloadSpec.from_dict(workload),
            group=payload.get("group", ""),
            tasks=tuple(payload.get("tasks", ())),
            fifos=tuple(payload.get("fifos", ())),
            frames=tuple(payload.get("frames", ())),
            budget=payload.get("budget"),
        )


def _cake_to_dict(config: CakeConfig, engine: bool = True) -> Dict[str, Any]:
    payload = asdict(config)
    if not engine:
        # The hierarchy engine is an execution detail, not part of any
        # experiment's identity: all engines are bit-identical (the
        # differential suite enforces it), so identities, cache keys
        # and records deliberately exclude it -- an engine sweep reuses
        # every measurement and reproduces every fingerprint.
        payload["hierarchy"].pop("engine")
    return payload


def _cake_from_dict(payload: Mapping[str, Any]) -> CakeConfig:
    hierarchy = payload["hierarchy"]
    return CakeConfig(
        n_cpus=payload["n_cpus"],
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(**hierarchy["l1_geometry"]),
            l2_geometry=CacheGeometry(**hierarchy["l2_geometry"]),
            issue_cpi=hierarchy["issue_cpi"],
            l2_hit_cycles=hierarchy["l2_hit_cycles"],
            dram=DramConfig(**hierarchy["dram"]),
            bus=BusConfig(**hierarchy["bus"]),
            l2_policy=hierarchy["l2_policy"],
            # Canonical (record) dicts strip the engine; take the
            # dataclass default.
            engine=hierarchy.get("engine", HierarchyConfig.engine),
        ),
        switch_cycles=payload["switch_cycles"],
        quantum_cycles=payload["quantum_cycles"],
        scheduling=payload["scheduling"],
        allocation_unit_sets=payload["allocation_unit_sets"],
        seed=payload["seed"],
    )


def _method_to_dict(config: MethodConfig) -> Dict[str, Any]:
    return {
        "sizes": None if config.sizes is None else list(config.sizes),
        "fifo_policy": config.fifo_policy.value,
        "solver": config.solver,
        "profile_repeats": config.profile_repeats,
    }


def _method_from_dict(payload: Mapping[str, Any]) -> MethodConfig:
    from repro.core.allocation import BufferPolicy

    return MethodConfig(
        sizes=payload["sizes"],
        fifo_policy=BufferPolicy(payload["fifo_policy"]),
        solver=payload["solver"],
        profile_repeats=payload["profile_repeats"],
    )


# -- measurement payloads ------------------------------------------------------
#
# A measurement -- a profile's miss curves or a shared-cache baseline
# run -- is a JSON payload everywhere between the worker that measured
# it and the worker that uses it: in the profile cache, in the
# runner's memo and inside execute tasks.  These four functions are the
# only codec.  Both round-trips are *exact* (every sample, in
# measurement order; every counter), so a record computed from a
# decoded measurement is byte-identical to one computed from the
# in-process original.


def profile_to_payload(profile: ProfileResult) -> Dict[str, Any]:
    """The JSON-serialisable form of a profile.

    Repeated samples at one size keep their measurement order (sorted
    by size only, stably), so the round-trip reproduces sample means
    bit-for-bit -- float summation order matters to the persistent
    profile cache's identical-payload guarantee.
    """
    return {
        "sizes": profile.sizes,
        "curves": {
            owner: [
                [units, value]
                for units in curve.sizes
                for value in curve._samples[units]
            ]
            for owner, curve in profile.curves.items()
        },
        "accesses": {
            owner: {str(units): value for units, value in by_size.items()}
            for owner, by_size in profile.accesses.items()
        },
        "instructions": profile.instructions,
    }


def profile_from_payload(payload: Mapping[str, Any]) -> ProfileResult:
    """Inverse of :func:`profile_to_payload`."""
    profile = ProfileResult(sizes=list(payload["sizes"]))
    for owner, pairs in payload["curves"].items():
        profile.curves[owner] = MissCurve.from_pairs(owner, pairs)
    for owner, by_size in payload["accesses"].items():
        profile.accesses[owner] = {
            int(units): value for units, value in by_size.items()
        }
    profile.instructions = dict(payload["instructions"])
    return profile


def run_metrics_to_payload(
    metrics: RunMetrics, task_stats: bool = True
) -> Dict[str, Any]:
    """The JSON-serialisable form of one run's measurements.

    ``task_stats=False`` produces the *baseline* envelope: nothing
    downstream reads per-task statistics out of a cached shared-cache
    baseline (records are built from the L2/CPU counters alone), so
    the persistent cache stores baselines without them -- roughly
    halving the entry size.  The inverse tolerates either form.
    """
    payload = {
        "cpus": [asdict(cpu) for cpu in metrics.cpus],
        "l2_by_owner": {
            owner: asdict(stats)
            for owner, stats in metrics.l2_by_owner.items()
        },
        "elapsed_cycles": metrics.elapsed_cycles,
        "l2_cross_evictions": metrics.l2_cross_evictions,
        "dram_lines": metrics.dram_lines,
    }
    if task_stats:
        payload["task_stats"] = {
            name: asdict(stats)
            for name, stats in metrics.task_stats.items()
        }
    return payload


def run_metrics_from_payload(payload: Mapping[str, Any]) -> RunMetrics:
    """Inverse of :func:`run_metrics_to_payload` (either form)."""
    return RunMetrics(
        cpus=[CpuMetrics(**cpu) for cpu in payload["cpus"]],
        l2_by_owner={
            owner: OwnerStats(**stats)
            for owner, stats in payload["l2_by_owner"].items()
        },
        task_stats={
            name: TaskStats(**stats)
            for name, stats in payload.get("task_stats", {}).items()
        },
        elapsed_cycles=payload["elapsed_cycles"],
        l2_cross_evictions=payload["l2_cross_evictions"],
        dram_lines=payload["dram_lines"],
    )


@dataclass(frozen=True)
class Scenario:
    """One experiment point: workload x platform x method x mode x seed."""

    workload: WorkloadSpec
    cake: CakeConfig = field(default_factory=CakeConfig)
    method: MethodConfig = field(default_factory=MethodConfig)
    partition_mode: PartitionMode = PartitionMode.SET_PARTITIONED
    #: Root seed override; ``None`` keeps ``cake.seed``.
    seed: Optional[int] = None
    #: Free-form label for reports; not part of the scenario identity.
    tag: str = ""
    #: Scheduled online transitions (empty = the classic static run).
    #: Content-hashed into :attr:`scenario_id` when present; static
    #: scenarios keep their exact pre-transition identities.
    transitions: tuple = ()

    def __post_init__(self) -> None:
        if self.transitions and (
            self.partition_mode is not PartitionMode.SET_PARTITIONED
        ):
            raise ConfigurationError(
                "dynamic scenarios need set partitioning (admission control "
                f"re-solves the MCKP), got {self.partition_mode.value!r}"
            )

    # -- derived configuration ---------------------------------------------

    @property
    def effective_cake(self) -> CakeConfig:
        """The platform config with the scenario seed folded in."""
        if self.seed is None or self.seed == self.cake.seed:
            return self.cake
        return replace(self.cake, seed=self.seed)

    @property
    def resolved_sizes(self) -> List[int]:
        """The allocation-size menu, with the default menu materialised.

        ``MethodConfig.sizes=None`` means "powers of two up to a quarter
        of the allocatable units", which depends on the L2 set count --
        resolving it here keeps the profile key honest across L2 sizes.
        """
        if self.method.sizes is not None:
            return list(self.method.sizes)
        return default_sizes(self.effective_cake.n_allocation_units)

    @property
    def resolved_method(self) -> MethodConfig:
        """The method config with the size menu materialised."""
        if self.method.sizes is not None:
            return self.method
        return replace(self.method, sizes=self.resolved_sizes)

    def build_method(self) -> CompositionalMethod:
        """The single-scenario execution engine for this spec."""
        return CompositionalMethod(
            self.workload.build(), self.effective_cake, self.resolved_method
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self, canonical: bool = False) -> Dict[str, Any]:
        """The JSON-serialisable spec (round-trips via from_dict).

        ``canonical=True`` drops the hierarchy engine -- the form used
        for identities and stored records, which must be invariant
        under the (bit-identical) execution engines.  The default form
        keeps it, so workers and sessions replay with the engine the
        caller picked.
        """
        payload = {
            "workload": self.workload.to_dict(),
            "cake": _cake_to_dict(self.effective_cake, engine=not canonical),
            "method": _method_to_dict(self.method),
            "partition_mode": self.partition_mode.value,
            "tag": self.tag,
        }
        # Only dynamic scenarios carry the key at all: every static
        # scenario's payload -- and therefore its scenario_id and every
        # stored fingerprint -- is unchanged by the transitions feature.
        if self.transitions:
            payload["transitions"] = [t.to_dict() for t in self.transitions]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        return cls(
            workload=WorkloadSpec.from_dict(payload["workload"]),
            cake=_cake_from_dict(payload["cake"]),
            method=_method_from_dict(payload["method"]),
            partition_mode=PartitionMode(payload["partition_mode"]),
            tag=payload.get("tag", ""),
            transitions=tuple(
                TransitionSpec.from_dict(t)
                for t in payload.get("transitions", ())
            ),
        )

    # -- identity ----------------------------------------------------------

    @property
    def scenario_id(self) -> str:
        """Content hash of the spec (minus the presentation tag and
        the execution engine, neither of which changes any result)."""
        payload = self.to_dict(canonical=True)
        payload.pop("tag")
        return content_hash(payload)

    @property
    def needs_profile(self) -> bool:
        """Whether executing this scenario requires miss curves."""
        return self.partition_mode is not PartitionMode.SHARED

    @property
    def is_dynamic(self) -> bool:
        """Whether this scenario schedules online transitions."""
        return bool(self.transitions)

    def profile_requirements(self) -> List[tuple]:
        """``(group, static scenario)`` pairs whose curves this point needs.

        The base workload profiles as group ``""``; every join
        transition profiles its workload *standalone*, with the same
        cake and method -- so each derived :attr:`profile_key` equals
        the one a static scenario of that workload uses, and a warm
        :class:`~repro.exp.cache.ProfileCache` makes the arrival of an
        already-profiled task set cost zero profiling passes.
        """
        base = replace(self, transitions=())
        requirements: List[tuple] = [("", base)]
        for transition in self.transitions:
            if transition.action == "join":
                requirements.append(
                    (transition.group,
                     replace(base, workload=transition.workload))
                )
        return requirements

    @property
    def profile_key(self) -> str:
        """Content hash of the profiling work this scenario needs.

        Excludes the L2 set count (profiling uses a virtual L2; curves
        are set-count independent in a fully partitioned cache), the
        solver (profiling happens before optimization) and the
        execution engine (bit-identical by contract), so capacity
        sweeps, solver comparisons and engine comparisons share one
        profiling pass.
        """
        cake = _cake_to_dict(self.effective_cake, engine=False)
        cake["hierarchy"]["l2_geometry"].pop("sets")
        return content_hash({
            "workload": self.workload.to_dict(),
            "cake": cake,
            "sizes": self.resolved_sizes,
            "fifo_policy": self.method.fifo_policy.value,
            "profile_repeats": self.method.profile_repeats,
        })

    @property
    def baseline_key(self) -> str:
        """Content hash of the shared-cache baseline run it needs."""
        return content_hash({
            "workload": self.workload.to_dict(),
            "cake": _cake_to_dict(self.effective_cake, engine=False),
        })

    # -- convenience -------------------------------------------------------

    def with_cake(self, **changes) -> "Scenario":
        """A copy with platform-config fields replaced."""
        return replace(self, cake=replace(self.cake, **changes))

    def with_method(self, **changes) -> "Scenario":
        """A copy with method-config fields replaced."""
        return replace(self, method=replace(self.method, **changes))

    def with_engine(self, engine: str) -> "Scenario":
        """A copy running on a different hierarchy engine.

        Engines are bit-identical, so the copy shares this scenario's
        identity, profile key and baseline key -- an engine axis reuses
        every cached measurement and reproduces every fingerprint.
        """
        return replace(
            self,
            cake=replace(
                self.cake,
                hierarchy=replace(self.cake.hierarchy, engine=engine),
            ),
        )

    def describe(self) -> str:
        """One-line human description."""
        geometry = self.effective_cake.hierarchy.l2_geometry
        menu = self.method.sizes
        return (
            f"{self.workload.name}"
            f"[{self.partition_mode.value}]"
            f" l2={geometry.size_bytes // 1024}KB/{geometry.ways}w"
            f" cpus={self.effective_cake.n_cpus}"
            f" solver={self.method.solver}"
            f" sizes={'auto' if menu is None else list(menu)}"
            f" seed={self.effective_cake.seed}"
            + (f" transitions={len(self.transitions)}"
               if self.transitions else "")
            + (f" tag={self.tag}" if self.tag else "")
        )
