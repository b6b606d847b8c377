"""The online scenario engine: mid-run task arrival and departure.

Static scenarios fix the task set before the platform starts; a
:class:`DynamicScenario` lets whole applications join and leave a
*running* platform at scheduled sim times, the use case §2 of the paper
motivates ("tasks may be started and stopped dynamically") and which
compositionality makes tractable: because each owner's misses depend
only on its own allocation, a transition only has to re-optimize the
*changed* task set.

The engine composes three pieces:

1. **Incremental re-solve** -- at an arrival, the new group's tasks are
   sized by their own MCKP over the cached per-task miss curves
   (:meth:`~repro.exp.scenario.Scenario.profile_requirements` maps each
   join group to the standalone profile of its workload, so arrival of
   an already-profiled task set performs *zero* profiling passes).
   Every surviving owner keeps its exact unit range: survivors are
   untouched by construction, which is the paper's invariant made
   operational.
2. **Transactional replan** -- the transition rides a
   :class:`~repro.sim.kernel.Replan` event: it is queued up front, so
   the run stays alive until it fires, and it fires at URGENT
   priority, so every op at or after the transition time sees the new
   partition maps on all three engines.  Map mutations go through
   :class:`~repro.rtos.cachectl.CacheController`, which quiesces the
   compiled tier, and departures flush only the leavers
   (:meth:`~repro.mem.hierarchy.MemorySystem.repartition_owners`) with
   dirty-victim writeback accounting.
3. **Admission control** -- an arrival is rejected, with a recorded
   reason, when its MCKP has no feasible allocation in the free units
   (``"capacity"``), when no contiguous free fragment can host one of
   its owners (``"fragmentation"``), or when the predicted cycle cost
   exceeds the transition's budget (``"budget"``).  A rejected group
   never attaches and never touches the cache.

Unit placement is managed by a first-fit ledger over the physical unit
space: the base application packs from unit 0, the default pool is
pinned at the top (so unpartitioned strays stay put across every
transition), and the space between is the arrival arena.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.cake.config import CakeConfig
from repro.cake.metrics import RunMetrics
from repro.cake.platform import Platform
from repro.core.allocation import buffer_units
from repro.core.mckp import items_from_curves, solve_mckp_dp, solve_mckp_greedy
from repro.core.method import MethodConfig
from repro.core.milp import solve_mckp_milp
from repro.core.misscurve import MissCurve
from repro.core.profiling import (
    ProfileResult,
    optimized_item_names,
    profile_miss_curves,
)
from repro.errors import ConfigurationError, OptimizationError
from repro.exp.scenario import Scenario, TransitionSpec
from repro.kpn.graph import ProcessNetwork
from repro.mem.partition import PartitionMode

__all__ = [
    "DynamicResult",
    "DynamicScenario",
    "EpochRecord",
    "TransitionOutcome",
    "merge_networks",
    "qualified",
    "run_dynamic",
]

_SOLVERS = {
    "dp": solve_mckp_dp,
    "greedy": solve_mckp_greedy,
    "milp": solve_mckp_milp,
}


def qualified(group: str, name: str) -> str:
    """The union-network name of a join-group entity (``group.name``)."""
    return f"{group}.{name}" if group else name


def merge_networks(
    base: ProcessNetwork, joins: Mapping[str, ProcessNetwork]
) -> ProcessNetwork:
    """The union network: base entities unprefixed, joiners ``group.``-ed.

    Shared static regions are sized to the maximum over all member
    networks -- one address space serves every resident application, as
    on the real tile.  Task, FIFO and frame names of each join group
    are prefixed with ``"{group}."`` so identically named entities of
    the base and the joiners coexist.
    """
    from dataclasses import replace as _replace

    nets = [base, *joins.values()]
    merged = ProcessNetwork(
        name="+".join([base.name, *joins]),
        appl_data_bytes=max(n.appl_data_bytes for n in nets),
        appl_bss_bytes=max(n.appl_bss_bytes for n in nets),
        rt_data_bytes=max(n.rt_data_bytes for n in nets),
        rt_bss_bytes=max(n.rt_bss_bytes for n in nets),
    )
    for spec in base.tasks.values():
        merged.add_task(spec)
    for spec in base.fifos.values():
        merged.add_fifo(spec)
    for spec in base.frames.values():
        merged.add_frame_buffer(spec)
    for group, net in joins.items():
        for spec in net.tasks.values():
            merged.add_task(_replace(spec, name=qualified(group, spec.name)))
        for spec in net.fifos.values():
            merged.add_fifo(
                _replace(
                    spec,
                    name=qualified(group, spec.name),
                    producer=qualified(group, spec.producer),
                    consumer=qualified(group, spec.consumer),
                )
            )
        for spec in net.frames.values():
            merged.add_frame_buffer(
                _replace(spec, name=qualified(group, spec.name))
            )
    merged.validate()
    return merged


class _UnitLedger:
    """First-fit ledger of free, contiguous allocation-unit fragments.

    Contiguity is a physical constraint (a set partition is one
    contiguous range of sets), so fragmentation is a *real* admission
    failure mode, not bookkeeping -- the ledger keeps fragments
    explicit and coalesces on free.
    """

    def __init__(self) -> None:
        self._free: List[Tuple[int, int]] = []  # (base, units), by base

    def add(self, base: int, units: int) -> None:
        """Return a fragment to the ledger, merging with neighbours."""
        if units <= 0:
            return
        self._free.append((base, units))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for frag_base, frag_units in self._free:
            if merged and merged[-1][0] + merged[-1][1] >= frag_base:
                prev_base, prev_units = merged[-1]
                end = max(prev_base + prev_units, frag_base + frag_units)
                merged[-1] = (prev_base, end - prev_base)
            else:
                merged.append((frag_base, frag_units))
        self._free = merged

    def allocate(self, units: int) -> Optional[int]:
        """First-fit: the base of a fragment holding ``units``, or None."""
        for i, (base, size) in enumerate(self._free):
            if size >= units:
                if size == units:
                    del self._free[i]
                else:
                    self._free[i] = (base + units, size - units)
                return base
        return None

    def free_units(self) -> int:
        """Total free units (across all fragments)."""
        return sum(units for _base, units in self._free)

    def fragments(self) -> List[Tuple[int, int]]:
        """Snapshot of the free list."""
        return list(self._free)


@dataclass
class EpochRecord:
    """Per-task / per-owner counter deltas over one inter-transition epoch."""

    index: int
    start: float
    end: float
    #: What closed the epoch: ``"join:g"``, ``"leave:g"``, ``"mark"``,
    #: ``"end"``.
    trigger: str
    task_cycles: Dict[str, int] = field(default_factory=dict)
    task_instructions: Dict[str, int] = field(default_factory=dict)
    l2_misses_by_owner: Dict[str, int] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        """Deterministic record form (stable key order, no wall times)."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "trigger": self.trigger,
            "task_cycles": dict(sorted(self.task_cycles.items())),
            "task_instructions": dict(sorted(self.task_instructions.items())),
            "l2_misses_by_owner":
                dict(sorted(self.l2_misses_by_owner.items())),
        }


@dataclass
class TransitionOutcome:
    """What one scheduled transition actually did."""

    at: float
    action: str
    group: str
    admitted: bool
    #: Rejection reason: ``"capacity"``, ``"fragmentation"``, ``"budget"``
    #: (empty when admitted).
    reason: str = ""
    predicted_cycles: float = 0.0
    budget: Optional[float] = None
    granted_units: Dict[str, int] = field(default_factory=dict)
    freed_units: int = 0
    #: Dirty victims written back by the departure flush.
    writebacks: int = 0
    #: Host wall seconds spent replanning (execution metadata -- kept
    #: out of :meth:`to_payload` so records stay deterministic).
    wall_s: float = 0.0

    def to_payload(self) -> Dict[str, Any]:
        """Deterministic record form (the replan wall time rides in the
        record's ``timing`` block instead)."""
        return {
            "at": self.at,
            "action": self.action,
            "group": self.group,
            "admitted": self.admitted,
            "reason": self.reason,
            "predicted_cycles": self.predicted_cycles,
            "budget": self.budget,
            "granted_units": dict(sorted(self.granted_units.items())),
            "freed_units": self.freed_units,
            "writebacks": self.writebacks,
        }


@dataclass
class DynamicResult:
    """Everything one dynamic run produced."""

    metrics: RunMetrics
    epochs: List[EpochRecord]
    transitions: List[TransitionOutcome]
    #: Owner name -> (base unit, units) of the *initial* layout.
    initial_ranges: Dict[str, Tuple[int, int]]
    total_units: int
    predicted_misses: float

    def replan_wall_s(self) -> List[float]:
        """Per-transition replan latencies (host seconds)."""
        return [outcome.wall_s for outcome in self.transitions]

    def epoch_payloads(self) -> List[Dict[str, Any]]:
        return [epoch.to_payload() for epoch in self.epochs]

    def transition_payloads(self) -> List[Dict[str, Any]]:
        return [outcome.to_payload() for outcome in self.transitions]


class DynamicScenario:
    """A platform run with scheduled online joins, leaves and marks.

    ``base_builder`` builds the resident application; ``join_builders``
    maps each join group name to a builder of the arriving network.
    The platform is built once, on the *union* network
    (:func:`merge_networks`) with every join-group task deferred, so
    address layout and owner ids are stable across the whole run -- a
    control run (``mark`` transitions only) of the same configuration
    is bit-comparable epoch by epoch.

    ``fixed_units`` pins explicit unit counts for named owners (e.g.
    full-residency shared regions); they are excluded from the MCKP.
    """

    def __init__(
        self,
        base_builder: Callable[[], ProcessNetwork],
        cake: Optional[CakeConfig] = None,
        method: Optional[MethodConfig] = None,
        transitions: Tuple[TransitionSpec, ...] = (),
        join_builders: Optional[
            Mapping[str, Callable[[], ProcessNetwork]]
        ] = None,
        engine: Optional[str] = None,
        pool_units: int = 1,
        fixed_units: Optional[Mapping[str, int]] = None,
    ):
        self.base_builder = base_builder
        self.cake = cake if cake is not None else CakeConfig()
        self.method = method if method is not None else MethodConfig()
        self.transitions = tuple(sorted(transitions, key=lambda t: t.at))
        self._join_builders = dict(join_builders or {})
        self._engine = engine
        if pool_units < 1:
            raise ConfigurationError("pool_units must be >= 1")
        self.pool_units = pool_units
        self.fixed_units = dict(fixed_units or {})
        for spec in self.transitions:
            if spec.action == "join" and spec.group not in self._join_builders:
                raise ConfigurationError(
                    f"join group {spec.group!r} has no network builder"
                )
        groups = [t.group for t in self.transitions if t.action == "join"]
        if len(groups) != len(set(groups)):
            raise ConfigurationError("each join group may arrive only once")

        # Filled by run():
        self.platform: Optional[Platform] = None
        self._profiles: Dict[str, ProfileResult] = {}
        self._join_nets: Dict[str, ProcessNetwork] = {}
        self._ledger = _UnitLedger()
        self._ranges: Dict[str, Tuple[int, int]] = {}
        self._initial_ranges: Dict[str, Tuple[int, int]] = {}
        self._predicted_misses = 0.0
        self._epochs: List[EpochRecord] = []
        self._outcomes: List[TransitionOutcome] = []
        self._epoch_start = 0.0
        self._last_snapshot: Tuple[Dict, Dict, Dict] = ({}, {}, {})

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "DynamicScenario":
        """The engine for a declarative dynamic :class:`Scenario`."""
        if scenario.partition_mode is not PartitionMode.SET_PARTITIONED:
            raise ConfigurationError(
                "dynamic scenarios need set partitioning (admission control "
                f"re-solves the MCKP), got {scenario.partition_mode.value!r}"
            )
        join_builders = {
            spec.group: spec.workload.build()
            for spec in scenario.transitions
            if spec.action == "join"
        }
        return cls(
            scenario.workload.build(),
            cake=scenario.effective_cake,
            method=scenario.resolved_method,
            transitions=scenario.transitions,
            join_builders=join_builders,
        )

    # -- profiles ---------------------------------------------------------

    def _profile(self, builder: Callable[[], ProcessNetwork]) -> ProfileResult:
        return profile_miss_curves(
            builder,
            self.cake,
            sizes=self.method.sizes,
            fifo_policy=self.method.fifo_policy,
            repeats=self.method.profile_repeats,
        )

    def _resolve_profiles(
        self, profiles: Optional[Mapping[str, ProfileResult]]
    ) -> None:
        """Fill ``self._profiles`` for group ``""`` (base) + every joiner.

        Injected profiles (the runner's cache layer) win; anything
        missing is measured here.  An arrival whose curves were
        injected therefore costs zero profiling passes.
        """
        self._profiles = dict(profiles or {})
        if "" not in self._profiles:
            self._profiles[""] = self._profile(self.base_builder)
        for group, builder in self._join_builders.items():
            if group not in self._profiles:
                self._profiles[group] = self._profile(builder)

    # -- initial layout ----------------------------------------------------

    def _initial_layout(self, base_net: ProcessNetwork) -> None:
        """Plan and program the base application's partitions.

        Packs base owners from unit 0, pins the default pool at the top
        of the unit space, and withholds *headroom* from the base MCKP:
        for every scheduled join group, its policy-fixed buffer units
        plus one smallest-menu-size allocation per task -- so a
        conforming arrival is never starved by the base plan.
        """
        cfg = self.cake
        total = cfg.n_allocation_units
        buffers = buffer_units(base_net, cfg.unit_bytes, self.method.fifo_policy)
        fixed = dict(buffers)
        for owner, units in self.fixed_units.items():
            if units <= 0:
                raise ConfigurationError(
                    f"fixed owner {owner!r} pinned to {units} units"
                )
            fixed[owner] = units
        headroom = 0
        for group, net in self._join_nets.items():
            group_buffers = buffer_units(
                net, cfg.unit_bytes, self.method.fifo_policy
            )
            headroom += sum(group_buffers.values())
            headroom += len(net.tasks) * min(self._profiles[group].sizes)
        profile = self._profiles[""]
        items = [
            name for name in optimized_item_names(base_net)
            if name not in self.fixed_units
        ]
        available = total - sum(fixed.values()) - self.pool_units
        budget = available - headroom
        floor = len(items) * min(profile.sizes)
        if budget < floor:
            # Headroom is advisory: an oversized arrival reservation
            # must not starve the resident application below a minimal
            # feasible plan -- that arrival is rejected at join time
            # instead ("capacity").
            budget = min(available, floor)
        if budget <= 0:
            raise OptimizationError(
                f"no MCKP capacity left for the base application: "
                f"{total} units - {sum(fixed.values())} fixed - "
                f"{self.pool_units} pool"
            )
        solution = _SOLVERS[self.method.solver](
            items_from_curves(profile.curve_list(items), profile.sizes),
            budget,
        )
        self._predicted_misses = solution.total_misses

        ranges: Dict[str, Tuple[int, int]] = {}
        cursor = 0
        for owner, units in {**fixed, **solution.allocation}.items():
            ranges[owner] = (cursor, units)
            cursor += units
        self.platform.cache_controller.program_set_layout(
            ranges, pool=(total - self.pool_units, self.pool_units)
        )
        self._ranges = dict(ranges)
        self._initial_ranges = dict(ranges)
        self._ledger = _UnitLedger()
        self._ledger.add(cursor, total - self.pool_units - cursor)

    # -- epoch bookkeeping -------------------------------------------------

    def _snapshot(self) -> Tuple[Dict, Dict, Dict]:
        """Current cumulative counters (compiled tier synced first)."""
        platform = self.platform
        # l2_stats reads the Python-side models; the compiled engine
        # keeps them C-side between calls, so sync explicitly.
        platform.mem.sync_state()
        cycles = {task.name: task.stats.cycles for task in platform.tasks}
        instructions = {
            task.name: task.stats.instructions for task in platform.tasks
        }
        misses = {
            platform.registry.name_of(owner_id): stats.misses
            for owner_id, stats in platform.mem.l2_stats.per_owner.items()
        }
        return cycles, instructions, misses

    def _close_epoch(self, trigger: str) -> None:
        cycles, instructions, misses = self._snapshot()
        prev_cycles, prev_instructions, prev_misses = self._last_snapshot
        self._epochs.append(
            EpochRecord(
                index=len(self._epochs),
                start=self._epoch_start,
                end=self.platform.sim.now,
                trigger=trigger,
                task_cycles={
                    name: value - prev_cycles.get(name, 0)
                    for name, value in cycles.items()
                },
                task_instructions={
                    name: value - prev_instructions.get(name, 0)
                    for name, value in instructions.items()
                },
                l2_misses_by_owner={
                    name: value - prev_misses.get(name, 0)
                    for name, value in misses.items()
                },
            )
        )
        self._last_snapshot = (cycles, instructions, misses)
        self._epoch_start = self.platform.sim.now

    # -- transitions -------------------------------------------------------

    def _on_transition(self, spec: TransitionSpec) -> None:
        label = spec.group or ",".join(spec.tasks)
        self._close_epoch(
            f"{spec.action}:{label}" if label else spec.action
        )
        started = time.perf_counter()
        if spec.action == "join":
            outcome = self._apply_join(spec)
        elif spec.action == "leave":
            outcome = self._apply_leave(spec)
        else:
            outcome = TransitionOutcome(
                at=self.platform.sim.now,
                action="mark",
                group=spec.group,
                admitted=True,
            )
        outcome.wall_s = time.perf_counter() - started
        self._outcomes.append(outcome)

    def _apply_join(self, spec: TransitionSpec) -> TransitionOutcome:
        platform = self.platform
        group = spec.group
        net = self._join_nets[group]
        profile = self._profiles[group]
        outcome = TransitionOutcome(
            at=platform.sim.now,
            action="join",
            group=group,
            admitted=False,
            budget=spec.budget,
        )

        def reject(reason: str) -> TransitionOutcome:
            outcome.reason = reason
            # Release the arrival reservation even on rejection, or the
            # runners would idle forever waiting for tasks that never
            # come.
            platform.scheduler.arrival_handled()
            return outcome

        buffers = {
            self._qualify_owner(group, owner): units
            for owner, units in buffer_units(
                net, self.cake.unit_bytes, self.method.fifo_policy
            ).items()
        }
        # Incremental re-solve: only the arriving group is optimized,
        # over the *free* units -- every resident owner keeps its range.
        budget = self._ledger.free_units() - sum(buffers.values())
        if budget <= 0:
            return reject("capacity")
        curves = [
            MissCurve.from_pairs(
                f"task:{qualified(group, name)}",
                [
                    (units, profile.curve(f"task:{name}").mean(units))
                    for units in profile.curve(f"task:{name}").sizes
                ],
            )
            for name in net.tasks
        ]
        try:
            solution = solve_mckp_dp(
                items_from_curves(curves, profile.sizes), budget
            )
        except OptimizationError:
            return reject("capacity")
        outcome.predicted_cycles = (
            sum(profile.instructions.get(name, 0) for name in net.tasks)
            + solution.total_misses * self.cake.hierarchy.dram.access_cycles
        )
        if spec.budget is not None and outcome.predicted_cycles > spec.budget:
            return reject("budget")

        placements: List[Tuple[str, int, int]] = []
        for owner, units in {**buffers, **solution.allocation}.items():
            base = self._ledger.allocate(units)
            if base is None:
                for _owner, placed_base, placed_units in placements:
                    self._ledger.add(placed_base, placed_units)
                return reject("fragmentation")
            placements.append((owner, base, units))
        for owner, base, units in placements:
            platform.cache_controller.assign_units(owner, base, units)
            self._ranges[owner] = (base, units)
        outcome.granted_units = {
            owner: units for owner, _base, units in placements
        }
        for name in net.tasks:
            platform.attach_task(qualified(group, name))
        platform.scheduler.arrival_handled()
        outcome.admitted = True
        return outcome

    def _apply_leave(self, spec: TransitionSpec) -> TransitionOutcome:
        platform = self.platform
        if spec.group:
            net = self._join_nets[spec.group]
            task_names = [qualified(spec.group, name) for name in net.tasks]
            owner_names = [f"task:{name}" for name in task_names]
            owner_names += [
                f"fifo:{qualified(spec.group, name)}" for name in net.fifos
            ]
            owner_names += [
                f"frame:{qualified(spec.group, name)}" for name in net.frames
            ]
        else:
            task_names = list(spec.tasks)
            owner_names = [f"task:{name}" for name in spec.tasks]
            owner_names += [f"fifo:{name}" for name in spec.fifos]
            owner_names += [f"frame:{name}" for name in spec.frames]
        for name in task_names:
            platform.detach_task(name)
        owner_ids = [
            platform.registry.register(name) for name in owner_names
        ]
        # Flush only the leavers: survivors keep their residency, which
        # is what keeps the transition invisible to them.
        writebacks = platform.mem.repartition_owners(
            owner_ids, now=platform.sim.now
        )
        freed = 0
        for name in owner_names:
            extent = self._ranges.pop(name, None)
            if extent is None:
                continue
            platform.cache_controller.release_units(name)
            self._ledger.add(*extent)
            freed += extent[1]
        return TransitionOutcome(
            at=platform.sim.now,
            action="leave",
            group=spec.group,
            admitted=True,
            writebacks=writebacks,
            freed_units=freed,
        )

    @staticmethod
    def _qualify_owner(group: str, owner: str) -> str:
        """``fifo:x`` of join group ``g`` becomes ``fifo:g.x``."""
        kind, _, name = owner.partition(":")
        return f"{kind}:{qualified(group, name)}"

    # -- execution ---------------------------------------------------------

    def run(
        self, profiles: Optional[Mapping[str, ProfileResult]] = None
    ) -> DynamicResult:
        """Build the union platform, run it through every transition."""
        self._resolve_profiles(profiles)
        base_net = self.base_builder()
        self._join_nets = {
            group: builder()
            for group, builder in self._join_builders.items()
        }
        deferred = [
            qualified(group, name)
            for group, net in self._join_nets.items()
            for name in net.tasks
        ]
        self.platform = Platform(
            merge_networks(base_net, self._join_nets),
            self.cake,
            mode=PartitionMode.SET_PARTITIONED,
            engine=self._engine,
            deferred=deferred,
        )
        self._initial_layout(base_net)

        joins = sum(1 for t in self.transitions if t.action == "join")
        if joins:
            # Keep the runners alive across a quiet base: without the
            # reservation they would exit the moment live tasks hit 0.
            self.platform.scheduler.expect_arrivals(joins)
        for spec in self.transitions:
            # Queued now, before the run starts, at URGENT priority:
            # the action runs before any runner timeout at the
            # transition time, on all three engines identically.
            self.platform.sim.schedule_replan(
                spec.at, lambda spec=spec: self._on_transition(spec)
            )

        self._epochs = []
        self._outcomes = []
        self._epoch_start = 0.0
        self._last_snapshot = ({}, {}, {})
        self.platform.run()
        self._close_epoch("end")
        return DynamicResult(
            metrics=self.platform.collect_metrics(),
            epochs=self._epochs,
            transitions=self._outcomes,
            initial_ranges=dict(self._initial_ranges),
            total_units=self.cake.n_allocation_units,
            predicted_misses=self._predicted_misses,
        )


def run_dynamic(
    scenario: Scenario,
    profiles: Optional[Mapping[str, ProfileResult]] = None,
) -> DynamicResult:
    """Execute one dynamic :class:`Scenario` (the runner's entry point).

    ``profiles`` maps transition group names (``""`` = base) to the
    cached :class:`ProfileResult` of the matching entry in
    :meth:`Scenario.profile_requirements`; anything missing is measured.
    """
    return DynamicScenario.from_scenario(scenario).run(profiles)
