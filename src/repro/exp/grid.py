"""Grid expansion: axes of scenario variation -> scenario lists.

The paper's evaluation is a set of sweeps (workload x L2 geometry x
method knobs); :class:`Grid` makes that the native shape.  A grid is a
base :class:`~repro.exp.scenario.Scenario` plus named axes; expansion
is the cartesian product in axis-declaration order, so scenario order
-- and therefore result-store order -- is deterministic.

Built-in axes cover the knobs the paper varies::

    scenarios = sweep(
        base,
        l2_size_kb=[128, 256, 512, 1024],
        solver=["dp", "greedy"],
    )

Custom axes pass an ``(name, values, apply)`` triple to
:meth:`Grid.axis`, where ``apply(scenario, value)`` returns the derived
scenario.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.allocation import BufferPolicy
from repro.errors import ConfigurationError
from repro.exp.scenario import Scenario, TransitionSpec, WorkloadSpec
from repro.mem.partition import PartitionMode

__all__ = ["Grid", "sweep"]

AxisApply = Callable[[Scenario, Any], Scenario]


def _axis_workload(scenario: Scenario, value) -> Scenario:
    if isinstance(value, WorkloadSpec):
        spec = value
    elif isinstance(value, str):
        spec = WorkloadSpec(value)
    elif isinstance(value, tuple) and len(value) == 2:
        spec = WorkloadSpec(value[0], dict(value[1]))
    else:
        raise ConfigurationError(
            f"workload axis values must be WorkloadSpec, name, or "
            f"(name, kwargs), got {value!r}"
        )
    return replace(scenario, workload=spec)


def _axis_partition_mode(scenario: Scenario, value) -> Scenario:
    mode = value if isinstance(value, PartitionMode) else PartitionMode(value)
    return replace(scenario, partition_mode=mode)


def _axis_fifo_policy(scenario: Scenario, value) -> Scenario:
    policy = value if isinstance(value, BufferPolicy) else BufferPolicy(value)
    return scenario.with_method(fifo_policy=policy)


#: Built-in axes: name -> apply(scenario, value).
AXES: Dict[str, AxisApply] = {
    "workload": _axis_workload,
    "app": _axis_workload,
    "l2_size": lambda s, v: replace(s, cake=s.cake.with_l2_size(v)),
    "l2_size_kb": lambda s, v: replace(s, cake=s.cake.with_l2_size(v * 1024)),
    "l2_ways": lambda s, v: replace(s, cake=s.cake.with_l2_ways(v)),
    "n_cpus": lambda s, v: s.with_cake(n_cpus=v),
    "allocation_unit_sets": lambda s, v: s.with_cake(allocation_unit_sets=v),
    "scheduling": lambda s, v: s.with_cake(scheduling=v),
    "solver": lambda s, v: s.with_method(solver=v),
    "sizes": lambda s, v: s.with_method(sizes=v),
    "profile_repeats": lambda s, v: s.with_method(profile_repeats=v),
    "fifo_policy": _axis_fifo_policy,
    "partition_mode": _axis_partition_mode,
    "mode": _axis_partition_mode,
    "seed": lambda s, v: replace(s, seed=v),
    "tag": lambda s, v: replace(s, tag=v),
    # Online transitions: each value is a tuple/list of TransitionSpec
    # (or their dict forms).  Content-hashed into scenario_id -- a
    # dynamic point is a different experiment than its static base.
    "transitions": lambda s, v: replace(
        s,
        transitions=tuple(
            t if isinstance(t, TransitionSpec) else TransitionSpec.from_dict(t)
            for t in v
        ),
    ),
    # Execution engine (reference/compiled).  Not part of the
    # scenario identity: engines are bit-identical, so an engine axis
    # produces colliding scenario_ids on purpose -- it exists to prove
    # exactly that (the smoke gate and differential tests sweep it).
    "engine": lambda s, v: s.with_engine(v),
}


class Grid:
    """A base scenario plus named axes of variation."""

    def __init__(self, base: Scenario):
        self.base = base
        self._axes: List[Tuple[str, List[Any], AxisApply]] = []

    def axis(
        self,
        name: str,
        values: Iterable[Any],
        apply: AxisApply = None,
    ) -> "Grid":
        """Add an axis; returns the grid for chaining.

        ``apply`` defaults to the built-in axis of that name; custom
        axes must provide their own apply function.
        """
        values = list(values)
        if not values:
            raise ConfigurationError(f"axis {name!r} has no values")
        if apply is None:
            try:
                apply = AXES[name]
            except KeyError:
                known = ", ".join(sorted(AXES))
                raise ConfigurationError(
                    f"unknown axis {name!r} (known: {known}); pass "
                    f"apply= for a custom axis"
                ) from None
        self._axes.append((name, values, apply))
        return self

    @property
    def axis_names(self) -> List[str]:
        """Axis names in declaration order."""
        return [name for name, _values, _apply in self._axes]

    def __len__(self) -> int:
        count = 1
        for _name, values, _apply in self._axes:
            count *= len(values)
        return count

    def points(self) -> Iterator[Tuple[Dict[str, Any], Scenario]]:
        """(axis-assignment, scenario) pairs in deterministic order."""
        value_lists = [values for _name, values, _apply in self._axes]
        for combo in itertools.product(*value_lists):
            scenario = self.base
            assignment = {}
            for (name, _values, apply), value in zip(self._axes, combo):
                scenario = apply(scenario, value)
                assignment[name] = value
            yield assignment, scenario

    def scenarios(self) -> List[Scenario]:
        """The expanded scenario list (cartesian product)."""
        return [scenario for _assignment, scenario in self.points()]

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios())


def sweep(base: Scenario, **axes: Sequence[Any]) -> List[Scenario]:
    """Expand ``base`` over built-in axes given as keyword lists.

    ``sweep(base, l2_size_kb=[256, 512], solver=["dp", "greedy"])``
    yields 4 scenarios, last axis varying fastest.
    """
    grid = Grid(base)
    for name, values in axes.items():
        grid.axis(name, values)
    return grid.scenarios()
