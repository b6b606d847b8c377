"""Deterministic shared-bus contention model.

The CAKE tile connects CPUs to the L2 and memory through a "fast,
high-bandwidth snooping interconnection network"; the paper's analytic
model *neglects* bus contention and cites it as one of the residual
effects behind the small expected-vs-simulated differences of Figure 3.

The model here is intentionally mild and fully deterministic: each CPU's
recent line-transfer demand decays exponentially with simulated time;
when a CPU executes a batch, every one of its transfers pays a surcharge
proportional to the *other* CPUs' current demand relative to the bus
capacity.  Two properties matter:

- with a single active CPU the surcharge is zero (no self-contention),
  so solo profiling is unaffected; and
- the surcharge is a few percent of total stall cycles for the paper's
  workloads, the right order of magnitude for a "neglected effect".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import MemoryModelError

__all__ = ["BusConfig", "SharedBus"]


@dataclass(frozen=True)
class BusConfig:
    """Parameters of the contention approximation."""

    #: Cycles to move one cache line across the bus.
    transfer_cycles: int = 4
    #: Lines per cycle the bus can sustain (aggregate capacity).
    lines_per_cycle: float = 0.25
    #: Time constant (cycles) of the demand decay.
    decay_cycles: float = 2000.0
    #: Cap on the per-transfer surcharge factor.
    max_surcharge: float = 2.0

    def __post_init__(self) -> None:
        if self.transfer_cycles < 0:
            raise MemoryModelError("transfer_cycles must be >= 0")
        if self.lines_per_cycle <= 0:
            raise MemoryModelError("lines_per_cycle must be positive")
        if self.decay_cycles <= 0:
            raise MemoryModelError("decay_cycles must be positive")


class SharedBus:
    """Tracks per-CPU demand and prices batches of line transfers."""

    def __init__(self, config: BusConfig = BusConfig(), n_cpus: int = 4):
        self.config = config
        self.n_cpus = n_cpus
        self._demand: Dict[int, float] = {cpu: 0.0 for cpu in range(n_cpus)}
        self._last_update: Dict[int, float] = {cpu: 0.0 for cpu in range(n_cpus)}
        self.total_transfers = 0
        self.total_surcharge_cycles = 0.0

    def _decayed_demand(self, cpu: int, now: float) -> float:
        elapsed = max(0.0, now - self._last_update[cpu])
        return self._demand[cpu] * math.exp(-elapsed / self.config.decay_cycles)

    def price_transfers(self, cpu: int, n_transfers: int, now: float) -> int:
        """Cycles of bus delay for ``n_transfers`` lines issued by ``cpu``.

        Also records the demand so later batches observe it.
        """
        if n_transfers <= 0:
            return 0
        config = self.config
        other_rate = 0.0
        for other in self._demand:
            if other == cpu:
                continue
            other_rate += self._decayed_demand(other, now) / config.decay_cycles
        utilisation = min(1.0, other_rate / config.lines_per_cycle)
        surcharge = min(config.max_surcharge, utilisation)
        base = n_transfers * config.transfer_cycles
        extra = base * surcharge
        # Record own demand after pricing (no self-contention).
        self._demand[cpu] = self._decayed_demand(cpu, now) + n_transfers
        self._last_update[cpu] = now
        self.total_transfers += n_transfers
        self.total_surcharge_cycles += extra
        return int(base + extra)
