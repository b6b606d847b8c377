"""Off-chip DRAM model.

The paper's platform reaches main memory through the on-tile router; for
the miss-behaviour claims all that matters is that an L2 miss costs a
(large) latency and generates traffic.  :class:`MainMemory` charges a
fixed access latency plus an optional bank-conflict surcharge: the line
address selects one of ``n_banks`` banks, and consecutive accesses to
the same bank within the bank-busy window pay a penalty.  The bank model
is deterministic and cheap; it exists so that the simulated timing has a
second-order effect the analytic model of §3.1/3.2 ignores, which is one
of the sources of the small expected-vs-simulated gaps in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import MemoryModelError

__all__ = ["DramConfig", "MainMemory"]


@dataclass(frozen=True)
class DramConfig:
    """Timing parameters of the off-chip memory."""

    access_cycles: int = 110
    n_banks: int = 8
    bank_busy_cycles: int = 12
    bank_penalty_cycles: int = 6

    def __post_init__(self) -> None:
        if self.access_cycles < 0:
            raise MemoryModelError("access_cycles must be >= 0")
        if self.n_banks <= 0 or self.n_banks & (self.n_banks - 1):
            raise MemoryModelError("n_banks must be a positive power of two")


@dataclass
class MemoryTraffic:
    """Counters of the traffic that reached DRAM."""

    line_reads: int = 0
    line_writes: int = 0
    bank_conflicts: int = 0

    @property
    def total_lines(self) -> int:
        """Total lines transferred in either direction."""
        return self.line_reads + self.line_writes


class MainMemory:
    """Deterministic DRAM latency and traffic model."""

    def __init__(self, config: DramConfig = DramConfig()):
        self.config = config
        self.traffic = MemoryTraffic()
        self._bank_free_at: Dict[int, float] = {}

    def access(self, line_addr: int, write: bool, now: float) -> int:
        """Cost in cycles of transferring one line at time ``now``."""
        config = self.config
        if write:
            self.traffic.line_writes += 1
        else:
            self.traffic.line_reads += 1
        latency = config.access_cycles
        bank = line_addr & (config.n_banks - 1)
        free_at = self._bank_free_at.get(bank, 0.0)
        if now < free_at:
            latency += config.bank_penalty_cycles
            self.traffic.bank_conflicts += 1
        self._bank_free_at[bank] = max(now, free_at) + config.bank_busy_cycles
        return latency
