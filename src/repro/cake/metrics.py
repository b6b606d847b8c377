"""Per-CPU and per-run metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.mem.cache import OwnerStats

__all__ = ["CpuMetrics", "RunMetrics"]


@dataclass
class CpuMetrics:
    """What one CPU did during a run."""

    busy_cycles: int = 0
    idle_cycles: float = 0.0
    switch_cycles: int = 0
    instructions: int = 0
    dispatches: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per instruction, stalls and switches included.

        This matches the paper's per-processor CPI: idle time waiting
        for work is excluded, task-switch overhead is included.
        """
        if self.instructions == 0:
            return 0.0
        return (self.busy_cycles + self.switch_cycles) / self.instructions

    @property
    def total_cycles(self) -> float:
        """Busy + switch + idle cycles (the ``Y(P_k)`` of §3.1)."""
        return self.busy_cycles + self.switch_cycles + self.idle_cycles


@dataclass
class RunMetrics:
    """Everything measured in one platform run."""

    cpus: List[CpuMetrics] = field(default_factory=list)
    #: owner name -> L2 stats for that owner.
    l2_by_owner: Dict[str, OwnerStats] = field(default_factory=dict)
    #: task name -> task stats (instructions, cycles, blockings...).
    task_stats: Dict[str, object] = field(default_factory=dict)
    #: elapsed simulated cycles.
    elapsed_cycles: float = 0.0
    #: cross-owner L2 evictions (the interference measure).
    l2_cross_evictions: int = 0
    #: DRAM lines moved (for the power model).
    dram_lines: int = 0
    #: The hierarchy engine that walked the run
    #: (``MemorySystem.effective_engine``); ``None`` when restored from
    #: a payload.  Execution metadata: engines are bit-identical, so it
    #: takes no part in comparisons and no payload carries it.
    effective_engine: Optional[str] = field(default=None, compare=False)

    # -- aggregates ----------------------------------------------------------

    @property
    def l2_accesses(self) -> int:
        """Total L2 accesses."""
        return sum(s.accesses for s in self.l2_by_owner.values())

    @property
    def l2_misses(self) -> int:
        """Total L2 misses."""
        return sum(s.misses for s in self.l2_by_owner.values())

    @property
    def l2_miss_rate(self) -> float:
        """Misses per L2 access."""
        accesses = self.l2_accesses
        return self.l2_misses / accesses if accesses else 0.0

    @property
    def instructions(self) -> int:
        """Total instructions executed."""
        return sum(c.instructions for c in self.cpus)

    @property
    def mean_cpi(self) -> float:
        """Instruction-weighted CPI over all CPUs."""
        instr = self.instructions
        if instr == 0:
            return 0.0
        cycles = sum(c.busy_cycles + c.switch_cycles for c in self.cpus)
        return cycles / instr

    @property
    def worst_cpu_cycles(self) -> float:
        """``max_k Y(P_k)`` -- the throughput bottleneck of §3.1."""
        return max((c.total_cycles for c in self.cpus), default=0.0)

    def misses_of(self, owner_name: str) -> int:
        """L2 misses attributed to one owner (0 if never seen)."""
        stats = self.l2_by_owner.get(owner_name)
        return stats.misses if stats else 0

    def summary(self) -> str:
        """Human-readable one-paragraph digest."""
        lines = [
            f"elapsed cycles      : {self.elapsed_cycles:,.0f}",
            f"instructions        : {self.instructions:,}",
            f"mean CPI            : {self.mean_cpi:.3f}",
            f"L2 accesses         : {self.l2_accesses:,}",
            f"L2 misses           : {self.l2_misses:,}",
            f"L2 miss rate        : {self.l2_miss_rate:.2%}",
            f"cross-owner evicts  : {self.l2_cross_evictions:,}",
        ]
        for index, cpu in enumerate(self.cpus):
            lines.append(
                f"cpu{index}: cpi={cpu.cpi:.3f} busy={cpu.busy_cycles:,} "
                f"idle={cpu.idle_cycles:,.0f} switch={cpu.switch_cycles:,}"
            )
        return "\n".join(lines)
