"""The host-speed probe, which reads a run's times at one host speed.

The benchmark runs on a share of a machine whose other tenants slow it
down: the same work takes up to 1.8x longer for stretches of seconds
to minutes, in CPU time as much as in wall time, so neither longer runs
nor CPU time take the drift out.  A small fixed piece of work timed
beside the simulator slows down with it.  Measured on a 2-vCPU share
of a 2.1 GHz Xeon host, in two spells of 2-3 minutes of back-to-back
sessions per workload: the standard deviation of the session times
fell from 11-15% of their mean to about 4% once each time was divided
by the mean probe time taken during it.  (Probes that also read a table
larger than the core's caches tracked no better; the median probe time
tracked warm_grid's short sessions worse, 6%, as it ignores the slow
bursts the sessions pay for.)

So every time the benchmark reports is read at the nominal speed: the
measured seconds times ``NOMINAL_S`` over the mean probe time of the
same stretch of the run.  Inside a timed part a CPU-time timer
(``ITIMER_PROF``, so not the ``SIGALRM`` deadline) samples the probe
at a fixed pace wherever the simulator is, so the samples spread
evenly over the part; the seconds they take are left out of the part's
time.  The probe is plain Python and NumPy and calls nothing of the
library, so no change to the library can move it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from array import array

import numpy as np

#: About the probe's time when the host runs at full speed (the 2.1 GHz
#: Xeon share above, with quiet neighbours).  A fixed scale: times read
#: at the nominal speed are the seconds such a host would take.
NOMINAL_S = 4.5e-4
#: Probes taken in a row where no timer runs: after start-up, and
#: around set-up steps and traced sessions.
BLOCK = 16
#: CPU seconds between two samples inside a timed part (the probe adds
#: about 1% to the part's length, and none to its time).
PERIOD_S = 0.05
#: Share of the samples, fastest first, that the mean keeps.  A sample
#: the scheduler preempts takes many times its length, while the same
#: preemption costs the simulator only that much.
KEEP = 0.9

_KEYS = np.arange(4096, dtype=np.int64) & 255


def _work() -> int:
    """The probe's fixed work: an interpreter loop and a few NumPy calls,
    the two kinds of work the simulator spends its time in."""
    total = 0
    table = {}
    for i in range(3000):
        total += i * i % 7
        table[i & 63] = total
    for _ in range(20):
        total += int(np.bincount(_KEYS, minlength=256).sum())
    return total


class Probe:
    """Probe times taken since the last :meth:`take`."""

    def __init__(self) -> None:
        self.times = array("d")
        #: Seconds the samples inside the last :meth:`during` block took.
        self.inside_s = 0.0

    def sample(self, count: int = 1) -> float:
        """Run the probe ``count`` times; returns the seconds it took,
        which the caller leaves out of what it times."""
        entered = time.perf_counter()
        for _ in range(count):
            started = time.perf_counter()
            _work()
            self.times.append(time.perf_counter() - started)
        return time.perf_counter() - entered

    @contextlib.contextmanager
    def during(self):
        """Sample the probe every ``PERIOD_S`` of CPU time in the block."""

        def tick(_signum, _frame):
            self.inside_s += self.sample()

        self.inside_s = 0.0
        previous = signal.signal(signal.SIGPROF, tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def take(self) -> float:
        """The host's speed over the samples since the last call, as a
        share of the nominal speed (below 1 when the host is slow); a
        measured time times this is that time at the nominal speed."""
        times, self.times = sorted(self.times), array("d")
        return NOMINAL_S / statistics.fmean(
            times[: max(1, int(len(times) * KEEP))]
        )
