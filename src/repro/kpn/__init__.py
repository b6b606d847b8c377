"""YAPI-like Kahn-process-network application model.

The paper describes applications with the Y-chart Applications
Programmers Interface (YAPI): parallel tasks communicating through
bounded FIFOs, synchronising implicitly by blocking on read-from-empty
and write-to-full, plus frame buffers that are produced completely
before being consumed (§4.1).

This package provides:

- :mod:`repro.kpn.graph` -- the static application description
  (:class:`ProcessNetwork` of :class:`TaskSpec` / :class:`FifoSpec` /
  :class:`FrameBufferSpec`): the task graph ``G = (V, E)`` of §3.1,
  with tasks as nodes and FIFOs as edges.
- :mod:`repro.kpn.ops` -- the operation protocol task programs yield
  (``Compute`` / ``ReadToken`` / ``WriteToken`` / ``Delay``).
- :mod:`repro.kpn.fifo` -- the run-time bounded-FIFO channel, which
  turns token transfers into address-accurate memory traffic.
- :mod:`repro.kpn.process` -- :class:`TaskContext`, the facade a task
  program uses to reach its regions, ports and pattern helpers.
"""

from repro.kpn.fifo import FifoChannel
from repro.kpn.graph import FifoSpec, FrameBufferSpec, ProcessNetwork, TaskSpec
from repro.kpn.ops import Compute, Delay, Op, ReadToken, WriteToken
from repro.kpn.process import TaskContext

__all__ = [
    "Compute",
    "Delay",
    "FifoChannel",
    "FifoSpec",
    "FrameBufferSpec",
    "Op",
    "ProcessNetwork",
    "ReadToken",
    "TaskContext",
    "TaskSpec",
    "WriteToken",
]
