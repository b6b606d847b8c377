"""Parameterised synthetic workloads.

These generic programs cover the archetypes of multimedia tasks --
sources, filters and sinks with tunable working sets, streaming volumes
and table-lookup behaviour.  They are used by unit/integration tests,
the granularity and FIFO-policy ablations, and the custom-application
example.
"""

from __future__ import annotations

from typing import Optional

from repro.kpn.graph import FifoSpec, FrameBufferSpec, ProcessNetwork, TaskSpec
from repro.kpn.process import TaskContext

__all__ = [
    "filter_program",
    "make_pipeline",
    "sink_program",
    "source_program",
]


def source_program(ctx: TaskContext):
    """Produce ``n_tokens`` tokens, touching a private working set.

    Params: ``n_tokens``, ``work_bytes`` (private working set per
    token), ``instr`` (instructions per token).
    """
    n_tokens = ctx.params["n_tokens"]
    work_bytes = ctx.params.get("work_bytes", 2048)
    instr = ctx.params.get("instr", 2000)
    work_bytes = min(work_bytes, ctx.heap.size)
    generate = ctx.compute(
        ctx.fetch(instr),
        ctx.stream(ctx.heap, 0, work_bytes, write=True),
        label="generate",
    )
    for _ in range(n_tokens):
        yield generate
        yield ctx.write("out")


def filter_program(ctx: TaskContext):
    """Consume one token, work on a private working set, produce one.

    Params: ``n_tokens``, ``work_bytes``, ``instr``, optional
    ``reread`` (extra passes over the working set, raising reuse).
    """
    n_tokens = ctx.params["n_tokens"]
    work_bytes = min(ctx.params.get("work_bytes", 4096), ctx.heap.size)
    instr = ctx.params.get("instr", 3000)
    reread = ctx.params.get("reread", 1)
    batches = [ctx.fetch(instr)]
    for _ in range(reread):
        batches.append(ctx.stream(ctx.heap, 0, work_bytes))
    batches.append(ctx.stream(ctx.heap, 0, work_bytes, write=True))
    work = ctx.compute(*batches, label="filter")
    for _ in range(n_tokens):
        yield ctx.read("in")
        yield work
        yield ctx.write("out")


def sink_program(ctx: TaskContext):
    """Consume ``n_tokens`` tokens into a private working set."""
    n_tokens = ctx.params["n_tokens"]
    work_bytes = min(ctx.params.get("work_bytes", 2048), ctx.heap.size)
    instr = ctx.params.get("instr", 1500)
    consume = ctx.compute(
        ctx.fetch(instr),
        ctx.stream(ctx.heap, 0, work_bytes, write=True),
        label="consume",
    )
    for _ in range(n_tokens):
        yield ctx.read("in")
        yield consume


def make_pipeline(
    n_stages: int = 3,
    n_tokens: int = 64,
    token_bytes: int = 1024,
    capacity_tokens: int = 4,
    work_bytes: int = 4096,
    name: str = "pipeline",
    frame_bytes: Optional[int] = None,
) -> ProcessNetwork:
    """A source -> (n_stages - 2) filters -> sink chain.

    The smallest non-trivial communicating application; with
    ``frame_bytes`` set, a frame buffer is added for layout tests.
    """
    if n_stages < 2:
        raise ValueError("a pipeline needs at least source and sink")
    network = ProcessNetwork(name)
    params = {"n_tokens": n_tokens, "work_bytes": work_bytes}
    network.add_task(TaskSpec(
        name="stage0", program=source_program, params=dict(params),
        heap_bytes=max(work_bytes, 4096),
    ))
    for index in range(1, n_stages - 1):
        network.add_task(TaskSpec(
            name=f"stage{index}", program=filter_program, params=dict(params),
            heap_bytes=max(work_bytes, 4096),
        ))
    network.add_task(TaskSpec(
        name=f"stage{n_stages - 1}", program=sink_program, params=dict(params),
        heap_bytes=max(work_bytes, 4096),
    ))
    for index in range(n_stages - 1):
        network.add_fifo(FifoSpec(
            name=f"link{index}",
            producer=f"stage{index}", producer_port="out",
            consumer=f"stage{index + 1}", consumer_port="in",
            token_bytes=token_bytes, capacity_tokens=capacity_tokens,
        ))
    if frame_bytes:
        network.add_frame_buffer(FrameBufferSpec("scratch", frame_bytes))
    return network
