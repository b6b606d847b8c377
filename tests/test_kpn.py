"""Tests for the process-network description and FIFO channels."""

import networkx as nx
import pytest

from repro.errors import NetworkError
from repro.kpn import (
    Compute,
    Delay,
    FifoChannel,
    FifoSpec,
    FrameBufferSpec,
    ProcessNetwork,
    ReadToken,
    TaskContext,
    TaskSpec,
    WriteToken,
)
from repro.kpn.fifo import ADMIN_BLOCK_BYTES
from repro.mem.address import Region, RegionKind


def dummy_program(ctx):
    yield ctx.delay(1)


def simple_network():
    network = ProcessNetwork("net")
    network.add_task(TaskSpec("a", dummy_program))
    network.add_task(TaskSpec("b", dummy_program))
    network.add_fifo(FifoSpec("f", "a", "out", "b", "in",
                              token_bytes=64, capacity_tokens=4))
    return network


def test_network_validates_ok():
    simple_network().validate()


def test_duplicate_names_rejected():
    network = simple_network()
    with pytest.raises(NetworkError):
        network.add_task(TaskSpec("a", dummy_program))
    with pytest.raises(NetworkError):
        network.add_fifo(FifoSpec("f", "a", "o2", "b", "i2", 64, 4))
    network.add_frame_buffer(FrameBufferSpec("fr", 1024))
    with pytest.raises(NetworkError):
        network.add_frame_buffer(FrameBufferSpec("fr", 1024))


def test_unknown_endpoint_rejected():
    network = ProcessNetwork("net")
    network.add_task(TaskSpec("a", dummy_program))
    network.add_fifo(FifoSpec("f", "a", "out", "ghost", "in", 64, 4))
    with pytest.raises(NetworkError):
        network.validate()


def test_port_bound_twice_rejected():
    network = simple_network()
    network.add_fifo(FifoSpec("f2", "a", "out", "b", "in2", 64, 4))
    with pytest.raises(NetworkError):
        network.validate()


def test_self_loop_rejected():
    network = ProcessNetwork("net")
    network.add_task(TaskSpec("a", dummy_program))
    network.add_fifo(FifoSpec("f", "a", "out", "a", "in", 64, 4))
    with pytest.raises(NetworkError):
        network.validate()


def test_task_graph_structure():
    graph = simple_network().task_graph()
    assert isinstance(graph, nx.DiGraph)
    assert set(graph.nodes) == {"a", "b"}
    assert graph.edges["a", "b"]["fifo"] == "f"


def test_frame_window_clamped_to_size():
    frame = FrameBufferSpec("fr", size_bytes=1024, window_bytes=4096)
    assert frame.window_bytes == 1024


def test_spec_validation():
    with pytest.raises(NetworkError):
        TaskSpec("t", dummy_program, code_bytes=0)
    with pytest.raises(NetworkError):
        FifoSpec("f", "a", "o", "b", "i", token_bytes=0, capacity_tokens=1)
    with pytest.raises(NetworkError):
        ReadToken("p", tokens=0)
    with pytest.raises(NetworkError):
        WriteToken("p", tokens=-1)
    with pytest.raises(NetworkError):
        Delay(cycles=-1)


# -- FIFO channel runtime ----------------------------------------------------


def make_channel(capacity=4, token=64):
    spec = FifoSpec("f", "a", "out", "b", "in", token_bytes=token,
                    capacity_tokens=capacity)
    buffer_region = Region("fifo.f", base=0x4000, size=spec.buffer_bytes,
                           kind=RegionKind.FIFO)
    admin_region = Region("rt.data", base=0x8000, size=4096,
                          kind=RegionKind.DATA)
    return FifoChannel(spec, buffer_region, admin_region, admin_offset=64)


def test_fifo_read_write_state_machine():
    fifo = make_channel()
    assert fifo.can_write(4) and not fifo.can_read(1)
    fifo.commit_write(3)
    assert fifo.tokens == 3
    assert fifo.can_read(3) and not fifo.can_read(4)
    fifo.commit_read(2)
    assert fifo.tokens == 1
    assert fifo.stats.tokens_produced == 3
    assert fifo.stats.tokens_consumed == 2
    assert fifo.stats.max_occupancy == 3


def test_fifo_overflow_underflow_rejected():
    fifo = make_channel(capacity=2)
    with pytest.raises(NetworkError):
        fifo.commit_read(1)
    fifo.commit_write(2)
    with pytest.raises(NetworkError):
        fifo.commit_write(1)
    with pytest.raises(NetworkError):
        fifo.write_batch(1)
    with pytest.raises(NetworkError):
        make_channel().read_batch(1)


def test_fifo_batches_touch_payload_and_admin():
    fifo = make_channel(capacity=4, token=64)
    fifo.commit_write(1)
    batch = fifo.read_batch(1)
    payload = (batch.addrs >= 0x4000) & (batch.addrs < 0x4000 + 256)
    admin = (batch.addrs >= 0x8000 + 64) & (
        batch.addrs < 0x8000 + 64 + ADMIN_BLOCK_BYTES
    )
    assert payload.sum() == 64 // 4
    assert admin.sum() == 6
    assert (payload | admin).all()


def test_fifo_ring_pointer_wraps():
    fifo = make_channel(capacity=4, token=64)
    for _ in range(6):
        fifo.commit_write(1)
        fifo.commit_read(1)
    assert fifo.read_ptr == fifo.write_ptr
    assert fifo.read_ptr < fifo.buffer_region.size


def test_fifo_write_batch_is_stores():
    fifo = make_channel()
    batch = fifo.write_batch(1)
    payload_mask = (batch.addrs >= 0x4000) & (batch.addrs < 0x8000)
    assert payload_mask.any()
    assert batch.writes[payload_mask].all()


# -- TaskContext ------------------------------------------------------------


def make_context():
    regions = {
        name: Region(f"t.{name}", base=0x1000 * (i + 1), size=2048,
                     kind=RegionKind.HEAP)
        for i, name in enumerate(("code", "data", "bss", "stack", "heap"))
    }
    shared = {"appl.data": Region("appl.data", base=0x20000, size=1024,
                                  kind=RegionKind.DATA)}
    frames = {"fr": Region("frame.fr", base=0x30000, size=4096,
                           kind=RegionKind.FRAME)}
    import numpy as np
    return TaskContext("t", {}, np.random.default_rng(0), regions, shared,
                       frames)


def test_context_region_accessors():
    ctx = make_context()
    assert ctx.code.name == "t.code"
    assert ctx.heap.name == "t.heap"
    assert ctx.shared("appl.data").base == 0x20000
    assert ctx.frame("fr").size == 4096
    with pytest.raises(NetworkError):
        ctx.shared("nope")
    with pytest.raises(NetworkError):
        ctx.frame("nope")


def test_context_ports_and_ops():
    ctx = make_context()
    fifo = make_channel()
    ctx.bind_port("out", fifo)
    assert ctx.port("out") is fifo
    with pytest.raises(NetworkError):
        ctx.bind_port("out", fifo)
    with pytest.raises(NetworkError):
        ctx.port("ghost")
    op = ctx.compute(ctx.stream(ctx.heap, 0, 64), ctx.fetch(10))
    assert isinstance(op, Compute)
    assert op.batch.n_accesses > 0
    assert isinstance(ctx.read("out"), ReadToken)
    assert isinstance(ctx.write("out", 2), WriteToken)
    assert isinstance(ctx.delay(5), Delay)
