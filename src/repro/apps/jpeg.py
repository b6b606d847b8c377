"""JPEG decoder task graph (de Kock, ISSS 2002 -- reference [1]).

The decoder is the four-task process network the paper's first
application instantiates twice (on different picture formats):

``FrontEnd -> IDCT -> Raster -> BackEnd``

- **FrontEnd**: bitstream parsing + variable-length (Huffman) decoding
  + dequantisation.  Memory behaviour: streaming the compressed input,
  data-dependent Huffman-table lookups (Zipf-distributed -- short codes
  dominate), small scratch.  Private working set ~ the code tables.
- **IDCT**: 8x8 inverse DCT per block, two separable passes over a
  single reused block buffer plus small constant tables.  Tiny working
  set, heavy compute -- the paper allocates it a single set group.
- **Raster**: block-to-raster conversion.  Reorders a strip of decoded
  blocks into raster lines through private line buffers whose size is
  proportional to the picture *width* -- which is why the paper's
  Raster1 (bigger format) gets twice the cache of Raster2.
- **BackEnd**: colour conversion + output staging into the decoded
  frame buffer.  Fixed-size staging buffer, so both instances get the
  same allocation in the paper.

Tokens travel per *strip* (one row of 8x8 blocks).  The FIFO payload
traffic itself is generated by the channel (see
:mod:`repro.kpn.fifo`); programs only model their private work.
"""

from __future__ import annotations

import numpy as np

from repro.kpn.graph import FifoSpec, FrameBufferSpec, ProcessNetwork, TaskSpec
from repro.kpn.process import TaskContext
from repro.mem.trace import AccessBatch

__all__ = ["add_jpeg_decoder", "jpeg_strip_tokens"]

#: Pixel rows per strip (one row of 8x8 blocks).
STRIP_ROWS = 8


def jpeg_strip_tokens(height: int) -> int:
    """Number of strips a picture of ``height`` rows decodes into."""
    return max(1, height // STRIP_ROWS)


def frontend_program(ctx: TaskContext):
    """Bitstream parse + Huffman decode + dequantise, one strip per token."""
    p = ctx.params
    width, strips = p["width"], p["strips"]
    input_frame = ctx.frame(p["input_frame"])
    table_bytes = min(5 * 1024, ctx.bss.size)
    compressed_per_strip = width * STRIP_ROWS // 2  # ~0.5 byte/pixel
    for frame in range(p["frames"]):
        for strip in range(strips):
            offset = (
                (frame * strips + strip) * compressed_per_strip
            ) % max(1, input_frame.size - compressed_per_strip)
            yield ctx.compute(
                ctx.fetch(width * 14, loop_bytes=2048),
                ctx.stream(input_frame, offset, compressed_per_strip, elem=4),
                ctx.table(ctx.bss, n=width, entry_bytes=16,
                          table_bytes=table_bytes, skew=1.3),
                ctx.stream(ctx.stack, 0, 512, write=True),
                ctx.table(ctx.shared("appl.data"), n=16, entry_bytes=32,
                          table_bytes=1024),
                label="vld",
            )
            yield ctx.write("coef_out")


def idct_program(ctx: TaskContext):
    """8x8 inverse DCT: two passes over one reused block buffer."""
    p = ctx.params
    width, strips = p["width"], p["strips"]
    blocks = width // 8
    const_bytes = min(512, ctx.data.size)
    block_buf = min(256, ctx.heap.size)
    # Per block: read consts, two read+write passes over the buffer.
    per_block = AccessBatch.concat([
        ctx.stream(ctx.data, 0, const_bytes, elem=8),
        ctx.stream(ctx.heap, 0, block_buf, elem=4),
        ctx.stream(ctx.heap, 0, block_buf, elem=4, write=True),
        ctx.stream(ctx.heap, 0, block_buf, elem=4),
        ctx.stream(ctx.heap, 0, block_buf, elem=4, write=True),
    ])
    strip_batch = AccessBatch(
        addrs=np.tile(per_block.addrs, blocks),
        writes=np.tile(per_block.writes, blocks),
        instructions=blocks * 640,  # the 8x8 butterfly is compute heavy
    )
    idct = ctx.compute(ctx.fetch(blocks * 160, loop_bytes=1024),
                       strip_batch, label="idct")
    for _ in range(p["frames"] * strips):
        yield ctx.read("coef_in")
        yield idct
        yield ctx.write("pix_out")


def raster_program(ctx: TaskContext):
    """Block-to-raster reorder through width-proportional line buffers."""
    p = ctx.params
    width, strips = p["width"], p["strips"]
    # Working set: one strip of lines at 4 B/pixel staged twice
    # (block-order write, raster-order read), width-proportional.
    strip_bytes = min(width * STRIP_ROWS * 4, ctx.heap.size // 2)
    reread_bytes = strip_bytes
    raster = ctx.compute(
        ctx.fetch(width * 10, loop_bytes=2048),
        ctx.stream(ctx.heap, 0, strip_bytes, write=True),
        ctx.stream(ctx.heap, ctx.heap.size // 2, reread_bytes, write=True),
        ctx.stream(ctx.heap, 0, strip_bytes),
        ctx.stream(ctx.heap, ctx.heap.size // 2, reread_bytes),
        label="raster",
    )
    for _ in range(p["frames"] * strips):
        yield ctx.read("pix_in")
        yield raster
        for _ in range(p["lines_per_strip"]):
            yield ctx.write("line_out")


def backend_program(ctx: TaskContext):
    """Colour conversion + staging + write to the output frame buffer."""
    p = ctx.params
    width, strips = p["width"], p["strips"]
    output_frame = ctx.frame(p["output_frame"])
    staging = min(p.get("staging_bytes", 16 * 1024), ctx.heap.size)
    line_bytes = width * 2  # YUV 4:2:2 output pixels
    lines = p["lines_per_strip"]
    for frame in range(p["frames"]):
        for strip in range(strips):
            yield ctx.read("line_in", tokens=lines)
            out_offset = (
                (strip * STRIP_ROWS * line_bytes)
                % max(1, output_frame.size - STRIP_ROWS * line_bytes)
            )
            chunk = staging // max(1, strips)
            yield ctx.compute(
                ctx.fetch(width * 12, loop_bytes=2560),
                ctx.table(ctx.data, n=width // 2, entry_bytes=4,
                          table_bytes=min(4096, ctx.data.size)),
                # Rotating write+read of the staging buffer: across strips
                # the whole staging area stays live (its LRU footprint).
                ctx.stream(ctx.heap, (strip * chunk) % max(1, staging - chunk),
                           chunk, write=True),
                ctx.stream(ctx.heap, 0, staging, elem=64),
                ctx.stream(output_frame, out_offset, STRIP_ROWS * line_bytes,
                           write=True),
                ctx.table(ctx.shared("appl.bss"), n=16, entry_bytes=64,
                          table_bytes=2048),
                label="backend",
            )


def add_jpeg_decoder(
    network: ProcessNetwork,
    suffix: str,
    width: int,
    height: int,
    frames: int = 1,
    staging_bytes: int = 16 * 1024,
) -> None:
    """Add one JPEG decoder instance (tasks suffixed, e.g. ``IDCT1``).

    ``width``/``height`` control the picture format; Raster's working
    set scales with ``width``, which is how the two paper instances end
    up with different optimal allocations.
    """
    strips = jpeg_strip_tokens(height)
    lines_per_strip = STRIP_ROWS
    common = {
        "width": width,
        "strips": strips,
        "frames": frames,
        "lines_per_strip": lines_per_strip,
    }
    input_frame = f"jpeg_in{suffix}"
    output_frame = f"jpeg_out{suffix}"
    network.add_frame_buffer(FrameBufferSpec(
        input_frame, max(16 * 1024, width * height),
        window_bytes=width * STRIP_ROWS,
    ))
    network.add_frame_buffer(FrameBufferSpec(
        output_frame, max(16 * 1024, width * height * 2),
        window_bytes=width * STRIP_ROWS * 2,
    ))

    network.add_task(TaskSpec(
        name=f"FrontEnd{suffix}", program=frontend_program,
        params=dict(common, input_frame=input_frame),
        code_bytes=8 * 1024, data_bytes=2 * 1024, bss_bytes=5 * 1024,
        stack_bytes=4 * 1024, heap_bytes=4 * 1024,
    ))
    network.add_task(TaskSpec(
        name=f"IDCT{suffix}", program=idct_program, params=dict(common),
        code_bytes=2 * 1024, data_bytes=512, bss_bytes=512,
        stack_bytes=1024, heap_bytes=512,
    ))
    network.add_task(TaskSpec(
        name=f"Raster{suffix}", program=raster_program, params=dict(common),
        code_bytes=6 * 1024, data_bytes=2 * 1024, bss_bytes=2 * 1024,
        stack_bytes=4 * 1024, heap_bytes=2 * width * STRIP_ROWS * 4,
    ))
    network.add_task(TaskSpec(
        name=f"BackEnd{suffix}", program=backend_program,
        params=dict(common, output_frame=output_frame,
                    staging_bytes=staging_bytes),
        code_bytes=8 * 1024, data_bytes=4 * 1024, bss_bytes=2 * 1024,
        stack_bytes=4 * 1024, heap_bytes=staging_bytes,
    ))

    # One strip of blocks per token; coefficients are entropy-sparse
    # (~60% of the 8x8 x 2B full size), pixels are full blocks.
    coef_token = width // 8 * 96
    pix_token = width // 8 * 128
    line_token = width * 2  # YUV 4:2:2 line
    network.add_fifo(FifoSpec(
        name=f"coef{suffix}", producer=f"FrontEnd{suffix}",
        producer_port="coef_out", consumer=f"IDCT{suffix}",
        consumer_port="coef_in", token_bytes=coef_token, capacity_tokens=2,
    ))
    network.add_fifo(FifoSpec(
        name=f"pix{suffix}", producer=f"IDCT{suffix}",
        producer_port="pix_out", consumer=f"Raster{suffix}",
        consumer_port="pix_in", token_bytes=pix_token, capacity_tokens=2,
    ))
    network.add_fifo(FifoSpec(
        name=f"lines{suffix}", producer=f"Raster{suffix}",
        producer_port="line_out", consumer=f"BackEnd{suffix}",
        consumer_port="line_in", token_bytes=line_token,
        capacity_tokens=2 * lines_per_strip,
    ))
