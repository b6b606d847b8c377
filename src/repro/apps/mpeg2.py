"""Parallel MPEG-2 video decoder task graph (13 tasks).

The paper's second application is the MPEG-2 decoder case study of van
der Wolf et al. (CODES'99 -- reference [11]).  Table 2 names 13 tasks:

``input, vld, hdr, isiq, memMan, idct, add, decMV, predict, predictRD,
writeMB, store, output``

The network wired here follows the natural decoder dataflow:

- **input** streams the bitstream from its buffer into chunks;
- **vld** does variable-length decoding (Zipf table lookups), feeding
  headers to **hdr**, coefficient blocks to **isiq** and motion codes
  to **decMV**;
- **hdr** parses sequence/picture state (quant matrices, GOP state --
  the paper gives it a surprisingly large partition, so the state is
  sizeable) and informs **memMan**, the frame-buffer manager;
- **isiq** (inverse scan + inverse quantisation) and **idct** transform
  coefficient blocks; the spatial path continues to **add**;
- **decMV** reconstructs motion vectors for **predict**, which gathers
  motion-compensated reference blocks from the reference frame buffer
  (the heavy reader of the decoder); **predictRD** coordinates the
  reference reads (light);
- **add** sums residual + prediction, **writeMB** stores macroblocks
  into the reconstruction frame, **store** copies finished pictures to
  the display buffer and **output** streams them out.

Work is expressed per *macroblock row* (16 pixel rows).
"""

from __future__ import annotations

import numpy as np

from repro.kpn.graph import FifoSpec, FrameBufferSpec, ProcessNetwork, TaskSpec
from repro.kpn.process import TaskContext
from repro.mem.trace import AccessBatch

__all__ = ["add_mpeg2_decoder"]

#: Pixel rows per macroblock row.
MB_ROWS = 16


def _mb_rows(params: dict) -> int:
    return max(1, params["height"] // MB_ROWS)


def _mbs_per_row(params: dict) -> int:
    return max(1, params["width"] // 16)


def input_program(ctx: TaskContext):
    """Stream the bitstream buffer into chunk tokens."""
    p = ctx.params
    src = ctx.frame("mpeg_bitstream")
    chunk = p["width"] * MB_ROWS // 6  # ~0.17 byte/pixel compressed
    for frame in range(p["frames"]):
        for row in range(_mb_rows(p)):
            offset = (
                (frame * _mb_rows(p) + row) * chunk
            ) % max(1, src.size - chunk)
            yield ctx.compute(
                ctx.fetch(chunk // 2, loop_bytes=768),
                ctx.stream(src, offset, chunk, elem=4),
                label="read-bitstream",
            )
            yield ctx.write("bits_out")


def vld_program(ctx: TaskContext):
    """Variable-length decode: Zipf-hot Huffman tables."""
    p = ctx.params
    table_bytes = min(5 * 1024, ctx.bss.size)
    lookups = p["width"] * 3
    for frame in range(p["frames"]):
        for row in range(_mb_rows(p)):
            yield ctx.read("bits_in")
            yield ctx.compute(
                ctx.fetch(lookups * 3, loop_bytes=2048),
                ctx.table(ctx.bss, n=lookups, entry_bytes=16,
                          table_bytes=table_bytes, skew=1.3),
                ctx.stream(ctx.stack, 0, 512, write=True),
                label="vld",
            )
            if row == 0:
                yield ctx.write("hdr_out")
            yield ctx.write("coef_out")
            yield ctx.write("mv_out")


def hdr_program(ctx: TaskContext):
    """Header parsing: sequence/picture state and quant matrices."""
    p = ctx.params
    state_bytes = min(p.get("hdr_state_bytes", 28 * 1024), ctx.heap.size)
    for frame in range(p["frames"]):
        yield ctx.read("hdr_in")
        yield ctx.compute(
            ctx.fetch(4000, loop_bytes=2048),
            ctx.stream(ctx.heap, 0, state_bytes),
            ctx.stream(ctx.heap, 0, state_bytes // 2, write=True),
            ctx.table(ctx.shared("appl.data"), n=64, entry_bytes=32,
                      table_bytes=2048),
            label="parse-headers",
        )
        yield ctx.write("pic_out")


def memman_program(ctx: TaskContext):
    """Frame-buffer manager: tiny control structures."""
    p = ctx.params
    manage = ctx.compute(
        ctx.fetch(600, loop_bytes=512),
        ctx.stream(ctx.heap, 0, min(512, ctx.heap.size), write=True),
        label="manage-frames",
    )
    for frame in range(p["frames"]):
        yield ctx.read("pic_in")
        yield manage
        for _ in range(_mb_rows(p)):
            yield ctx.write("fbinfo_out")


def isiq_program(ctx: TaskContext):
    """Inverse scan + inverse quantisation of coefficient blocks."""
    p = ctx.params
    mbs = _mbs_per_row(p)
    matrices = min(p.get("isiq_state_bytes", 12 * 1024), ctx.heap.size)
    for _ in range(p["frames"] * _mb_rows(p)):
        yield ctx.read("coef_in")
        yield ctx.compute(
            ctx.fetch(mbs * 700, loop_bytes=1792),
            ctx.stream(ctx.heap, 0, matrices),
            ctx.table(ctx.heap, n=mbs * 64, entry_bytes=4,
                      table_bytes=matrices // 2),
            label="isiq",
        )
        yield ctx.write("dct_out")


def idct_program(ctx: TaskContext):
    """8x8 IDCT per block, reused block buffer + tables."""
    p = ctx.params
    mbs = _mbs_per_row(p)
    blocks = mbs * 6  # 4:2:0 macroblock = 6 blocks
    const_bytes = min(4 * 1024, ctx.data.size)
    block_buf = min(512, ctx.heap.size)
    per_block = AccessBatch.concat([
        ctx.stream(ctx.data, 0, const_bytes, elem=16),
        ctx.stream(ctx.heap, 0, block_buf, elem=4),
        ctx.stream(ctx.heap, 0, block_buf, elem=4, write=True),
    ])
    idct = ctx.compute(
        ctx.fetch(blocks * 150, loop_bytes=1536),
        AccessBatch(
            addrs=np.tile(per_block.addrs, blocks),
            writes=np.tile(per_block.writes, blocks),
            instructions=blocks * 600,
        ),
        label="idct",
    )
    for _ in range(p["frames"] * _mb_rows(p)):
        yield ctx.read("dct_in")
        yield idct
        yield ctx.write("residual_out")


def decmv_program(ctx: TaskContext):
    """Motion-vector reconstruction with per-row predictor arrays."""
    p = ctx.params
    mbs = _mbs_per_row(p)
    mv_state = min(p.get("mv_state_bytes", 11 * 1024), ctx.heap.size)
    decode = ctx.compute(
        ctx.fetch(mbs * 120, loop_bytes=1024),
        ctx.stream(ctx.heap, 0, mv_state),
        ctx.stream(ctx.heap, 0, mv_state // 2, write=True),
        label="decode-mv",
    )
    for _ in range(p["frames"] * _mb_rows(p)):
        yield ctx.read("mv_in")
        yield decode
        yield ctx.write("vectors_out")


def predict_program(ctx: TaskContext):
    """Motion compensation: gather reference blocks, interpolate.

    B-frame style bidirectional prediction: every macroblock fetches a
    17x17 block from *both* reference frames, and half-pel
    interpolation makes two passes over each fetched block (horizontal
    + vertical filter).  The motion vectors spread around the current
    macroblock row, so consecutive rows re-read overlapping reference
    rows -- reuse that survives in an adequately sized partition but is
    washed out of a shared cache between rows.
    """
    p = ctx.params
    mbs = _mbs_per_row(p)
    width = p["width"]
    refs = (ctx.frame("mpeg_ref0"), ctx.frame("mpeg_ref1"))
    interp = min(p.get("interp_bytes", 24 * 1024), ctx.heap.size)
    row_stride = width
    max_y = p["ref_height"] - 17
    for frame in range(p["frames"]):
        for row in range(_mb_rows(p)):
            yield ctx.read("vectors_in")
            yield ctx.read("refsel_in")
            base_y = min(row * MB_ROWS, max_y)
            spread = 8
            ys = ctx.rng.integers(
                max(0, base_y - spread), min(max_y, base_y + spread) + 1,
                size=mbs,
            )
            xs = ctx.rng.integers(0, max(1, width - 17), size=mbs)
            positions = list(zip(xs, ys))
            fwd = ctx.gather(refs[0], row_stride, positions, 17, 17)
            bwd = ctx.gather(refs[1], row_stride, positions, 17, 17)
            yield ctx.compute(
                ctx.fetch(mbs * 900, loop_bytes=2048),
                # Three filter passes per reference: horizontal,
                # vertical and the bidirectional average.
                fwd, fwd, fwd, bwd, bwd, bwd,
                ctx.stream(ctx.heap, 0, interp, write=True),
                ctx.stream(ctx.heap, 0, interp, elem=16),
                label="motion-comp",
            )
            yield ctx.write("pred_out")


def predictrd_program(ctx: TaskContext):
    """Reference-read coordinator: light bookkeeping."""
    p = ctx.params
    ref_read = ctx.compute(
        ctx.fetch(300, loop_bytes=512),
        ctx.stream(ctx.heap, 0, min(1024, ctx.heap.size), write=True),
        label="ref-read",
    )
    for _ in range(p["frames"] * _mb_rows(p)):
        yield ctx.read("fbinfo_in")
        yield ref_read
        yield ctx.write("refsel_out")


def add_program(ctx: TaskContext):
    """Residual + prediction summation through line staging."""
    p = ctx.params
    width = p["width"]
    staging = min(2 * width * 4, ctx.heap.size)
    add = ctx.compute(
        ctx.fetch(width * 8, loop_bytes=1280),
        ctx.stream(ctx.heap, 0, staging),
        ctx.stream(ctx.heap, 0, staging, write=True),
        label="add",
    )
    for _ in range(p["frames"] * _mb_rows(p)):
        yield ctx.read("residual_in")
        yield ctx.read("pred_in")
        yield add
        yield ctx.write("recon_out")


def writemb_program(ctx: TaskContext):
    """Store reconstructed macroblocks into the recon frame."""
    p = ctx.params
    width = p["width"]
    recon = ctx.frame("mpeg_recon")
    staging = min(p.get("writemb_bytes", 11 * 1024), ctx.heap.size)
    mb_row_bytes = width * MB_ROWS
    for frame in range(p["frames"]):
        for row in range(_mb_rows(p)):
            yield ctx.read("recon_in")
            offset = (row * mb_row_bytes) % max(1, recon.size - mb_row_bytes)
            yield ctx.compute(
                ctx.fetch(width * 6, loop_bytes=1024),
                ctx.stream(ctx.heap, 0, staging),
                ctx.stream(recon, offset, mb_row_bytes, write=True),
                label="write-mb",
            )
            yield ctx.write("done_out")


def store_program(ctx: TaskContext):
    """Copy the finished picture into the display buffer."""
    p = ctx.params
    width = p["width"]
    recon = ctx.frame("mpeg_recon")
    display = ctx.frame("mpeg_display")
    mb_row_bytes = width * MB_ROWS
    for frame in range(p["frames"]):
        for row in range(_mb_rows(p)):
            yield ctx.read("done_in")
            offset = (row * mb_row_bytes) % max(1, recon.size - mb_row_bytes)
            yield ctx.compute(
                ctx.fetch(width * 2, loop_bytes=512),
                ctx.stream(recon, offset, mb_row_bytes),
                ctx.stream(display, offset, mb_row_bytes, write=True),
                label="store",
            )
            yield ctx.write("frame_out")


def output_program(ctx: TaskContext):
    """Stream the display buffer out of the system."""
    p = ctx.params
    width = p["width"]
    display = ctx.frame("mpeg_display")
    mb_row_bytes = width * MB_ROWS
    for frame in range(p["frames"]):
        for row in range(_mb_rows(p)):
            yield ctx.read("frame_in")
            offset = (row * mb_row_bytes) % max(1, display.size - mb_row_bytes)
            yield ctx.compute(
                ctx.fetch(width, loop_bytes=512),
                ctx.stream(display, offset, mb_row_bytes, elem=8),
                label="output",
            )


def add_mpeg2_decoder(
    network: ProcessNetwork,
    width: int = 352,
    height: int = 48,
    ref_height: int = 288,
    frames: int = 1,
) -> None:
    """Add the 13-task MPEG-2 decoder.

    ``height`` is the processed slice per frame (rows actually decoded,
    keeping runs short); ``ref_height`` sizes the reference/display
    frame buffers to the real picture height so motion compensation
    spreads over a realistic address range.
    """
    params = {
        "width": width,
        "height": height,
        "ref_height": ref_height,
        "frames": frames,
    }
    frame_bytes = max(16 * 1024, width * ref_height)
    # Reference frames are re-read by motion compensation across the
    # whole frame (and across frames -- the same references serve many
    # predictions), so their live window is the full frame: at CIF
    # size a reference fits a partition, which is what makes the
    # decoder's partitioned miss rate collapse.  Reconstruction and
    # display are written/copied strip-wise; their window is a strip.
    mc_window = frame_bytes
    strip_window = min(frame_bytes, MB_ROWS * width)
    network.add_frame_buffer(FrameBufferSpec(
        "mpeg_bitstream", max(32 * 1024, width * ref_height // 2),
        window_bytes=4 * 1024))
    network.add_frame_buffer(FrameBufferSpec(
        "mpeg_ref0", frame_bytes, window_bytes=mc_window))
    network.add_frame_buffer(FrameBufferSpec(
        "mpeg_ref1", frame_bytes, window_bytes=mc_window))
    network.add_frame_buffer(FrameBufferSpec(
        "mpeg_recon", frame_bytes, window_bytes=strip_window))
    network.add_frame_buffer(FrameBufferSpec(
        "mpeg_display", frame_bytes, window_bytes=strip_window))

    mbs = max(1, width // 16)
    specs = [
        TaskSpec("input", input_program, params=dict(params),
                 code_bytes=3 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=2 * 1024, heap_bytes=2 * 1024),
        TaskSpec("vld", vld_program, params=dict(params),
                 code_bytes=2 * 1024, data_bytes=512, bss_bytes=5 * 1024,
                 stack_bytes=1024, heap_bytes=512),
        TaskSpec("hdr", hdr_program, params=dict(params),
                 code_bytes=3 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=2 * 1024, heap_bytes=26 * 1024),
        TaskSpec("isiq", isiq_program, params=dict(params),
                 code_bytes=3 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=1024, heap_bytes=11 * 1024),
        TaskSpec("memMan", memman_program, params=dict(params),
                 code_bytes=2 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=2 * 1024, heap_bytes=1024),
        TaskSpec("idct", idct_program, params=dict(params),
                 code_bytes=4 * 1024, data_bytes=4 * 1024, bss_bytes=1024,
                 stack_bytes=2 * 1024, heap_bytes=1024),
        TaskSpec("add", add_program, params=dict(params),
                 code_bytes=3 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=2 * 1024, heap_bytes=2 * width * 4),
        TaskSpec("decMV", decmv_program, params=dict(params),
                 code_bytes=2 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=1024, heap_bytes=11 * 1024),
        TaskSpec("predict", predict_program, params=dict(params),
                 code_bytes=3 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=1024, heap_bytes=24 * 1024),
        TaskSpec("predictRD", predictrd_program, params=dict(params),
                 code_bytes=2 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=2 * 1024, heap_bytes=2 * 1024),
        TaskSpec("writeMB", writemb_program, params=dict(params),
                 code_bytes=2 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=1024, heap_bytes=11 * 1024),
        TaskSpec("store", store_program, params=dict(params),
                 code_bytes=2 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=2 * 1024, heap_bytes=2 * 1024),
        TaskSpec("output", output_program, params=dict(params),
                 code_bytes=2 * 1024, data_bytes=1024, bss_bytes=1024,
                 stack_bytes=2 * 1024, heap_bytes=1024),
    ]
    for spec in specs:
        network.add_task(spec)

    mb_rows = max(1, height // MB_ROWS)
    chunk = width * MB_ROWS // 6
    # Coefficient/residual tokens carry only the coded blocks of a
    # macroblock row (~half the blocks of 4:2:0 material are coded).
    coef_token = mbs * 384
    fifos = [
        # name, producer, pport, consumer, cport, token_bytes, capacity
        ("m2_bits", "input", "bits_out", "vld", "bits_in", chunk, 2),
        ("m2_hdr", "vld", "hdr_out", "hdr", "hdr_in", 256, 2),
        ("m2_coef", "vld", "coef_out", "isiq", "coef_in", coef_token, 2),
        ("m2_mv", "vld", "mv_out", "decMV", "mv_in", mbs * 16, 2),
        ("m2_pic", "hdr", "pic_out", "memMan", "pic_in", 128, 2),
        ("m2_fbinfo", "memMan", "fbinfo_out", "predictRD", "fbinfo_in",
         64, max(2, mb_rows)),
        ("m2_dct", "isiq", "dct_out", "idct", "dct_in", coef_token, 2),
        ("m2_vec", "decMV", "vectors_out", "predict", "vectors_in",
         mbs * 16, 2),
        ("m2_refsel", "predictRD", "refsel_out", "predict", "refsel_in",
         64, 2),
        ("m2_res", "idct", "residual_out", "add", "residual_in",
         coef_token, 2),
        ("m2_pred", "predict", "pred_out", "add", "pred_in", mbs * 192, 2),
        ("m2_recon", "add", "recon_out", "writeMB", "recon_in",
         mbs * 192, 2),
        ("m2_done", "writeMB", "done_out", "store", "done_in", 64, 2),
        ("m2_frame", "store", "frame_out", "output", "frame_in", 64, 2),
    ]
    for name, producer, pport, consumer, cport, token, capacity in fifos:
        network.add_fifo(FifoSpec(
            name=name, producer=producer, producer_port=pport,
            consumer=consumer, consumer_port=cport,
            token_bytes=token, capacity_tokens=capacity,
        ))
