"""Line-based Canny edge detection task graph (7 tasks).

The paper's first application runs one "line based canny edge detection
algorithm" next to the two JPEG decoders.  Its Table 1 names the tasks:

``Fr. canny -> LowPass -> HorizSobel -> VertSobel -> HorizNMS ->
VertNMS -> MaxTreshold``  (the paper's spelling of *Treshold*)

Memory behaviour per stage (all line-based, one strip of rows per
token):

- **Fr.canny** streams the source picture out of its frame buffer into
  line tokens -- a pure streamer with a small private footprint.
- **LowPass** is a 5x5 Gaussian over 4-byte intermediate rows: the
  largest sliding window of the chain, hence the paper's largest canny
  allocation.
- **HorizSobel / VertSobel** are 3x3 gradient operators over 2-byte
  rows; VertSobel additionally maintains the gradient-direction rows
  used later by NMS, doubling its live window.
- **HorizNMS / VertNMS** perform non-maximum suppression reading the
  gradient and direction windows.
- **MaxTreshold** does the final hysteresis thresholding with a
  histogram table, writing the edge map to the output frame buffer.
"""

from __future__ import annotations

from repro.kpn.graph import FifoSpec, FrameBufferSpec, ProcessNetwork, TaskSpec
from repro.kpn.process import TaskContext

__all__ = ["add_canny_detector"]

#: Rows per strip token.
STRIP_ROWS = 8


def _strips(params: dict) -> int:
    return max(1, params["height"] // STRIP_ROWS)


def frontend_program(ctx: TaskContext):
    """Stream the source picture into line-strip tokens."""
    p = ctx.params
    width = p["width"]
    src = ctx.frame(p["input_frame"])
    strip_bytes = width * STRIP_ROWS
    for frame in range(p["frames"]):
        for strip in range(_strips(p)):
            offset = (
                (frame * _strips(p) + strip) * strip_bytes
            ) % max(1, src.size - strip_bytes)
            yield ctx.compute(
                ctx.fetch(width * 4, loop_bytes=1024),
                ctx.stream(src, offset, strip_bytes, elem=4),
                ctx.stream(ctx.stack, 0, 256, write=True),
                label="read-picture",
            )
            yield ctx.write("out")


def lowpass_program(ctx: TaskContext):
    """5x5 Gaussian smoothing over 2-byte intermediate rows."""
    p = ctx.params
    width = p["width"]
    row_stride = width * 2
    gauss = ctx.compute(
        ctx.fetch(width * 6, loop_bytes=1536),
        ctx.stencil(src=ctx.heap, dst=ctx.bss, row_stride=row_stride,
                    width=width, rows=STRIP_ROWS, taps_x=5, taps_y=5,
                    elem=2),
        label="gauss5x5",
    )
    for _ in range(p["frames"] * _strips(p)):
        yield ctx.read("in")
        yield gauss
        yield ctx.write("out")


def sobel_program(ctx: TaskContext):
    """3x3 Sobel gradient; VertSobel keeps direction rows too."""
    p = ctx.params
    width = p["width"]
    row_stride = width
    extra_window = p.get("direction_rows", False)
    batches = [
        ctx.fetch(width * 5, loop_bytes=1280),
        ctx.stencil(src=ctx.heap, dst=ctx.bss, row_stride=row_stride,
                    width=width, rows=STRIP_ROWS, taps_x=3, taps_y=3,
                    elem=1),
    ]
    if extra_window:
        # Gradient-direction rows: second window of the same shape.
        batches.append(
            ctx.stencil(src=ctx.data, dst=ctx.bss, row_stride=row_stride,
                        width=width, rows=STRIP_ROWS, taps_x=3, taps_y=3,
                        elem=1)
        )
    sobel = ctx.compute(*batches, label="sobel3x3")
    for _ in range(p["frames"] * _strips(p)):
        yield ctx.read("in")
        yield sobel
        yield ctx.write("out")


def nms_program(ctx: TaskContext):
    """Non-maximum suppression over gradient + direction windows."""
    p = ctx.params
    width = p["width"]
    row_stride = width
    nms = ctx.compute(
        ctx.fetch(width * 4, loop_bytes=1024),
        ctx.stencil(src=ctx.heap, dst=ctx.bss, row_stride=row_stride,
                    width=width, rows=STRIP_ROWS, taps_x=3, taps_y=1,
                    elem=1),
        ctx.stream(ctx.data, 0, min(width, ctx.data.size)),
        label="nms",
    )
    for _ in range(p["frames"] * _strips(p)):
        yield ctx.read("in")
        yield nms
        yield ctx.write("out")


def threshold_program(ctx: TaskContext):
    """Hysteresis thresholding with a histogram; writes the edge map."""
    p = ctx.params
    width = p["width"]
    dst = ctx.frame(p["output_frame"])
    strip_bytes = width * STRIP_ROWS
    hist_bytes = min(2048, ctx.bss.size)
    for frame in range(p["frames"]):
        for strip in range(_strips(p)):
            yield ctx.read("in")
            offset = (strip * strip_bytes) % max(1, dst.size - strip_bytes)
            yield ctx.compute(
                ctx.fetch(width * 4, loop_bytes=1024),
                ctx.table(ctx.bss, n=width, entry_bytes=8,
                          table_bytes=hist_bytes, skew=1.1),
                ctx.stream(dst, offset, strip_bytes, write=True),
                ctx.table(ctx.shared("appl.data"), n=8, entry_bytes=32,
                          table_bytes=512),
                label="threshold",
            )


def add_canny_detector(
    network: ProcessNetwork,
    width: int,
    height: int,
    frames: int = 1,
) -> None:
    """Add the 7-task Canny chain with the paper's task names."""
    params = {"width": width, "height": height, "frames": frames}
    network.add_frame_buffer(FrameBufferSpec(
        "canny_in", max(16 * 1024, width * height),
        window_bytes=width * STRIP_ROWS,
    ))
    network.add_frame_buffer(FrameBufferSpec(
        "canny_out", max(16 * 1024, width * height),
        window_bytes=width * STRIP_ROWS,
    ))

    # Window sizes drive each task's private footprint: the heap holds
    # the live source window, data/bss the secondary rows.  Rows are
    # 2-byte smoothed values for LowPass and 1-byte gradient magnitudes
    # afterwards, which keeps every stage inside its paper allocation.
    gauss_window = (STRIP_ROWS + 5) * width * 2
    sobel_window = (STRIP_ROWS + 3) * width
    nms_window = (STRIP_ROWS + 1) * width

    network.add_task(TaskSpec(
        name="Fr.canny", program=frontend_program,
        params=dict(params, input_frame="canny_in"),
        code_bytes=4 * 1024, data_bytes=1024, bss_bytes=1024,
        stack_bytes=2 * 1024, heap_bytes=2 * 1024,
    ))
    network.add_task(TaskSpec(
        name="LowPass", program=lowpass_program, params=dict(params),
        code_bytes=4 * 1024, data_bytes=1024,
        bss_bytes=STRIP_ROWS * width * 2,
        stack_bytes=2 * 1024, heap_bytes=gauss_window,
    ))
    network.add_task(TaskSpec(
        name="HorizSobel", program=sobel_program, params=dict(params),
        code_bytes=4 * 1024, data_bytes=1024,
        bss_bytes=STRIP_ROWS * width,
        stack_bytes=2 * 1024, heap_bytes=sobel_window,
    ))
    network.add_task(TaskSpec(
        name="VertSobel", program=sobel_program,
        params=dict(params, direction_rows=True),
        code_bytes=4 * 1024, data_bytes=sobel_window,
        bss_bytes=STRIP_ROWS * width,
        stack_bytes=2 * 1024, heap_bytes=sobel_window,
    ))
    network.add_task(TaskSpec(
        name="HorizNMS", program=nms_program, params=dict(params),
        code_bytes=4 * 1024, data_bytes=width,
        bss_bytes=STRIP_ROWS * width,
        stack_bytes=2 * 1024, heap_bytes=nms_window,
    ))
    network.add_task(TaskSpec(
        name="VertNMS", program=nms_program, params=dict(params),
        code_bytes=4 * 1024, data_bytes=width,
        bss_bytes=STRIP_ROWS * width,
        stack_bytes=2 * 1024, heap_bytes=nms_window,
    ))
    network.add_task(TaskSpec(
        name="MaxTreshold", program=threshold_program,
        params=dict(params, output_frame="canny_out"),
        code_bytes=4 * 1024, data_bytes=1024, bss_bytes=2 * 1024,
        stack_bytes=2 * 1024, heap_bytes=2 * 1024,
    ))

    strip_token = width * STRIP_ROWS  # one strip of 1-byte pixels
    chain = [
        ("Fr.canny", "LowPass", "cny_raw"),
        ("LowPass", "HorizSobel", "cny_smooth"),
        ("HorizSobel", "VertSobel", "cny_gx"),
        ("VertSobel", "HorizNMS", "cny_gxy"),
        ("HorizNMS", "VertNMS", "cny_nms1"),
        ("VertNMS", "MaxTreshold", "cny_nms2"),
    ]
    for producer, consumer, fifo_name in chain:
        network.add_fifo(FifoSpec(
            name=fifo_name, producer=producer, producer_port="out",
            consumer=consumer, consumer_port="in",
            token_bytes=strip_token, capacity_tokens=2,
        ))
