#!/usr/bin/env python
"""Make *your own* application compositional.

Shows the full authoring workflow on a new application (not one of the
paper's): a small software-defined-radio-style chain

    tuner -> demod -> deframe -> audio
              \\-> spectrum (second consumer via its own FIFO)

Each task program is a plain generator over the TaskContext API; memory
behaviour is declared with the pattern kit.  Pattern batches are
shared and read-only (equal calls return the same batch), so build new
arrays rather than writing into one; an op whose every part is
loop-invariant can be built once before the loop and yielded on every
iteration, as ``demod`` and ``spectrum`` do.  The compositional method
then profiles, optimizes and validates it exactly as it does the paper
workloads.  To sweep a custom application over platform or method
axes, register its builder with
:func:`repro.exp.register_workload` and expand a grid with
:func:`repro.exp.sweep` (see ``examples/design_space_exploration.py``).

Run:  python examples/custom_application.py
"""

from repro.analysis import figure3_report, headline_report, table_report
from repro.cake import CakeConfig
from repro.core import CompositionalMethod, MethodConfig
from repro.kpn import FifoSpec, FrameBufferSpec, ProcessNetwork, TaskSpec

SAMPLES = 48  # tokens processed per run


def tuner(ctx):
    """Streams IF samples from the capture buffer, light filtering."""
    capture = ctx.frame("capture")
    chunk = 4096
    for i in range(SAMPLES):
        offset = (i * chunk) % (capture.size - chunk)
        yield ctx.compute(
            ctx.fetch(3000, loop_bytes=1024),
            ctx.stream(capture, offset, chunk),
            ctx.stream(ctx.heap, 0, min(2048, ctx.heap.size), write=True),
        )
        yield ctx.write("iq_out")
        yield ctx.write("iq_tap")


def demod(ctx):
    """Polyphase demodulator: large coefficient bank, hot reuse."""
    bank = min(12 * 1024, ctx.data.size)
    filter_bank = ctx.compute(
        ctx.fetch(8000, loop_bytes=2048),
        ctx.stream(ctx.data, 0, bank),
        ctx.stream(ctx.heap, 0, min(4096, ctx.heap.size), write=True),
    )
    for _ in range(SAMPLES):
        yield ctx.read("iq_in")
        yield filter_bank
        yield ctx.write("sym_out")


def deframe(ctx):
    """Deframer/decoder: data-dependent code-table lookups."""
    for _ in range(SAMPLES):
        yield ctx.read("sym_in")
        yield ctx.compute(
            ctx.fetch(4000, loop_bytes=1536),
            ctx.table(ctx.bss, n=800, entry_bytes=16,
                      table_bytes=min(6 * 1024, ctx.bss.size), skew=1.25),
        )
        yield ctx.write("pcm_out")


def audio(ctx):
    """Audio sink: resampling into the output ring."""
    out = ctx.frame("audio_out")
    chunk = 2048
    for i in range(SAMPLES):
        yield ctx.read("pcm_in")
        offset = (i * chunk) % (out.size - chunk)
        yield ctx.compute(
            ctx.fetch(2500, loop_bytes=1024),
            ctx.stream(out, offset, chunk, write=True),
        )


def spectrum(ctx):
    """FFT-based spectrum display: blocked butterflies over a window."""
    window = min(16 * 1024, ctx.heap.size)
    fft = ctx.compute(
        ctx.fetch(6000, loop_bytes=2048),
        ctx.block(ctx.heap, row_stride=1024, x0=0, y0=0,
                  width=1024, height=window // 1024, elem=1, passes=2),
    )
    for _ in range(SAMPLES):
        yield ctx.read("iq_in")
        yield fft


def build_sdr_network() -> ProcessNetwork:
    """The application description (what YAPI calls the Y-chart)."""
    network = ProcessNetwork("sdr", appl_data_bytes=4096,
                             appl_bss_bytes=4096)
    network.add_frame_buffer(FrameBufferSpec("capture", 256 * 1024,
                                             window_bytes=8 * 1024))
    network.add_frame_buffer(FrameBufferSpec("audio_out", 128 * 1024,
                                             window_bytes=4 * 1024))
    network.add_task(TaskSpec("tuner", tuner, heap_bytes=4 * 1024))
    network.add_task(TaskSpec("demod", demod, data_bytes=12 * 1024,
                              heap_bytes=8 * 1024))
    network.add_task(TaskSpec("deframe", deframe, bss_bytes=6 * 1024))
    network.add_task(TaskSpec("audio", audio, heap_bytes=4 * 1024))
    network.add_task(TaskSpec("spectrum", spectrum, heap_bytes=16 * 1024))
    network.add_fifo(FifoSpec("iq", "tuner", "iq_out", "demod", "iq_in",
                              token_bytes=2048, capacity_tokens=2))
    network.add_fifo(FifoSpec("iq2", "tuner", "iq_tap", "spectrum", "iq_in",
                              token_bytes=2048, capacity_tokens=2))
    network.add_fifo(FifoSpec("sym", "demod", "sym_out", "deframe", "sym_in",
                              token_bytes=1024, capacity_tokens=2))
    network.add_fifo(FifoSpec("pcm", "deframe", "pcm_out", "audio", "pcm_in",
                              token_bytes=512, capacity_tokens=4))
    return network


def main():
    method = CompositionalMethod(
        build_sdr_network,
        CakeConfig(n_cpus=2),
        MethodConfig(sizes=[1, 2, 4, 8, 16]),
    )
    report = method.run()
    print(table_report(report, "SDR partition plan"))
    print()
    print(headline_report(report))
    print()
    print(figure3_report(report, "SDR compositionality"))


if __name__ == "__main__":
    main()
