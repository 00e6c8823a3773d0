"""Peak-memory and throughput benchmark of the streaming trace ingest.

Converts one synthetic ramulator2-style ASCII trace to ``.wtrc`` twice --
through the in-memory path (``ingest_trace_file`` + ``save_trace``, the
pre-streaming behaviour) and through the bounded-memory streaming path
(``stream_ingest_to_wtrc``) -- and records, for each, the wall clock, the
ingest throughput (input lines per second) and the tracemalloc peak.  The
two output files must be byte-identical; the streamed peak must not scale
with the trace (it is bounded by the synthesis quantum plus the unique-line
state).

Results land in ``BENCH_streaming_ingest.json``, which CI uploads as an
artifact alongside the other ``BENCH_*.json`` perf trajectories.

Both paths share one synthesis quantum (``REPRO_BENCH_INGEST_CHUNK_LINES``,
default 8192 -- smaller than the library default so the quantum's fixed
scratch does not mask the trace-proportional cost being measured; the
outputs stay byte-identical because the quantum is the same on both sides).

Environment knobs: ``REPRO_BENCH_INGEST_LINES`` sets the input trace's
access count (default 150000).
"""

import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.bench import BenchSpec, Gate, run_once, write_json, write_result
from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.evaluation import format_series_table
from repro.evaluation.runner import evaluate_trace
from repro.traces.ingest import ingest_trace_file, stream_ingest_to_wtrc
from repro.traces.store import load_trace, read_trace_header, save_trace

# tracemalloc peaks are near-deterministic for a fixed input size (40 %
# headroom covers Python/numpy version drift); throughput only gates
# catastrophic slowdowns -- CI runner hardware varies.
BENCHMARK = BenchSpec(
    figure="streaming",
    title="Streaming vs in-memory trace ingest (peak memory + throughput)",
    cost=4.6,
    perf_artifacts=("streaming_ingest.txt", "BENCH_streaming_ingest.json"),
    env=("REPRO_BENCH_INGEST_LINES", "REPRO_BENCH_INGEST_CHUNK_LINES"),
    gates=(
        Gate(
            artifact="BENCH_streaming_ingest.json",
            metric="streamed_peak_bytes",
            direction="lower",
            tolerance_pct=40.0,
            context=("input_lines", "synthesis_chunk_lines"),
        ),
        Gate(
            artifact="BENCH_streaming_ingest.json",
            metric="peak_ratio",
            direction="higher",
            tolerance_pct=30.0,
            context=("input_lines", "synthesis_chunk_lines"),
        ),
        Gate(
            artifact="BENCH_streaming_ingest.json",
            metric="streamed_lines_per_s",
            direction="higher",
            tolerance_pct=75.0,
            context=("input_lines", "synthesis_chunk_lines"),
        ),
        Gate(
            artifact="BENCH_streaming_ingest.json",
            metric="fused512_peak_ratio",
            direction="higher",
            tolerance_pct=40.0,
            context=("input_lines", "synthesis_chunk_lines"),
        ),
    ),
)

#: Lines of the 512-bit fused-evaluation column (capped so the bench stays
#: bounded); the tile is deliberately much smaller than the super-batch so
#: the peak-memory contrast measures the tiling, not the trace size.
FUSED_EVAL_LINES = 24_576
FUSED_TILE_LINES = 2_048
FUSED_CHUNK_LINES = 512


def _synthetic_ascii_trace(path: Path, n_lines: int, seed: int) -> Path:
    """A ramulator2-style trace with a skewed (reuse-heavy) address mix."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 1 << 10, n_lines) * 64
    cold = rng.integers(0, 1 << 22, n_lines) * 64
    addresses = np.where(rng.random(n_lines) < 0.5, hot, cold)
    is_write = rng.random(n_lines) < 0.7
    with open(path, "w") as fh:
        for address, write in zip(addresses, is_write):
            fh.write(f"{'W' if write else 'R'} 0x{int(address):X} 0x40\n")
    return path


def _traced(func):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = func()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


def bench_streaming_ingest(benchmark, tmp_path_factory):
    n_lines = int(os.environ.get("REPRO_BENCH_INGEST_LINES", "150000"))
    quantum = int(os.environ.get("REPRO_BENCH_INGEST_CHUNK_LINES", "8192"))
    tmp = tmp_path_factory.mktemp("streaming-ingest")
    source = _synthetic_ascii_trace(tmp / "input.trace", n_lines, seed=2018)

    def measure():
        trace, memory_s, memory_peak = _traced(
            lambda: ingest_trace_file(source, chunk_lines=quantum)
        )
        save_trace(trace, tmp / "memory.wtrc")
        del trace
        streamed, stream_s, stream_peak = _traced(
            lambda: stream_ingest_to_wtrc(
                source, tmp / "streamed.wtrc", chunk_lines=quantum
            )
        )
        return memory_s, memory_peak, stream_s, stream_peak

    memory_s, memory_peak, stream_s, stream_peak = run_once(benchmark, measure)

    # The two paths must agree bit for bit -- the benchmark doubles as the
    # full-size identity check -- and streaming must never cost more memory
    # than materialising (the win grows with trace length: the in-memory
    # peak scales with the trace, the streamed peak with the quantum).
    assert (tmp / "memory.wtrc").read_bytes() == (tmp / "streamed.wtrc").read_bytes()
    assert stream_peak <= memory_peak * 1.2

    # 512-bit fused encode+metrics column: evaluate the ingested trace with
    # a whole-trace super-batch at the paper's largest granularity, tiled vs
    # materialising.  The fused path must peak >= 2x lower while producing
    # bit-identical metrics -- the repo-level gate of the fused subsystem.
    eval_lines = min(read_trace_header(tmp / "streamed.wtrc").n_lines, FUSED_EVAL_LINES)
    trace512 = load_trace(tmp / "streamed.wtrc")[:eval_lines]
    encoder512 = make_scheme("3cosets-512")

    def evaluate512(tile):
        config = EvaluationConfig(
            chunk_size=FUSED_CHUNK_LINES,
            superbatch_size=eval_lines,
            fused_tile_lines=tile,
            sample_disturbance=True,
            seed=2018,
        )
        return evaluate_trace(encoder512, trace512, config)

    fused_metrics, fused_s, fused_peak = _traced(lambda: evaluate512(FUSED_TILE_LINES))
    full_metrics, full_s, full_peak = _traced(lambda: evaluate512(None))
    assert fused_metrics == full_metrics, "fused metrics diverged from reference"
    fused_ratio = full_peak / fused_peak if fused_peak else 0.0
    assert fused_ratio >= 2.0, (
        f"fused 512-bit peak {fused_peak} not >=2x under materialising "
        f"peak {full_peak} (ratio {fused_ratio:.2f})"
    )

    rows = {
        "in-memory": {
            "wall_clock_s": memory_s,
            "lines_per_s": n_lines / memory_s if memory_s else 0.0,
            "tracemalloc_peak_mib": memory_peak / (1 << 20),
        },
        "streamed": {
            "wall_clock_s": stream_s,
            "lines_per_s": n_lines / stream_s if stream_s else 0.0,
            "tracemalloc_peak_mib": stream_peak / (1 << 20),
        },
        "peak ratio (mem/stream)": {
            "wall_clock_s": 0.0,
            "lines_per_s": 0.0,
            "tracemalloc_peak_mib": memory_peak / stream_peak if stream_peak else 0.0,
        },
        "512b eval, materialised": {
            "wall_clock_s": full_s,
            "lines_per_s": eval_lines / full_s if full_s else 0.0,
            "tracemalloc_peak_mib": full_peak / (1 << 20),
        },
        "512b eval, fused tiles": {
            "wall_clock_s": fused_s,
            "lines_per_s": eval_lines / fused_s if fused_s else 0.0,
            "tracemalloc_peak_mib": fused_peak / (1 << 20),
        },
        "peak ratio (full/fused)": {
            "wall_clock_s": 0.0,
            "lines_per_s": 0.0,
            "tracemalloc_peak_mib": fused_ratio,
        },
    }
    write_result(
        "streaming_ingest",
        format_series_table(
            rows,
            title=f"Streaming vs in-memory ingest, {n_lines} input accesses",
            row_header="path",
        ),
    )
    write_json(
        "streaming_ingest",
        {
            "input_lines": n_lines,
            "synthesis_chunk_lines": quantum,
            "write_requests": read_trace_header(tmp / "streamed.wtrc").n_lines,
            "in_memory_s": memory_s,
            "in_memory_peak_bytes": memory_peak,
            "streamed_s": stream_s,
            "streamed_peak_bytes": stream_peak,
            "in_memory_lines_per_s": n_lines / memory_s if memory_s else 0.0,
            "streamed_lines_per_s": n_lines / stream_s if stream_s else 0.0,
            "peak_ratio": memory_peak / stream_peak if stream_peak else 0.0,
            "fused512_eval_lines": eval_lines,
            "fused512_tile_lines": FUSED_TILE_LINES,
            "fused512_peak_bytes": fused_peak,
            "fused512_full_peak_bytes": full_peak,
            "fused512_peak_ratio": fused_ratio,
            "fused512_s": fused_s,
            "fused512_full_s": full_s,
        },
    )
