"""Encode-throughput benchmark: scalar per-line loops vs the batch kernels.

Every compression front-end now exposes a vectorised ``compress_batch`` /
``decompress_batch`` pair (``src/repro/compression/kernels.py``) that the
encoders consume whole layout groups at a time; the scalar
``compress_line`` path survives as a thin per-line wrapper for the
round-trip tests and this benchmark's scalar leg.  This benchmark measures
both paths on the same biased-content lines -- lines/s per scheme plus the
batch-over-scalar speedup -- and asserts the kernel contract:

* the batch streams are bit-identical to the scalar streams;
* ``decompress_batch`` round-trips the original lines;
* at the default 4096-line batch, BDI, FPC and the DIN payload encoder
  (whose BCH parity is one batched GF(2) reduction, not a per-line
  polynomial carry chain) run at least **5x** faster through the batch
  paths than through the per-line loops; and
* every *available* array backend (numpy reference, numba-compiled)
  produces bit-identical batch streams, with a per-backend throughput
  column recorded for the perf gate.  Backends whose optional dependency is
  not installed are skipped; their gates are declared ``optional`` so a
  runner without the extra warns instead of failing.

``REPRO_BENCH_KERNEL_LINES`` overrides the batch size (the speedup assert
only applies from 2048 lines up, where kernel start-up cost is amortised).
Results land in ``BENCH_encoder_throughput.json``; the perf gate tracks the
BDI/FPC/DIN speedups and the FPC batch throughput against
``benchmarks/baselines/encoder_throughput.json``.
"""

import os
import time

import numpy as np

from repro.bench import BenchSpec, Gate, run_once, write_json, write_result
from repro.coding import make_scheme
from repro.coding.din import MAX_COMPRESSED_BITS
from repro.compression import (
    BDICompressor,
    COCCompressor,
    FPCBDICompressor,
    FPCCompressor,
    WLCCompressor,
)
from repro.compression.backend import available_backends, use_array_backend
from repro.core.line import LineBatch
from repro.core.symbols import BITS_PER_LINE
from repro.evaluation import format_series_table
from repro.workloads.generator import generate_benchmark_trace

BENCHMARK = BenchSpec(
    figure="kernels",
    title="Vectorised compression kernels: batch vs scalar encode throughput",
    cost=4.0,
    perf_artifacts=(
        "encoder_throughput.txt",
        "BENCH_encoder_throughput.json",
    ),
    env=("REPRO_BENCH_KERNEL_LINES", "REPRO_BENCH_SEED"),
    backend_sensitive=True,
    gates=(
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="speedup.bdi",
            direction="higher",
            tolerance_pct=60.0,
            context=("lines",),
        ),
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="speedup.fpc",
            direction="higher",
            tolerance_pct=60.0,
            context=("lines",),
        ),
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="speedup.din",
            direction="higher",
            tolerance_pct=60.0,
            context=("lines",),
        ),
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="batch_lines_per_s.fpc",
            direction="higher",
            tolerance_pct=75.0,
            context=("lines",),
        ),
        # Per-backend columns only exist when the optional dependency is
        # installed, so their gates warn (not fail) when the metric or its
        # baseline is absent.
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="backend_lines_per_s.numba.fpc",
            direction="higher",
            tolerance_pct=75.0,
            context=("lines",),
            optional=True,
        ),
        Gate(
            artifact="BENCH_encoder_throughput.json",
            metric="backend_lines_per_s.numba.bdi",
            direction="higher",
            tolerance_pct=75.0,
            context=("lines",),
            optional=True,
        ),
    ),
)

#: Batch size at and above which the >=5x speedup contract is asserted.
SPEEDUP_ASSERT_LINES = 2048
#: Minimum batch-over-scalar speedup required of BDI and FPC.
MIN_SPEEDUP = 5.0
#: Streams cross-checked bit-for-bit between the scalar and batch paths.
VERIFY_LINES = 64


def _compressors():
    return (
        ("bdi", BDICompressor()),
        ("fpc", FPCCompressor()),
        ("fpc+bdi", FPCBDICompressor()),
        ("coc", COCCompressor()),
        ("wlc-6msb", WLCCompressor(k=6)),
    )


def _eligible_lines(name, compressor, batch, lines):
    """``lines`` compressor-eligible words, tiling the pool when short.

    BDI and WLC raise on lines outside their coverage (matching the scalar
    contract), so their pools are the compressible subset of the trace; the
    always-applicable compressors measure on the raw line mix.
    """
    if name == "bdi":
        words = batch.words[compressor.sizes_bits(batch) < BITS_PER_LINE]
    elif name.startswith("wlc"):
        words = batch.words[compressor.line_compressible(batch)]
    else:
        words = batch.words
    reps = -(-lines // max(1, words.shape[0]))
    return np.tile(words, (reps, 1))[:lines]


def _din_eligible_lines(encoder, batch, lines):
    """``lines`` DIN-encodable words (FPC+BDI output within the 360-bit budget)."""
    words = batch.words[encoder.compressor.sizes_bits(batch) <= MAX_COMPRESSED_BITS]
    reps = -(-lines // max(1, words.shape[0]))
    return np.tile(words, (reps, 1))[:lines]


def bench_encoder_throughput(benchmark):
    lines = int(os.environ.get("REPRO_BENCH_KERNEL_LINES", "4096"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2018"))
    pool = generate_benchmark_trace("gcc", max(lines, 4096), seed).new

    def measure():
        results = {}
        for name, compressor in _compressors():
            words = _eligible_lines(name, compressor, pool, lines)
            sub = LineBatch(words)

            start = time.perf_counter()
            packed = compressor.compress_batch(sub)
            batch_s = time.perf_counter() - start

            start = time.perf_counter()
            scalar_streams = [
                compressor.compress_line(words[i]) for i in range(len(sub))
            ]
            scalar_s = time.perf_counter() - start

            # Contract: batch streams == scalar streams, and the batch
            # decode round-trips the original lines.
            for i in range(0, len(sub), max(1, len(sub) // VERIFY_LINES)):
                assert np.array_equal(packed.line(i).bits, scalar_streams[i].bits)
            assert np.array_equal(compressor.decompress_batch(packed), words)

            backends = {}
            for backend_name in available_backends():
                with use_array_backend(backend_name):
                    compressor.compress_batch(sub)  # warm-up (numba JIT)
                    start = time.perf_counter()
                    per_backend = compressor.compress_batch(sub)
                    backends[backend_name] = time.perf_counter() - start
                assert np.array_equal(per_backend.bits, packed.bits)
                assert np.array_equal(per_backend.lengths, packed.lengths)

            results[name] = {
                "lines": len(sub),
                "scalar_s": scalar_s,
                "batch_s": batch_s,
                "backend_s": backends,
            }

        # DIN payload encode: the 3-to-4 expansion plus the batched BCH
        # parity (one GF(2) reduction over the whole batch) against the
        # per-line wrapper.  DIN has no public scalar API -- the wrapper is
        # this comparison's scalar reference.
        encoder = make_scheme("din")
        words = _din_eligible_lines(encoder, pool, lines)
        sub = LineBatch(words)
        start = time.perf_counter()
        batch_bits = encoder._encode_lines_bits(sub)
        batch_s = time.perf_counter() - start
        scalar_count = max(1, len(sub) // 8)  # per-line path is slow; sample
        start = time.perf_counter()
        scalar_bits = [encoder._encode_line_bits(words[i]) for i in range(scalar_count)]
        scalar_s = (time.perf_counter() - start) * (len(sub) / scalar_count)
        for i in range(0, scalar_count, max(1, scalar_count // VERIFY_LINES)):
            assert np.array_equal(batch_bits[i], scalar_bits[i])
        results["din"] = {
            "lines": len(sub),
            "scalar_s": scalar_s,
            "batch_s": batch_s,
            "backend_s": {},
        }
        return results

    results = run_once(benchmark, measure)

    payload = {
        "lines": lines,
        "array_backends": sorted(available_backends()),
        "scalar_lines_per_s": {},
        "batch_lines_per_s": {},
        "backend_lines_per_s": {},
        "speedup": {},
    }
    rows = {}
    for name, cell in results.items():
        scalar_rate = cell["lines"] / cell["scalar_s"] if cell["scalar_s"] else 0.0
        batch_rate = cell["lines"] / cell["batch_s"] if cell["batch_s"] else 0.0
        speedup = scalar_rate and batch_rate / scalar_rate
        payload["scalar_lines_per_s"][name] = scalar_rate
        payload["batch_lines_per_s"][name] = batch_rate
        payload["speedup"][name] = speedup
        rows[name] = {
            "scalar_lines_per_s": scalar_rate,
            "batch_lines_per_s": batch_rate,
            "speedup": speedup,
        }
        for backend_name, seconds in cell["backend_s"].items():
            rate = cell["lines"] / seconds if seconds else 0.0
            payload["backend_lines_per_s"].setdefault(backend_name, {})[name] = rate
            rows[name][f"{backend_name}_lines_per_s"] = rate
    write_json("encoder_throughput", payload)
    write_result(
        "encoder_throughput",
        format_series_table(
            rows,
            title=f"Encoder throughput: {lines}-line batches, biased content",
            row_header="compressor",
        ),
    )

    if lines >= SPEEDUP_ASSERT_LINES:
        assert payload["speedup"]["bdi"] >= MIN_SPEEDUP, payload["speedup"]
        assert payload["speedup"]["fpc"] >= MIN_SPEEDUP, payload["speedup"]
        assert payload["speedup"]["din"] >= MIN_SPEEDUP, payload["speedup"]
