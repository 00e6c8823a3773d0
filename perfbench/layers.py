"""Which public entry points belong to which layer, and the per-layer metrics.

:func:`instrument` installs the traced pass's wrappers (see :mod:`.spans`) and
activates a ``repro.obs`` observation so the program's own counters
(``lines_encoded``, ``result_store``, ``pool_rebuilds``, ``tasks_retried``,
``trace_export``) can be read afterwards; nothing is added to the program.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Tuple

import numpy as np

from .spans import Patcher, SpanTable

#: Span name -> the per-layer metric its self time feeds.
SELF_TIME_METRICS = {
    "workloads.gen": "workloads.gen_s",
    "traces.export": "traces.export_s",
    "traces.ingest.convert": "traces.ingest_s",
    "traces.ingest.parse": "traces.ingest_s",
    "traces.ingest.synthesize": "traces.ingest_s",
    "traces.load": "traces.load_s",
    "compression.compress": "compression.compress_s",
    "coding.encode": "coding.unattributed_s",
    "coding.candidate_cost": "coding.candidate_cost_s",
    "coding.selection": "coding.selection_s",
    "coding.construct": "coding.construct_s",
    "evaluation.metrics": "evaluation.metrics_s",
    "evaluation.dispatch": "evaluation.dispatch_s",
    "evaluation.reduce": "evaluation.reduce_s",
    "serve.store_get": "serve.store_get_s",
    "serve.store_put": "serve.store_put_s",
}

#: Compressor methods that do compression work (public, per-batch or per-line).
COMPRESSION_METHODS = (
    "compress_batch",
    "decompress_batch",
    "compress_line",
    "decompress_line",
    "sizes_bits",
    "member_sizes",
    "sizes_from_members",
    "best_member",
    "fits",
    "compressible",
    "coverage",
    "word_compressible",
    "line_compressible",
    "clear_reclaimed",
    "insert_reclaimed",
    "extract_reclaimed",
    "sign_extend",
)

#: The Figure-8 schemes with a per-scheme encode throughput metric.
SCHEMES = (
    "baseline",
    "flipmin",
    "fnw",
    "din",
    "6cosets",
    "coc+4cosets",
    "wlc+4cosets",
    "wlcrc-16",
)


def scheme_metric(scheme: str) -> str:
    """``coding.lines_per_s.<scheme>`` with the metric-name alphabet."""
    return "coding.lines_per_s." + scheme.replace("+", "-")


def _encoder_identity(encoder: Any) -> Tuple:
    """Everything that makes two encoders compute the same thing."""
    scalars = tuple(
        (key, value)
        for key, value in sorted(vars(encoder).items())
        if isinstance(value, (int, float, str, bool, type(None)))
    )
    return (
        type(encoder).__module__,
        type(encoder).__qualname__,
        encoder.name,
        repr(getattr(encoder, "energy_model", None)),
        scalars,
    )


class UnitLedger:
    """Counts dispatched work units and the units repeating an earlier one."""

    def __init__(self) -> None:
        self.units = 0
        self.duplicates = 0
        self._seen = set()

    def record(self, units: Any) -> None:
        from repro.serve.results import trace_content_digest
        from repro.workloads.trace import WriteTrace

        if not isinstance(units, (list, tuple)):
            return
        for unit in units:
            if isinstance(unit.trace, WriteTrace):
                trace_key: Any = trace_content_digest(unit.trace)
            else:
                trace_key = ("source", id(unit.trace))
            config = unit.config
            key = (
                _encoder_identity(unit.encoder),
                trace_key,
                config.chunk_size,
                config.sample_disturbance,
                config.seed if config.sample_disturbance else None,
                tuple(unit.disturbance_model.rates),
            )
            self.units += 1
            if key in self._seen:
                self.duplicates += 1
            self._seen.add(key)


def _count_len(counter: str):
    def after(table: SpanTable, args: tuple, result: Any, elapsed: float) -> None:
        table.add(counter, len(result))

    return after


def _after_encode(table: SpanTable, args: tuple, result: Any, elapsed: float) -> None:
    table.add("coding.time." + args[0].name, elapsed)
    table.add("coding.lines", len(result))
    table.add("coding.compressed_lines", int(np.count_nonzero(result.compressed)))


def _after_compress(table: SpanTable, args: tuple, result: Any, elapsed: float) -> None:
    # The first argument after ``self`` is a LineBatch, a (lines, words)
    # array, or one line's words.
    words = getattr(args[1], "words", args[1]) if len(args) > 1 else None
    shape = getattr(words, "shape", ())
    if len(shape) == 2:
        table.add("compression.lines", shape[0])
    elif len(shape) == 1:
        table.add("compression.lines", 1)


def install(table: SpanTable, ledger: UnitLedger, patcher: Patcher) -> None:
    """Wrap every layer's public entry points where callers look them up."""
    from repro.coding import base as coding_base
    from repro.coding import din, registry
    from repro.compression import kernels
    from repro.compression.base import Compressor
    from repro.evaluation import parallel, runner
    from repro.serve import results
    from repro.traces import ingest, store, transport
    from repro.workloads import generator

    for fn in (generator.generate_benchmark_trace, generator.generate_random_trace):
        patcher.function(
            fn, table.timed("workloads.gen", fn, after=_count_len("workloads.lines"))
        )
    patcher.function(
        ingest.stream_ingest_to_wtrc,
        table.timed("traces.ingest.convert", ingest.stream_ingest_to_wtrc),
    )
    patcher.function(
        ingest.iter_trace_address_chunks,
        table.timed_iter("traces.ingest.parse", ingest.iter_trace_address_chunks),
    )
    patcher.method(
        ingest.StreamingSynthesizer,
        "feed",
        lambda fn: table.timed(
            "traces.ingest.synthesize", fn, after=_count_len("traces.ingest_lines")
        ),
    )
    patcher.function(store.load_trace, table.timed("traces.load", store.load_trace))
    patcher.method(
        transport.TraceExporter, "export", lambda fn: table.timed("traces.export", fn)
    )

    for name in COMPRESSION_METHODS:
        patcher.method(
            Compressor,
            name,
            lambda fn: table.timed("compression.compress", fn, after=_after_compress),
        )
    for name in ("pack_fields", "unpack_fields", "compact_segments", "hstack_bits", "xor_reduce"):
        fn = getattr(kernels, name)
        patcher.function(fn, table.timed("compression.compress", fn))

    patcher.method(
        coding_base.WriteEncoder,
        "encode_batch",
        lambda fn: table.timed("coding.encode", fn, after=_after_encode),
    )
    for fn in (coding_base.block_energy_costs, coding_base.block_flip_costs):
        patcher.function(fn, table.timed("coding.candidate_cost", fn))
    for fn in (registry.make_scheme, din.build_din_mapping):
        patcher.function(fn, table.timed("coding.construct", fn))
    patcher.function(
        coding_base.select_states_per_block,
        table.timed("coding.selection", coding_base.select_states_per_block),
    )

    patcher.function(
        runner.metrics_from_encoded,
        table.timed("evaluation.metrics", runner.metrics_from_encoded),
    )
    patcher.method(
        parallel.ParallelRunner,
        "map",
        lambda fn: table.timed(
            "evaluation.dispatch", fn, before=lambda t, args: ledger.record(args[1])
        ),
    )
    patcher.method(
        parallel.ParallelRunner, "starmap", lambda fn: table.timed("evaluation.dispatch", fn)
    )
    patcher.method(
        parallel.ParallelRunner, "run", lambda fn: table.timed("evaluation.reduce", fn)
    )

    for name, span_name in (
        ("key_for", "serve.store_get"),
        ("get", "serve.store_get"),
        ("put", "serve.store_put"),
    ):
        patcher.method(results.ResultStore, name, lambda fn, s=span_name: table.timed(s, fn))


class Trace:
    """One traced round: the span table, unit ledger and obs counters."""

    def __init__(self) -> None:
        self.table = SpanTable()
        self.ledger = UnitLedger()
        self.counters: Dict[str, float] = {}

    def counter(self, name: str, **labels: Any) -> float:
        """Sum of the obs counter ``name`` over every label set matching ``labels``."""
        total = 0.0
        for key, entry in self.counters.items():
            base, _, rendered = key.partition("{")
            if base != name or entry.get("type") != "counter":
                continue
            pairs = dict(
                item.split("=", 1) for item in rendered.rstrip("}").split(",") if item
            )
            if all(pairs.get(k) == str(v) for k, v in labels.items()):
                total += entry["value"]
        return total

    def layer_self_times(self) -> Dict[str, float]:
        times: Dict[str, float] = {}
        for span_name, metric in SELF_TIME_METRICS.items():
            times[metric] = times.get(metric, 0.0) + self.table.self_of(span_name)
        return times


@contextmanager
def instrument() -> Iterator[Trace]:
    """Install the wrappers and an obs session for the duration of the block."""
    from repro.obs import observation

    trace = Trace()
    patcher = Patcher()
    try:
        install(trace.table, trace.ledger, patcher)
        with observation("perfbench") as session:
            yield trace
            trace.counters = session.metrics.snapshot()
    finally:
        patcher.restore()
