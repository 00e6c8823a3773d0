"""Trace-driven evaluation runner.

The runner mirrors the paper's simulator: for every write request of a trace
it asks a scheme to encode the new data against the (reconstructed or tracked)
stored states and accumulates the three per-request metrics -- write energy
(split into data and auxiliary components), updated cells, and expected
write-disturbance errors.  Traces are processed in fixed-size chunks so that
the vectorised encoders stay within a bounded memory footprint.

Disturbance sampling is deterministic *per chunk*: every chunk draws from its
own :class:`numpy.random.SeedSequence` stream derived from
``(config.seed, unit_index, chunk_index)``, so results do not depend on how
chunks are scheduled.  This is what lets the parallel engine in
:mod:`repro.evaluation.parallel` produce bit-identical results for any worker
count -- see :func:`chunk_streams`.

The multi-scheme helpers (:func:`evaluate_schemes`,
:func:`evaluate_benchmarks`) accept an ``n_jobs`` argument and fan their work
units out over the parallel engine; ``n_jobs=1`` (the default) keeps the
exact serial path.
"""

from __future__ import annotations

import tracemalloc
from contextlib import nullcontext
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from ..coding.base import EncodedBatch, WriteEncoder
from ..compression.backend import get_backend, kernel_timer, use_array_backend
from ..core.config import DEFAULT_EVALUATION_CONFIG, EvaluationConfig
from ..core.disturbance import DEFAULT_DISTURBANCE_MODEL, DisturbanceModel
from ..core.metrics import WriteMetrics
from ..obs import count, gauge, is_active, peak_rss_bytes, span
from ..workloads.trace import WriteTrace

if TYPE_CHECKING:  # pragma: no cover - typing only (serve layers above this)
    from ..serve.results import ResultStore


def metrics_from_encoded(
    encoded: EncodedBatch,
    encoder: WriteEncoder,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    rng: Optional[np.random.Generator] = None,
) -> WriteMetrics:
    """Derive the paper's per-request metrics from an encoded batch.

    Parameters
    ----------
    encoded:
        Result of :meth:`WriteEncoder.encode_batch` (or the stateful variant).
    encoder:
        The encoder that produced the batch (supplies the energy model).
    disturbance_model:
        Disturbance-rate model; expected-value counting is used unless ``rng``
        is given, in which case errors are Monte-Carlo sampled.
    """
    changed = encoded.changed
    energy = encoder.energy_model.cell_write_energy(encoded.states, changed)
    aux = encoded.aux_mask
    # One masked-multiply pass replaces the historical pair of np.where
    # full-array scans.  Bit-identical: ``energy * aux`` equals
    # ``np.where(aux, energy, 0.0)`` elementwise (bool -> 1.0/0.0, energies
    # are finite and non-negative), and ``energy - energy*aux`` equals
    # ``np.where(aux, 0.0, energy)`` elementwise (e - e == +0.0 exactly);
    # identical elementwise values in identically shaped C-order arrays sum
    # through the same pairwise tree to the same bits.
    aux_cells = energy * aux
    aux_energy = float(aux_cells.sum())
    np.subtract(energy, aux_cells, out=aux_cells)
    data_energy = float(aux_cells.sum())
    # Cell counts are exact integers, so any summation grouping matches the
    # historical np.where(...).sum() values bit for bit.
    changed_aux = changed & aux
    updated_aux = float(changed_aux.sum())
    updated_data = float((changed & ~aux).sum())
    if rng is None:
        disturbance = float(
            disturbance_model.expected_errors(encoded.old_states, changed).sum()
        )
    else:
        disturbance = float(
            disturbance_model.sample_errors(encoded.old_states, changed, rng).sum()
        )
    return WriteMetrics(
        requests=int(encoded.states.shape[0]),
        data_energy_pj=data_energy,
        aux_energy_pj=aux_energy,
        updated_data_cells=updated_data,
        updated_aux_cells=updated_aux,
        disturbance_errors=disturbance,
        compressed_lines=int(encoded.compressed.sum()),
        encoded_lines=int(encoded.encoded.sum()),
    )


def n_chunks_of(trace: WriteTrace, config: EvaluationConfig) -> int:
    """Number of chunks ``trace`` is split into under ``config.chunk_size``."""
    return -(-len(trace) // config.chunk_size) if len(trace) else 0


def chunk_group_size(config: EvaluationConfig) -> int:
    """Chunks coalesced per encoder super-batch (1 = the per-chunk path).

    ``config.superbatch_size`` names a *line* target; the accumulator rounds
    it up to whole chunks so group boundaries land exactly on the chunk grid
    and the per-chunk RNG streams / metric windows stay well defined.
    """
    if config.superbatch_size is None:
        return 1
    return max(1, -(-config.superbatch_size // config.chunk_size))


def array_backend_scope(config: EvaluationConfig):
    """Context manager activating ``config.array_backend`` (no-op when unset)."""
    if config.array_backend is None:
        return nullcontext()
    return use_array_backend(config.array_backend)


def fused_tile_size(tile_lines: Optional[int], chunk_size: int) -> Optional[int]:
    """Normalise a ``fused_tile_lines`` request to whole chunk windows.

    Returns ``None`` when tiling is disabled (``None`` or non-positive);
    otherwise the requested line count rounded *up* to a multiple of
    ``chunk_size``, so every chunk window -- and therefore every per-chunk
    RNG stream -- lies entirely inside one tile.
    """
    if tile_lines is None or tile_lines <= 0:
        return None
    return max(1, -(-tile_lines // chunk_size)) * chunk_size


def _record_peak_memory() -> None:
    """Gauge this process's peak memory (no-op unless observing).

    ``peak_rss_bytes`` max-merges across worker processes into the run-wide
    peak; the tracemalloc gauge only exists when the caller (e.g. the
    streaming-ingest bench) already traces allocations.
    """
    if not is_active():
        return
    rss = peak_rss_bytes()
    if rss is not None:
        gauge("peak_rss_bytes", rss)
    if tracemalloc.is_tracing():
        _, peak = tracemalloc.get_traced_memory()
        gauge("tracemalloc_peak_bytes", float(peak))


def encode_metrics_batch(
    encoder: WriteEncoder,
    group: WriteTrace,
    streams: Sequence[Optional[np.random.SeedSequence]],
    chunk_size: int,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    tile_lines: int = 8192,
) -> Iterator[WriteMetrics]:
    """Fused encode+metrics: walk ``group`` in tiles, never materialising it.

    The tiled candidate-evaluation path: each tile of ``tile_lines`` lines
    (rounded up to whole chunk windows) is encoded on its own, its
    per-chunk-window metrics are accumulated in the same pass, and its
    states are dropped before the next tile is touched -- so peak memory is
    bounded by the tile size while the full-batch ``EncodedBatch`` (and the
    transition-code and per-candidate cost temporaries of
    :func:`repro.coding.base.block_energy_costs`) never exist at
    super-batch scale.

    Bit-identity with the materialising path follows from three facts: the
    opted-in encoders (``WriteEncoder.supports_fused_metrics``) encode
    strictly per line, so a tile's rows equal the same rows of a full-batch
    encode; tiles are aligned to chunk windows, so window ``i`` still spans
    one contiguous same-shape slice and draws from ``streams[i]`` exactly as
    before; and the metric reduction is the shared
    :func:`metrics_from_encoded` either way.
    """
    tile = fused_tile_size(tile_lines, chunk_size)
    if tile is None:
        raise ValueError("encode_metrics_batch needs a positive tile_lines")
    backend_name = get_backend().name
    n_tiles = -(-len(group) // tile) if len(group) else 0
    with span(
        "encode_metrics_batch", scheme=encoder.name, lines=len(group), tiles=n_tiles
    ):
        for index, stream in enumerate(streams):
            start = index * chunk_size
            if start % tile == 0:
                tile_stop = min(len(group), start + tile)
                with kernel_timer(backend_name, "fused_tile"):
                    tile_trace = group[start:tile_stop]
                    encoded = encoder.encode_batch(tile_trace.new, tile_trace.old)
                count("lines_encoded", len(encoded), scheme=encoder.name)
            local = start % tile
            window = encoded.window(local, min(len(encoded), local + chunk_size))
            rng = np.random.default_rng(stream) if stream is not None else None
            yield metrics_from_encoded(window, encoder, disturbance_model, rng)
    _record_peak_memory()


def evaluate_chunk_group(
    encoder: WriteEncoder,
    group: WriteTrace,
    streams: Sequence[Optional[np.random.SeedSequence]],
    chunk_size: int,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    tile_lines: Optional[int] = None,
) -> Iterator[WriteMetrics]:
    """Encode a coalesced chunk group once; yield per-chunk-window metrics.

    This is the super-batch accumulator's unit of work, shared by the serial
    runner and the parallel engine.  The whole group feeds *one*
    ``encode_batch`` call (so compiled array backends see >=256k-line
    batches), but the metric reduction still happens per original
    ``chunk_size`` window -- window ``i`` of the group uses ``streams[i]``,
    the very stream chunk ``first + i`` draws on the per-chunk path, and a
    window's arrays have the same shape and layout a standalone chunk's
    would, so every float accumulates in the same order.  That is what keeps
    super-batched results bit-identical to the per-chunk path.

    When ``tile_lines`` is set, the group is larger than one tile, and the
    encoder opts in via ``supports_fused_metrics``, the call is routed
    through the fused tiled path (:func:`encode_metrics_batch`) instead --
    metrics are bit-identical, only the peak memory changes.  The
    materialising path below stays both the fallback (encoders without the
    flag, tiling disabled, group already tile-sized) and the reference
    oracle the fused property tests compare against.
    """
    tile = fused_tile_size(tile_lines, chunk_size)
    if (
        tile is not None
        and encoder.supports_fused_metrics
        and len(group) > tile
    ):
        yield from encode_metrics_batch(
            encoder, group, streams, chunk_size, disturbance_model, tile
        )
        return
    with span("encode_batch", scheme=encoder.name, lines=len(group)):
        encoded = encoder.encode_batch(group.new, group.old)
    count("lines_encoded", len(group), scheme=encoder.name)
    for index, stream in enumerate(streams):
        start = index * chunk_size
        window = encoded.window(start, min(len(encoded), start + chunk_size))
        rng = np.random.default_rng(stream) if stream is not None else None
        yield metrics_from_encoded(window, encoder, disturbance_model, rng)
    _record_peak_memory()


def chunk_stream(
    config: EvaluationConfig, unit_index: int, chunk_index: int
) -> Optional[np.random.SeedSequence]:
    """RNG stream of one evaluation chunk (Monte-Carlo disturbance sampling).

    Stream ``c`` of work unit ``u`` is the :class:`numpy.random.SeedSequence`
    with entropy ``config.seed`` and spawn key ``(u, c)`` -- exactly what
    ``SeedSequence(config.seed, spawn_key=(u,)).spawn(...)`` would hand out,
    but computed lazily, so streaming consumers that do not know the chunk
    count upfront draw the very same streams as the materialised path.
    Returns ``None`` when ``config.sample_disturbance`` is off.  A chunk's
    random draws depend only on the evaluation seed and the chunk's logical
    position -- never on which process evaluates it or in which order; the
    parallel engine relies on this to stay bit-identical to the serial path
    for any ``n_jobs``.
    """
    if not config.sample_disturbance:
        return None
    return np.random.SeedSequence(
        entropy=config.seed, spawn_key=(unit_index, chunk_index)
    )


def chunk_streams(
    config: EvaluationConfig, n_chunks: int, unit_index: int = 0
) -> List[Optional[np.random.SeedSequence]]:
    """Per-chunk RNG streams for a known chunk count (see :func:`chunk_stream`)."""
    return [chunk_stream(config, unit_index, c) for c in range(max(0, n_chunks))]


def evaluate_trace(
    encoder: WriteEncoder,
    trace,
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    unit_index: int = 0,
) -> WriteMetrics:
    """Evaluate one scheme on one write trace and return the aggregate metrics.

    ``trace`` is a :class:`~repro.workloads.trace.WriteTrace` or any
    :class:`~repro.workloads.trace.ChunkSource` -- the loop only ever holds
    one chunk group (one chunk unless ``config.superbatch_size`` coalesces
    several), so evaluating a streaming source keeps memory bounded
    regardless of the trace length.  ``unit_index`` selects the
    disturbance-sampling stream when the trace is one of several work units
    evaluated together (see :mod:`.parallel`); the default of 0 matches a
    standalone run.
    """
    total = WriteMetrics()
    group_chunks = chunk_group_size(config)
    with array_backend_scope(config):
        buffer: List[WriteTrace] = []
        first_index = 0

        def flush() -> None:
            group = buffer[0] if len(buffer) == 1 else WriteTrace.concat(buffer)
            streams = [
                chunk_stream(config, unit_index, first_index + offset)
                for offset in range(len(buffer))
            ]
            for metrics in evaluate_chunk_group(
                encoder,
                group,
                streams,
                config.chunk_size,
                disturbance_model,
                tile_lines=config.fused_tile_lines,
            ):
                total.merge(metrics)

        for chunk_index, chunk in enumerate(trace.chunks(config.chunk_size)):
            if not buffer:
                first_index = chunk_index
            buffer.append(chunk)
            if len(buffer) >= group_chunks:
                flush()
                buffer = []
        if buffer:
            flush()
    return total


def evaluate_schemes(
    encoders: Sequence[WriteEncoder],
    trace: WriteTrace,
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    n_jobs: int = 1,
    runner: Optional["ParallelRunner"] = None,
    backend: str = "process",
    results_store: Optional["ResultStore"] = None,
    task_timeout: Optional[float] = None,
) -> Dict[str, WriteMetrics]:
    """Evaluate several schemes on the same trace; keyed by scheme name.

    If two encoders share a name, the last one wins (dict semantics), matching
    the historical behaviour.  Passing ``runner`` reuses an existing (e.g.
    persistent) :class:`~repro.evaluation.parallel.ParallelRunner` instead of
    building a throwaway pool; otherwise ``backend`` selects the throwaway
    pool's executor kind (results are bit-identical either way).  A
    ``results_store`` memoises per-unit metrics across calls and processes
    (store hits are bit-identical to fresh computation); when given it is
    bound to whichever runner executes the call.
    """
    from .parallel import ParallelRunner, WorkUnit

    units = [
        WorkUnit(encoder.name, encoder, trace, config, disturbance_model)
        for encoder in encoders
    ]
    engine = runner or ParallelRunner(n_jobs, backend=backend)
    if results_store is not None:
        engine.results_store = results_store
    if task_timeout is not None:
        engine.task_timeout = task_timeout
    per_unit = engine.map(units)
    return {encoder.name: metrics for encoder, metrics in zip(encoders, per_unit)}


def evaluate_benchmarks(
    encoder: WriteEncoder,
    traces: Mapping[str, WriteTrace],
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    n_jobs: int = 1,
    runner: Optional["ParallelRunner"] = None,
    backend: str = "process",
    results_store: Optional["ResultStore"] = None,
    task_timeout: Optional[float] = None,
) -> Dict[str, WriteMetrics]:
    """Evaluate one scheme across a set of per-benchmark traces."""
    from .parallel import ParallelRunner, WorkUnit

    units = [
        WorkUnit(name, encoder, trace, config, disturbance_model)
        for name, trace in traces.items()
    ]
    engine = runner or ParallelRunner(n_jobs, backend=backend)
    if results_store is not None:
        engine.results_store = results_store
    if task_timeout is not None:
        engine.task_timeout = task_timeout
    return engine.run(units)


def average_metrics(per_benchmark: Mapping[str, WriteMetrics]) -> WriteMetrics:
    """Combine per-benchmark metrics into a single average (Figure 8's 'Ave.')."""
    return WriteMetrics.combine(per_benchmark.values())
