"""Parallel trace-evaluation engine.

The paper's headline results (Figures 8-14) sweep many encoder configurations
over many per-benchmark write traces.  Every (encoder, trace, sweep-point)
combination is independent, so the sweep is embarrassingly parallel; this
module provides the harness that exploits that.

:class:`ParallelRunner` fans *work units* -- an encoder evaluated on a trace
under an :class:`~repro.core.config.EvaluationConfig` -- out over a
:class:`concurrent.futures.ProcessPoolExecutor`.  Each unit is further split
into its evaluation chunks (the same ``config.chunk_size`` chunks the serial
runner uses), which become the individual executor tasks, so even a single
long trace spreads across all workers.

Determinism is a hard guarantee, not a best effort:

* chunk results are reduced with :meth:`WriteMetrics.merge
  <repro.core.metrics.WriteMetrics.merge>` in (unit, chunk) submission order,
  so floating-point accumulation is identical for any worker count;
* Monte-Carlo disturbance sampling draws from per-chunk
  :class:`numpy.random.SeedSequence` streams spawned from
  ``(config.seed, unit_index)`` (see
  :func:`~repro.evaluation.runner.chunk_streams`), so sampled error counts do
  not depend on scheduling either.

``n_jobs=1`` (the default) executes the exact serial path in-process -- no
executor, no pickling -- which makes it both the fallback and the reference
the property tests compare the parallel path against bit-for-bit.

Two scalability features ride on top of the executor:

* **zero-copy trace transport** -- instead of pickling each chunk's arrays
  into its task, the runner exports every unit's trace once through
  :class:`repro.traces.transport.TraceExporter` (shared-memory segment for
  in-memory traces, mmap descriptor for corpus-backed ones) and ships workers
  ``(descriptor, start, stop)`` triples; pickling remains the transparent
  fallback and every transport is bit-identical by construction;
* **a persistent worker pool** -- used as a context manager (or with
  ``persistent=True``) the runner keeps one
  :class:`~concurrent.futures.ProcessPoolExecutor` alive across ``run()``
  calls, so sweep helpers and experiment drivers stop paying pool start-up
  per call (see :func:`shared_runner`);
* **streaming dispatch with backpressure** -- a work unit may carry a
  :class:`~repro.workloads.trace.ChunkSource` instead of a materialised
  trace; its chunks are then produced lazily and submitted with at most
  ``window`` in flight, so a trace larger than RAM evaluates with memory
  bounded by ``window x chunk_size`` lines while the submission-order
  reduction keeps the result bit-identical to the serial path.
"""

from __future__ import annotations

import atexit
import logging
import os
import random
import time
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import nullcontext
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..coding.base import WriteEncoder
from ..core.config import DEFAULT_EVALUATION_CONFIG, EvaluationConfig
from ..core.disturbance import DEFAULT_DISTURBANCE_MODEL, DisturbanceModel
from ..compression.backend import use_array_backend
from ..core.errors import ConfigurationError
from ..core.metrics import WriteMetrics
from ..faults import FaultAction, TransientError
from ..faults import execute as _execute_fault
from ..faults import take as _take_fault
from ..obs import ObsPayload, TaskContext, absorb, collect, count, observe, span, task_context
from ..traces.transport import TraceDescriptor, TraceExporter, attach_trace
from ..workloads.trace import ChunkSource, WriteTrace
from .runner import (
    chunk_group_size,
    chunk_stream,
    chunk_streams,
    evaluate_chunk_group,
    n_chunks_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (serve layers above this)
    from ..serve.results import ResultStore

logger = logging.getLogger(__name__)


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None``, ``0`` and ``-1`` all mean "use every available core" (the
    joblib convention); positive values are taken literally.
    """
    if n_jobs is None or n_jobs in (0, -1):
        return os.cpu_count() or 1
    if n_jobs < -1:
        raise ConfigurationError(f"n_jobs must be positive, 0, -1 or None: {n_jobs}")
    return int(n_jobs)


@dataclass(frozen=True)
class WorkUnit:
    """One independent piece of sweep work: a scheme evaluated on a trace.

    ``key`` labels the unit for reduction -- units sharing a key have their
    metrics merged (in submission order) by :meth:`ParallelRunner.run`.
    Typical keys: a scheme name, a benchmark name, a granularity, or a
    ``(sweep-point, role)`` tuple.

    ``trace`` is a materialised :class:`WriteTrace` or any re-iterable
    :class:`~repro.workloads.trace.ChunkSource`; units carrying a streaming
    source are dispatched through the bounded-window streaming path (see
    :meth:`ParallelRunner.map`).
    """

    key: Hashable
    encoder: WriteEncoder
    trace: Union[WriteTrace, ChunkSource]
    config: EvaluationConfig = DEFAULT_EVALUATION_CONFIG
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL


@dataclass(frozen=True)
class _Shard:
    """One chunk *group* of one work unit -- the granularity of dispatch.

    A shard spans one or more consecutive evaluation chunks (several when the
    config's super-batch accumulator coalesces them); ``chunk_index`` is the
    first chunk of the group and ``streams`` carries one RNG stream per
    member chunk.  The group's data travels either inline (``chunk``, the
    pickled fallback and the serial path) or by reference (``descriptor``
    naming a shared segment or corpus file plus the ``[start, stop)`` line
    range); the two are mutually exclusive.  ``array_backend`` re-selects the
    parent's kernel backend inside the worker process (the selection is
    thread-local state that does not travel with the fork/spawn).
    ``obs_ctx`` carries the parent's observation context (when tracing is
    active at dispatch) so the worker's spans stitch under the dispatching
    span; it is ``None`` -- and costs nothing -- otherwise.
    """

    unit_index: int
    chunk_index: int
    encoder: WriteEncoder
    disturbance_model: DisturbanceModel
    streams: Tuple[Optional[np.random.SeedSequence], ...]
    chunk_size: int
    chunk: Optional[WriteTrace] = None
    descriptor: Optional[TraceDescriptor] = None
    start: int = 0
    stop: int = 0
    array_backend: Optional[str] = None
    obs_ctx: Optional[TaskContext] = None
    #: ``config.fused_tile_lines`` of the owning unit -- lets the worker
    #: route an over-tile-sized group through the fused encode+metrics path.
    tile_lines: Optional[int] = None
    #: Fired fault directive riding on this dispatch (chaos testing only).
    #: Attached by the parent at shard-generation time -- dispatch order is
    #: deterministic, worker scheduling is not -- and stripped whenever the
    #: shard is resubmitted, so each planned fault fires exactly once and the
    #: recovery attempt runs clean.
    inject: Optional[FaultAction] = None


def _evaluate_shard(
    shard: _Shard,
) -> Tuple[int, int, List[WriteMetrics], Optional[ObsPayload]]:
    """Evaluate one shard; runs in a worker process (or inline when serial).

    The group is encoded in one ``encode_batch`` call; metrics come back *per
    chunk window* (not pre-merged), so the parent merges every chunk of every
    shard in exactly the serial submission order -- grouping chunks therefore
    cannot change a single float rounding, whatever the group size.

    The fourth element is the worker's observability payload: ``None`` unless
    the shard ran in a separate process during an active observation, in
    which case the parent absorbs it in the same submission order as the
    metrics, keeping the span/metric aggregation deterministic too.
    """
    if shard.inject is not None:
        _execute_fault(shard.inject)
    with collect(shard.obs_ctx) as collector:
        with span(
            "evaluate_shard",
            unit=shard.unit_index,
            chunk=shard.chunk_index,
            scheme=shard.encoder.name,
        ):
            chunk = shard.chunk
            if chunk is None:
                chunk = attach_trace(shard.descriptor)[shard.start:shard.stop]
            scope = (
                use_array_backend(shard.array_backend)
                if shard.array_backend is not None
                else nullcontext()
            )
            with scope:
                metrics = list(
                    evaluate_chunk_group(
                        shard.encoder,
                        chunk,
                        shard.streams,
                        shard.chunk_size,
                        shard.disturbance_model,
                        tile_lines=shard.tile_lines,
                    )
                )
    return shard.unit_index, shard.chunk_index, metrics, collector.payload()


def _arm_shard(shard: _Shard) -> _Shard:
    """Attach a fired fault directive to ``shard``, if the plan says so.

    Consulted once per generated shard, in the parent's deterministic
    generation order: the ``task`` site counts every shard, the ``attach``
    site additionally counts shards that will resolve a transport descriptor.
    No-ops (and costs one function call) when no fault plan is active.
    """
    action = _take_fault("task")
    if action is None and shard.descriptor is not None:
        action = _take_fault("attach")
    if action is None:
        return shard
    return replace(shard, inject=action)


def _strip_inject(item: Any) -> Any:
    """A copy of ``item`` without its fault directive (for resubmission)."""
    if isinstance(item, _Shard) and item.inject is not None:
        return replace(item, inject=None)
    return item


def _terminate_executor(executor: Executor) -> None:
    """Tear a (possibly broken or hung) pool down without blocking.

    A plain ``shutdown(wait=True)`` would block behind a hung worker, so the
    process backend's workers are terminated first; thread workers cannot be
    killed, so a hung thread is simply abandoned (its eventual result is
    discarded -- tasks are pure, so that is safe).
    """
    processes = getattr(executor, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead workers
                pass
    executor.shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True)
class _ExportedTrace:
    """Placeholder for a :class:`WriteTrace` argument of a ``starmap`` task.

    Carries the transport descriptor instead of the trace's arrays; the
    worker resolves it back into a (view-backed) trace via the per-process
    attachment cache before calling the task function.
    """

    descriptor: TraceDescriptor


def _call_star(
    task: Tuple[Callable[..., Any], Tuple, Optional[TaskContext]],
) -> Tuple[Any, Optional[ObsPayload]]:
    """Apply ``func(*args)``; module-level so it pickles into workers."""
    func, args, obs_ctx = task
    args = tuple(
        attach_trace(arg.descriptor) if isinstance(arg, _ExportedTrace) else arg
        for arg in args
    )
    with collect(obs_ctx) as collector:
        with span("starmap_task", task=getattr(func, "__name__", str(func))):
            result = func(*args)
    return result, collector.payload()


class ParallelRunner:
    """Fan (encoder x trace x sweep-point) work units out over worker processes.

    Parameters
    ----------
    n_jobs:
        Worker processes.  ``1`` (default) runs the exact serial path in the
        current process; ``None``, ``0`` or ``-1`` use every available core.
    backend:
        ``"process"`` (default) fans shards out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`; ``"thread"`` uses a
        :class:`~concurrent.futures.ThreadPoolExecutor` instead.  The encode
        hot path is vectorised ``numpy`` bit-twiddling that releases the GIL,
        so threads overlap almost as well as processes while skipping
        process start-up, pickling and trace export entirely (workers share
        the parent's memory) -- the right choice for small sweeps and
        short-lived runners.  Both backends share the submission-order
        reduction, so results are bit-identical across backends and worker
        counts.
    transport:
        How chunk data reaches the workers: ``"auto"`` (mmap for
        corpus-backed traces, shared memory for in-memory ones, pickling as
        fallback), ``"mmap"`` or ``"shm"`` to *request* exactly one
        descriptor kind (traces that cannot travel that way -- e.g. an
        in-memory trace under ``"mmap"`` -- silently fall back to pickling),
        or ``"pickle"`` to force the legacy behaviour everywhere.  The
        transport benchmark compares all three.  The thread backend ignores
        transport: chunks are shared memory already.
    persistent:
        Keep the process pool alive across ``run()``/``map()`` calls until
        :meth:`close` (entering the runner as a context manager implies
        this).  One-shot runners keep the historical
        build-and-tear-down-per-call behaviour.
    window:
        In-flight task cap of the *streaming* dispatch path (work units whose
        trace is a :class:`~repro.workloads.trace.ChunkSource` rather than a
        materialised trace).  At most ``window`` chunks exist between the
        producing iterator and the reducer at any moment -- the backpressure
        that bounds memory by ``window x chunk_size`` lines no matter how
        long the stream is.  Defaults to ``4 x n_jobs``.
    results_store:
        Optional :class:`~repro.serve.results.ResultStore` memoising
        per-unit metrics.  When set, :meth:`map` consults it before
        dispatching: units whose key hits return the stored metrics without
        touching the pool (zero ``encode_batch`` calls), misses evaluate
        normally -- with their original unit index, so RNG streams are
        unchanged -- and are written back.  Mutable; :func:`shared_runner`
        re-binds it on every acquisition so a store never leaks from one
        driver into the next.
    task_timeout:
        Per-task watchdog in seconds (``None``, the default, disables it).
        When the oldest in-flight task exceeds the timeout the pool is
        presumed hung: it is rebuilt and the lost work resubmitted, exactly
        like a broken pool.
    task_retries:
        Attempts beyond the first granted to a task failing with a
        :class:`~repro.faults.TransientError` before the error propagates.
    max_pool_rebuilds:
        Consecutive pool deaths (broken pool or watchdog timeout) tolerated
        before the runner degrades to in-process serial execution for the
        rest of the call instead of failing it.  Any successfully reduced
        task resets the count.
    retry_backoff_s:
        Base of the jittered exponential backoff slept before each pool
        rebuild (``base * 2**(n-1)``, +-50% jitter).

    **Self-healing.**  Worker failures do not abort a run: a broken process
    pool (e.g. an OOM-killed worker) or a watchdog timeout rebuilds the pool
    and resubmits only the tasks whose results have not been reduced yet; a
    task failing with a :class:`~repro.faults.TransientError` is retried on
    its own.  Because the reduction consumes results strictly in submission
    order and every task is a pure function of its shard, recovered runs
    are bit-identical to clean runs -- recovery is visible only as
    ``pool_rebuilds``/``tasks_retried``/``task_timeouts`` observability
    counters (and a logged warning when the runner degrades to serial).

    Results are bit-identical for every ``n_jobs`` value *and* every
    transport -- see the module docstring for how seeding and reduction order
    guarantee this.  Store hits are bit-identical too: records round-trip
    the raw metric accumulators through JSON ``repr`` exactly.
    """

    def __init__(
        self,
        n_jobs: int = 1,
        transport: str = "auto",
        persistent: bool = False,
        window: Optional[int] = None,
        backend: str = "process",
        results_store: Optional["ResultStore"] = None,
        task_timeout: Optional[float] = None,
        task_retries: int = 2,
        max_pool_rebuilds: int = 3,
        retry_backoff_s: float = 0.1,
    ):
        self.n_jobs = resolve_n_jobs(n_jobs)
        if transport not in ("auto", "mmap", "shm", "pickle"):
            raise ConfigurationError(f"unknown transport {transport!r}")
        self.transport = transport
        if backend not in ("process", "thread"):
            raise ConfigurationError(
                f"unknown backend {backend!r} (choose 'process' or 'thread')"
            )
        self.backend = backend
        self.persistent = persistent
        if window is not None and window < 1:
            raise ConfigurationError(f"window must be a positive integer: {window}")
        self.window = window
        self.results_store = results_store
        if task_timeout is not None and not task_timeout > 0:
            raise ConfigurationError(f"task_timeout must be positive: {task_timeout}")
        self.task_timeout = task_timeout
        if task_retries < 0:
            raise ConfigurationError(f"task_retries must be >= 0: {task_retries}")
        self.task_retries = task_retries
        if max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0: {max_pool_rebuilds}"
            )
        self.max_pool_rebuilds = max_pool_rebuilds
        self.retry_backoff_s = retry_backoff_s
        self._executor: Optional[Executor] = None
        self._exporter: Optional[TraceExporter] = None
        self._enter_depth = 0
        self._persistent_before_enter = persistent

    # ------------------------------------------------------------------ #
    # Pool lifetime
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ParallelRunner":
        # Depth-counted so nested `with` blocks on one runner neither close
        # the pool mid-outer-block nor clobber the saved mode.
        if self._enter_depth == 0:
            self._persistent_before_enter = self.persistent
            self.persistent = True
        self._enter_depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._enter_depth -= 1
        if self._enter_depth > 0:
            return
        self.close()
        # Restore the pre-enter mode: a runner reused after its `with` block
        # behaves like one-shot again instead of silently rebuilding a pool
        # and exporter that nothing would ever shut down.
        self.persistent = self._persistent_before_enter

    def close(self) -> None:
        """Shut down the persistent worker pool and exports (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._exporter is not None:
            self._exporter.release()
            self._exporter = None

    # ------------------------------------------------------------------ #
    # Work-unit evaluation
    # ------------------------------------------------------------------ #
    def _shards(
        self,
        units: Sequence[WorkUnit],
        descriptors: Optional[Sequence[Optional[TraceDescriptor]]] = None,
        obs_ctx: Optional[TaskContext] = None,
        rng_indices: Optional[Sequence[int]] = None,
    ) -> Iterator[_Shard]:
        # ``rng_indices`` decouples a unit's RNG identity from its position
        # in this call: when the result store serves some units from cache,
        # the misses still seed their disturbance streams from the index
        # they hold in the *full* unit list, keeping sampled results
        # bit-identical to an uncached run.
        for unit_index, unit in enumerate(units):
            n_chunks = n_chunks_of(unit.trace, unit.config)
            rng_index = rng_indices[unit_index] if rng_indices is not None else unit_index
            streams = chunk_streams(unit.config, n_chunks, rng_index)
            descriptor = descriptors[unit_index] if descriptors else None
            chunk_size = unit.config.chunk_size
            group_chunks = chunk_group_size(unit.config)
            for first in range(0, n_chunks, group_chunks):
                members = range(first, min(n_chunks, first + group_chunks))
                group_streams = tuple(streams[index] for index in members)
                start = first * chunk_size
                stop = min(len(unit.trace), (first + len(members)) * chunk_size)
                if descriptor is not None:
                    shard = _Shard(
                        unit_index=unit_index,
                        chunk_index=first,
                        encoder=unit.encoder,
                        disturbance_model=unit.disturbance_model,
                        streams=group_streams,
                        chunk_size=chunk_size,
                        descriptor=descriptor,
                        start=start,
                        stop=stop,
                        array_backend=unit.config.array_backend,
                        obs_ctx=obs_ctx,
                        tile_lines=unit.config.fused_tile_lines,
                    )
                else:
                    shard = _Shard(
                        unit_index=unit_index,
                        chunk_index=first,
                        encoder=unit.encoder,
                        disturbance_model=unit.disturbance_model,
                        streams=group_streams,
                        chunk_size=chunk_size,
                        chunk=unit.trace[start:stop],
                        array_backend=unit.config.array_backend,
                        obs_ctx=obs_ctx,
                        tile_lines=unit.config.fused_tile_lines,
                    )
                yield _arm_shard(shard)

    def map(self, units: Sequence[WorkUnit]) -> List[WriteMetrics]:
        """Evaluate every unit and return one :class:`WriteMetrics` per unit.

        ``map(units)[i]`` equals
        ``evaluate_trace(units[i].encoder, units[i].trace, ..., unit_index=i)``
        exactly, for any ``n_jobs`` and any transport.

        Units whose trace is a streaming :class:`~repro.workloads.trace
        .ChunkSource` (no ``len``, chunks produced on the fly) are dispatched
        through the bounded-window streaming path; a call mixing streaming
        and materialised units runs entirely on that path (materialised
        traces then travel pickled per chunk instead of zero-copy, which is
        correct but slower -- keep streaming sources in their own call when
        that matters).

        With a :attr:`results_store` attached, units whose key hits the
        store return memoised metrics without dispatching (streaming units
        are never memoised -- their key would cost a full extra pass); the
        misses evaluate under their original unit index and are written
        back, so a partially cached call is still bit-identical to a fresh
        one.
        """
        units = list(units)
        store = self.results_store
        if store is None:
            return self._map_compute(units, None)
        results: List[Optional[WriteMetrics]] = [None] * len(units)
        misses: List[Tuple[int, WorkUnit, Any]] = []
        for index, unit in enumerate(units):
            key = store.unit_key(unit, index)
            cached = store.get(key) if key is not None else None
            if cached is not None:
                results[index] = cached
            else:
                misses.append((index, unit, key))
        if misses:
            computed = self._map_compute(
                [unit for _, unit, _ in misses],
                [index for index, _, _ in misses],
            )
            for (index, _, key), metrics in zip(misses, computed):
                results[index] = metrics
                if key is not None:
                    store.put(key, metrics)
        return results

    def _map_compute(
        self, units: List[WorkUnit], rng_indices: Optional[List[int]]
    ) -> List[WriteMetrics]:
        """Evaluate ``units`` for real (no store consultation).

        ``rng_indices`` carries each unit's index in the caller's full unit
        list (``None`` means positions); disturbance-sampling streams are
        seeded from it so cache-partial calls reproduce the uncached run.
        """
        if any(not isinstance(unit.trace, WriteTrace) for unit in units):
            return self._map_streaming(units, rng_indices)
        per_unit = [WriteMetrics() for _ in units]
        exporter = None
        map_span = span(
            "parallel_map", units=len(units), n_jobs=self.n_jobs, backend=self.backend
        )
        try:
            map_span.__enter__()
            obs_ctx = task_context()
            descriptors = None
            total_shards = sum(
                -(-n_chunks_of(unit.trace, unit.config) // chunk_group_size(unit.config))
                for unit in units
            )
            # Export only when _execute will actually dispatch to worker
            # *processes*; thread workers share the parent's memory, so the
            # shm copy (and the parent-side attachment it would leave in the
            # worker cache) would be pure waste for them too.
            if (
                self.backend == "process"
                and self.n_jobs > 1
                and total_shards > 1
                and self.transport != "pickle"
            ):
                exporter = self._acquire_exporter()
                descriptors = [exporter.export(unit.trace) for unit in units]
            shards = list(self._shards(units, descriptors, obs_ctx, rng_indices))
            for unit_index, _, group_metrics, payload in self._execute(
                _evaluate_shard, shards
            ):
                absorb(payload)
                for metrics in group_metrics:
                    per_unit[unit_index].merge(metrics)
        finally:
            map_span.__exit__(None, None, None)
            if exporter is not None and exporter is not self._exporter:
                exporter.release()
            elif self._exporter is not None:
                # Keep this call's exports for reuse next run(); drop the
                # rest so looping over ever-new traces can't grow /dev/shm.
                # This prunes even when *this* call exported nothing, so a
                # persistent runner that did one big exporting sweep cannot
                # pin that trace's shm segment through later small calls.
                self._exporter.prune(id(unit.trace) for unit in units)
        return per_unit

    def _acquire_exporter(self) -> TraceExporter:
        """The exporter for this call: cached for persistent runners.

        A persistent runner keeps one exporter for its whole lifetime, so
        repeated ``run()`` calls over the same (memoised) traces reuse one
        shared-memory segment per trace -- stable descriptors also mean the
        workers' attachment caches hit instead of accumulating stale
        segments.  One-shot runners release their exports per call.
        """
        if self.persistent:
            if self._exporter is None:
                self._exporter = TraceExporter(self.transport)
            return self._exporter
        return TraceExporter(self.transport)

    def _map_streaming(
        self,
        units: Sequence[WorkUnit],
        rng_indices: Optional[Sequence[int]] = None,
    ) -> List[WriteMetrics]:
        """Evaluate units whose chunks are produced on the fly.

        Shards are generated lazily -- unit by unit, chunk by chunk, in
        exactly the serial order -- and dispatched with at most
        :attr:`window` in flight (:meth:`_execute_windowed`), so ingest and
        synthesis advance only as fast as the workers drain them and the
        whole pipeline never holds more than ``window`` chunks.  Results are
        reduced in submission order, which keeps the metrics bit-identical
        to the serial path for any ``n_jobs``.
        """
        per_unit = [WriteMetrics() for _ in units]

        with span(
            "map_streaming", units=len(units), n_jobs=self.n_jobs, backend=self.backend
        ):
            obs_ctx = task_context()

            def shards() -> Iterator[_Shard]:
                for unit_index, unit in enumerate(units):
                    rng_index = (
                        rng_indices[unit_index]
                        if rng_indices is not None
                        else unit_index
                    )
                    chunk_size = unit.config.chunk_size
                    group_chunks = chunk_group_size(unit.config)
                    buffer: List[WriteTrace] = []
                    first_index = 0

                    def group_shard() -> _Shard:
                        group = (
                            buffer[0] if len(buffer) == 1 else WriteTrace.concat(buffer)
                        )
                        return _arm_shard(_Shard(
                            unit_index=unit_index,
                            chunk_index=first_index,
                            encoder=unit.encoder,
                            disturbance_model=unit.disturbance_model,
                            streams=tuple(
                                chunk_stream(
                                    unit.config, rng_index, first_index + offset
                                )
                                for offset in range(len(buffer))
                            ),
                            chunk_size=chunk_size,
                            chunk=group,
                            array_backend=unit.config.array_backend,
                            obs_ctx=obs_ctx,
                            tile_lines=unit.config.fused_tile_lines,
                        ))

                    for chunk_index, chunk in enumerate(unit.trace.chunks(chunk_size)):
                        if not buffer:
                            first_index = chunk_index
                        buffer.append(chunk)
                        if len(buffer) >= group_chunks:
                            yield group_shard()
                            buffer = []
                    if buffer:
                        yield group_shard()

            for unit_index, _, group_metrics, payload in self._execute_windowed(
                _evaluate_shard, shards()
            ):
                absorb(payload)
                for metrics in group_metrics:
                    per_unit[unit_index].merge(metrics)
        return per_unit

    def run(self, units: Sequence[WorkUnit]) -> Dict[Hashable, WriteMetrics]:
        """Evaluate every unit and reduce the results by ``unit.key``.

        Keys appear in first-submission order; units sharing a key are merged
        in submission order (so e.g. per-granularity totals accumulate their
        traces exactly like the serial sweep loop did).
        """
        units = list(units)
        reduced: Dict[Hashable, WriteMetrics] = {}
        for unit, metrics in zip(units, self.map(units)):
            reduced.setdefault(unit.key, WriteMetrics()).merge(metrics)
        return reduced

    # ------------------------------------------------------------------ #
    # Generic fan-out
    # ------------------------------------------------------------------ #
    def starmap(self, func: Callable[..., Any], tasks: Iterable[Tuple]) -> List[Any]:
        """Apply ``func(*args)`` to every args-tuple, preserving order.

        Used by sweep helpers whose work is not metric-shaped (e.g. the
        compression-coverage study).  ``func`` must be picklable
        (module-level) when ``n_jobs > 1``.

        Any :class:`WriteTrace` argument rides the zero-copy transport: the
        parent exports it once (shared-memory segment or mmap descriptor,
        per the runner's ``transport`` policy) and workers receive a
        ~100-byte handle they resolve via the per-process attachment cache,
        instead of each task pickling the trace's arrays.  Traces the policy
        cannot carry fall back to pickling transparently; results are
        identical either way.
        """
        tasks = [tuple(args) for args in tasks]
        dispatching = (
            self.backend == "process"
            and self.n_jobs > 1
            and len(tasks) > 1
            and self.transport != "pickle"
        )
        with span("starmap", tasks=len(tasks), n_jobs=self.n_jobs, backend=self.backend):
            obs_ctx = task_context()
            if not dispatching:
                return self._collect_star(
                    self._execute(_call_star, [(func, args, obs_ctx) for args in tasks])
                )
            exporter = self._acquire_exporter()
            try:
                wrapped = [
                    (
                        func,
                        tuple(self._export_arg(arg, exporter) for arg in args),
                        obs_ctx,
                    )
                    for args in tasks
                ]
                return self._collect_star(self._execute(_call_star, wrapped))
            finally:
                if exporter is not self._exporter:
                    exporter.release()
                elif self._exporter is not None:
                    self._exporter.prune(
                        id(arg) for args in tasks for arg in args
                        if isinstance(arg, WriteTrace)
                    )

    @staticmethod
    def _collect_star(results: Iterator[Tuple[Any, Optional[ObsPayload]]]) -> List[Any]:
        """Unwrap ``_call_star`` results, absorbing worker payloads in order."""
        values = []
        for value, payload in results:
            absorb(payload)
            values.append(value)
        return values

    @staticmethod
    def _export_arg(arg: Any, exporter: TraceExporter) -> Any:
        if isinstance(arg, WriteTrace):
            descriptor = exporter.export(arg)
            if descriptor is not None:
                return _ExportedTrace(descriptor)
        return arg

    # ------------------------------------------------------------------ #
    # Execution backend
    # ------------------------------------------------------------------ #
    def _make_executor(self, max_workers: int) -> Executor:
        """Build the worker pool of the configured :attr:`backend`."""
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    def _execute(self, worker: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
        """Run ``worker`` over ``items`` serially or on the worker pool.

        Always yields results in input order, which the metric reduction
        relies on for float determinism -- on both backends.  A persistent
        runner reuses one lazily created pool across calls; a one-shot
        runner builds and tears the pool down per call, as before.  Worker
        failures self-heal (see the class docstring).
        """
        if self.n_jobs == 1 or len(items) <= 1:
            for item in items:
                yield self._run_serial_item(worker, item)
            return
        yield from self._run_resilient(worker, iter(items), window=len(items))

    def _execute_windowed(
        self, worker: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[Any]:
        """Run ``worker`` over a lazily produced stream with backpressure.

        Unlike :meth:`_execute` (which materialises its items and submits
        everything upfront), this pulls from ``items`` only while fewer than
        :attr:`window` tasks are in flight and yields results in submission
        order -- the producer, the pool and the reducer stay within a bounded
        number of chunks of each other no matter how long the stream is.
        ``n_jobs=1`` consumes the stream inline, one item at a time.
        """
        if self.n_jobs == 1:
            for item in items:
                yield self._run_serial_item(worker, item)
            return
        yield from self._run_resilient(
            worker, iter(items), window=self.window or 4 * self.n_jobs
        )

    def _run_serial_item(self, worker: Callable[[Any], Any], item: Any) -> Any:
        """Execute one task inline, retrying bounded transient failures."""
        attempts = 0
        while True:
            try:
                return worker(item)
            except TransientError:
                attempts += 1
                if attempts > self.task_retries:
                    raise
                count("tasks_retried")
                item = _strip_inject(item)

    def _run_resilient(
        self, worker: Callable[[Any], Any], items: Iterator[Any], window: int
    ) -> Iterator[Any]:
        """The pooled execution engine: windowed dispatch that self-heals.

        Tasks are submitted individually (at most ``window`` in flight) and
        results are consumed strictly from the *oldest* outstanding future,
        so yields happen in submission order whatever the completion order --
        the invariant every reduction above this relies on.  Waiting only on
        the head is also what makes recovery deterministic: when the head
        fails (broken pool, watchdog timeout, transient task error) nothing
        newer has been reduced yet, so rebuilding the pool and resubmitting
        the outstanding items -- in their original order, directives
        stripped -- replays the exact same reduction.  After
        :attr:`max_pool_rebuilds` *consecutive* pool deaths the engine
        degrades to inline serial execution of everything left instead of
        failing the run.
        """
        pending: "deque[List[Any]]" = deque()  # [item, future] in submit order
        exhausted = False
        consecutive_rebuilds = 0
        executor: Optional[Executor] = None

        def pool() -> Executor:
            nonlocal executor
            if self.persistent:
                if self._executor is None:
                    self._executor = self._make_executor(self.n_jobs)
                return self._executor
            if executor is None:
                executor = self._make_executor(self.n_jobs)
            return executor

        def discard_pool() -> None:
            nonlocal executor
            if self.persistent:
                if self._executor is not None:
                    _terminate_executor(self._executor)
                    self._executor = None
            elif executor is not None:
                _terminate_executor(executor)
                executor = None

        def rebuild_and_resubmit(reason: str) -> bool:
            """Heal a dead pool; False once the rebuild budget is spent."""
            nonlocal consecutive_rebuilds
            consecutive_rebuilds += 1
            discard_pool()
            if consecutive_rebuilds > self.max_pool_rebuilds:
                return False
            count("pool_rebuilds")
            count("tasks_retried", len(pending))
            logger.warning(
                "worker pool died (%s); rebuild %d/%d, resubmitting %d task(s)",
                reason,
                consecutive_rebuilds,
                self.max_pool_rebuilds,
                len(pending),
            )
            backoff = self.retry_backoff_s * 2 ** (consecutive_rebuilds - 1)
            time.sleep(backoff * (0.5 + random.random()))
            for entry in pending:
                entry[0] = _strip_inject(entry[0])
                entry[1] = pool().submit(worker, entry[0])
            return True

        try:
            while True:
                while not exhausted and len(pending) < window:
                    try:
                        item = next(items)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append([item, pool().submit(worker, item)])
                    observe("window_occupancy", len(pending))
                if not pending:
                    return
                if not exhausted and len(pending) >= window:
                    # The producer is ahead of the drain: the blocking wait
                    # below is the backpressure that bounds streaming memory.
                    count("backpressure_stalls")
                head = pending[0]
                future: Future = head[1]
                try:
                    result = future.result(timeout=self.task_timeout)
                except FuturesTimeoutError:
                    count("task_timeouts")
                    if not rebuild_and_resubmit(
                        f"task exceeded task_timeout={self.task_timeout:g}s"
                    ):
                        break
                except BrokenProcessPool:
                    if not rebuild_and_resubmit("broken process pool"):
                        break
                except TransientError:
                    # Only this task failed; retry it alone (bounded), still
                    # waiting on it first so the yield order is unchanged.
                    if len(head) < 3:
                        head.append(0)
                    head[2] += 1
                    if head[2] > self.task_retries:
                        raise
                    count("tasks_retried")
                    head[0] = _strip_inject(head[0])
                    head[1] = pool().submit(worker, head[0])
                else:
                    consecutive_rebuilds = 0
                    pending.popleft()
                    yield result
        finally:
            if not self.persistent and executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)

        # Rebuild budget exhausted: degrade to serial for everything left
        # rather than failing the run.  Outstanding futures were discarded
        # with the pool; their items re-run inline (directives stripped), in
        # order, so the reduction is still bit-identical.
        count("pool_degraded")
        logger.warning(
            "worker pool died %d consecutive times; degrading to serial "
            "execution for the remaining %d+ task(s)",
            consecutive_rebuilds,
            len(pending),
        )
        for entry in pending:
            yield self._run_serial_item(worker, _strip_inject(entry[0]))
        pending.clear()
        for item in items:
            yield self._run_serial_item(worker, item)


# ---------------------------------------------------------------------- #
# Shared persistent runners
# ---------------------------------------------------------------------- #
_SHARED_RUNNERS: Dict[Tuple[int, str], ParallelRunner] = {}


def shared_runner(
    n_jobs: int = 1,
    backend: str = "process",
    results_store: Optional["ResultStore"] = None,
    task_timeout: Optional[float] = None,
) -> ParallelRunner:
    """The process-wide persistent runner for ``n_jobs`` workers.

    Experiment drivers and sweep helpers route their fan-outs through this
    so that one executor is built per ``(worker count, backend)`` and reused
    across every ``run()`` call of the session, instead of paying pool
    start-up per sweep.  Pools are torn down at interpreter exit (or
    explicitly via :func:`shutdown_shared_runners`).

    ``results_store`` and ``task_timeout`` are re-bound on *every*
    acquisition (including to ``None``): the pool is shared session state,
    but the memoisation and watchdog policies are per caller, and a value
    left attached by one driver must not silently apply to the next.
    """
    jobs = resolve_n_jobs(n_jobs)
    key = (jobs, backend)
    runner = _SHARED_RUNNERS.get(key)
    if runner is None:
        runner = ParallelRunner(jobs, persistent=True, backend=backend)
        _SHARED_RUNNERS[key] = runner
    runner.results_store = results_store
    runner.task_timeout = task_timeout
    return runner


def shutdown_shared_runners() -> None:
    """Close every pool created by :func:`shared_runner` (idempotent)."""
    for runner in _SHARED_RUNNERS.values():
        runner.close()
    _SHARED_RUNNERS.clear()


atexit.register(shutdown_shared_runners)

