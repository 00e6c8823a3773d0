"""Tests of the zero-copy trace transport and its engine integration.

The transport's contract is the engine's contract: whatever moves the chunk
data -- pickling, a shared-memory segment, or an mmap'd corpus file -- the
reduced :class:`WriteMetrics` are bit-identical for every ``n_jobs``.  The
property test at the bottom asserts exactly the ISSUE's acceptance criterion:
mmap-backed and in-memory traces produce identical metrics at ``n_jobs=1``
and ``n_jobs=4``.
"""

import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import make_scheme
from repro.core.config import EvaluationConfig
from repro.core.errors import TraceError
from repro.core.line import LineBatch
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.evaluation.runner import evaluate_trace
from repro.traces import transport as transport_module
from repro.traces.store import load_trace, save_trace
from repro.traces.transport import (
    MmapTraceDescriptor,
    ShmTraceDescriptor,
    TraceExporter,
    attach_trace,
    shared_memory_available,
)
from repro.workloads.generator import generate_benchmark_trace
from repro.workloads.trace import WriteTrace

CONFIG = EvaluationConfig(chunk_size=32)
MC_CONFIG = EvaluationConfig(chunk_size=32, sample_disturbance=True, seed=3)


def _trace(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return WriteTrace(
        old=LineBatch.random(n, rng),
        new=LineBatch.random(n, rng),
        addresses=np.arange(n, dtype=np.uint64) * 64,
        name="transport-unit",
    )


class TestExporter:
    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
    def test_shm_roundtrip(self):
        trace = _trace()
        with TraceExporter("shm") as exporter:
            descriptor = exporter.export(trace)
            assert isinstance(descriptor, ShmTraceDescriptor)
            attached = attach_trace(descriptor)
            assert attached.old == trace.old
            assert attached.new == trace.new
            assert np.array_equal(attached.addresses, trace.addresses)

    def test_mmap_descriptor_for_corpus_trace(self, tmp_path):
        trace = load_trace(save_trace(_trace(), tmp_path / "t.wtrc"))
        with TraceExporter("auto") as exporter:
            descriptor = exporter.export(trace)
            assert isinstance(descriptor, MmapTraceDescriptor)
            attached = attach_trace(descriptor)
            assert attached.old == trace.old
            assert attached.new == trace.new

    def test_pickle_policy_exports_nothing(self):
        with TraceExporter("pickle") as exporter:
            assert exporter.export(_trace()) is None

    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
    def test_export_is_cached_per_trace_object(self):
        trace = _trace()
        with TraceExporter("shm") as exporter:
            assert exporter.export(trace) is exporter.export(trace)
            assert len(exporter._by_trace) == 1

    def test_sliced_corpus_trace_falls_back(self, tmp_path):
        """A slice no longer matches the file layout, so mmap is refused."""
        trace = load_trace(save_trace(_trace(), tmp_path / "t.wtrc"))
        part = trace[:10]
        with TraceExporter("mmap") as exporter:
            assert not isinstance(exporter.export(part), MmapTraceDescriptor)

    def test_overwritten_corpus_file_gets_fresh_descriptor(self, tmp_path):
        """Same path + same length but new contents must not hit a stale cache."""
        path = tmp_path / "t.wtrc"
        first = load_trace(save_trace(_trace(seed=1), path))
        with TraceExporter("mmap") as exporter:
            d1 = exporter.export(first)
            attach_trace(d1)
        import os

        save_trace(_trace(seed=2), path)
        os.utime(path, ns=(1, 1))  # force a distinct mtime even on coarse clocks
        second = load_trace(path)
        with TraceExporter("mmap") as exporter:
            d2 = exporter.export(second)
            assert d2 != d1  # different descriptor => no stale cache hit
            assert attach_trace(d2).new == second.new

    def test_export_refuses_path_overwritten_after_load(self, tmp_path):
        """A loaded trace whose file was since replaced must not ship its path."""
        import os

        path = tmp_path / "t.wtrc"
        trace = load_trace(save_trace(_trace(seed=1), path))
        save_trace(_trace(seed=2), path)  # same layout, new inode/contents
        os.utime(path, ns=(3, 3))
        with TraceExporter("auto") as exporter:
            descriptor = exporter.export(trace)
            # falls back to shm (or pickling), never an mmap of the new file
            assert not isinstance(descriptor, MmapTraceDescriptor)
            if descriptor is not None:
                assert attach_trace(descriptor).new == trace.new

    def test_attach_rejects_file_overwritten_after_export(self, tmp_path):
        """A same-layout overwrite between export and attach must error."""
        import os

        path = tmp_path / "t.wtrc"
        trace = load_trace(save_trace(_trace(seed=1), path))
        with TraceExporter("mmap") as exporter:
            descriptor = exporter.export(trace)
            save_trace(_trace(seed=2), path)  # same length => same layout
            os.utime(path, ns=(2, 2))
            with pytest.raises(TraceError, match="changed since it was exported"):
                attach_trace(descriptor)

    def test_bad_policy_rejected(self):
        with pytest.raises(TraceError):
            TraceExporter("carrier-pigeon")

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(TraceError):
            attach_trace(object())


@pytest.mark.skipif(not shared_memory_available(), reason="no shared memory")
class TestAttachCacheEviction:
    """Evicting a worker attachment must close its segment cleanly.

    ``SharedMemory.close()`` raises ``BufferError`` while numpy views into
    the segment are alive; a handle dropped in that state raises again from
    ``__del__``, where Python can only report it as unraisable.
    """

    @pytest.fixture
    def unraisable(self, monkeypatch):
        seen = []
        monkeypatch.setattr(sys, "unraisablehook", seen.append)
        yield seen
        gc.collect()

    def _export_past_capacity(self, exporter, extra=4):
        traces = [
            _trace(n=8, seed=seed)
            for seed in range(transport_module._ATTACH_CACHE_SIZE + extra)
        ]
        return traces, [exporter.export(trace) for trace in traces]

    def test_eviction_raises_no_unraisable_buffer_error(self, unraisable):
        with TraceExporter("shm") as exporter:
            traces, descriptors = self._export_past_capacity(exporter)
            for trace, descriptor in zip(traces, descriptors):
                assert attach_trace(descriptor).new == trace.new
            gc.collect()
        assert unraisable == []
        assert transport_module._PENDING_CLOSE == []

    def test_close_is_deferred_while_a_view_is_held(self, unraisable):
        with TraceExporter("shm") as exporter:
            traces, descriptors = self._export_past_capacity(exporter)
            held = attach_trace(descriptors[0])
            for descriptor in descriptors[1:]:
                attach_trace(descriptor)
            assert descriptors[0] not in transport_module._ATTACHED
            assert len(transport_module._PENDING_CLOSE) == 1
            assert held.new == traces[0].new  # the evicted views stay readable
            del held
            attach_trace(descriptors[0])  # the next attach closes the handle
            assert transport_module._PENDING_CLOSE == []
            gc.collect()
        assert unraisable == []


class TestEngineTransports:
    """All four transport policies agree with the serial reference."""

    @pytest.mark.parametrize("transport", ["auto", "shm", "mmap", "pickle"])
    def test_in_memory_trace(self, gcc_trace, transport):
        trace = gcc_trace[:128]
        encoder = make_scheme("wlcrc-16")
        reference = evaluate_trace(encoder, trace, CONFIG)
        result = ParallelRunner(4, transport=transport).map(
            [WorkUnit("k", encoder, trace, CONFIG)]
        )[0]
        assert result == reference

    @pytest.mark.parametrize("transport", ["auto", "shm", "mmap", "pickle"])
    def test_corpus_backed_trace(self, gcc_trace, transport, tmp_path):
        trace = load_trace(save_trace(gcc_trace[:128], tmp_path / "t.wtrc"))
        encoder = make_scheme("wlcrc-16")
        reference = evaluate_trace(encoder, gcc_trace[:128], CONFIG)
        result = ParallelRunner(4, transport=transport).map(
            [WorkUnit("k", encoder, trace, CONFIG)]
        )[0]
        assert result == reference

    def test_monte_carlo_streams_survive_transport(self, gcc_trace, tmp_path):
        trace = load_trace(save_trace(gcc_trace[:128], tmp_path / "t.wtrc"))
        encoder = make_scheme("baseline")
        reference = evaluate_trace(encoder, gcc_trace[:128], MC_CONFIG)
        for transport in ("shm", "mmap"):
            result = ParallelRunner(4, transport=transport).map(
                [WorkUnit("k", encoder, trace, MC_CONFIG)]
            )[0]
            assert result == reference, transport


class TestInlineShortCircuit:
    def test_single_shard_unit_skips_export(self, gcc_trace):
        """One-chunk work runs inline; no shm copy or parent attachment."""
        import repro.traces.transport as transport_module

        before = len(transport_module._ATTACHED)
        runner = ParallelRunner(4, transport="shm")
        trace = gcc_trace[:16]  # a single chunk under CONFIG
        reference = evaluate_trace(make_scheme("baseline"), trace, CONFIG)
        result = runner.map([WorkUnit("k", make_scheme("baseline"), trace, CONFIG)])[0]
        assert result == reference
        assert len(transport_module._ATTACHED) == before


class TestPersistentPool:
    def test_persistent_runner_reuses_exports(self, gcc_trace):
        """Repeated run() calls over the same trace share one shm segment."""
        encoder = make_scheme("baseline")
        trace = gcc_trace[:128]
        units = [WorkUnit("k", encoder, trace, CONFIG)]
        with ParallelRunner(2, transport="shm") as runner:
            first = runner.run(units)["k"]
            assert len(runner._exporter._by_trace) == 1
            descriptor = runner._exporter.export(trace)
            second = runner.run(units)["k"]
            # no re-export: same cached descriptor, still exactly one entry
            assert runner._exporter.export(trace) is descriptor
            assert len(runner._exporter._by_trace) == 1
            assert first == second
        assert runner._exporter is None  # released on close

    def test_persistent_runner_prunes_stale_exports(self, gcc_trace, libq_trace):
        """Looping over ever-new traces must not pin old shm segments."""
        encoder = make_scheme("baseline")
        with ParallelRunner(2, transport="shm") as runner:
            runner.run([WorkUnit("k", encoder, gcc_trace[:128], CONFIG)])
            runner.run([WorkUnit("k", encoder, libq_trace[:128], CONFIG)])
            # only the latest run's trace remains exported
            assert len(runner._exporter._by_trace) == 1
            (kept,) = [t for t, _, _ in runner._exporter._by_trace.values()]
            assert kept.new == libq_trace[:128].new

    def test_broken_pool_self_heals(self, gcc_trace):
        """A dead pool is rebuilt mid-run and the lost work resubmitted."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class _BrokenExecutor:
            def submit(self, *args, **kwargs):
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, *args, **kwargs):
                pass

        encoder = make_scheme("baseline")
        units = [WorkUnit("k", encoder, gcc_trace[:128], CONFIG)]
        runner = ParallelRunner(2, persistent=True, retry_backoff_s=0.001)
        broken = _BrokenExecutor()
        runner._executor = broken
        reference = evaluate_trace(encoder, gcc_trace[:128], CONFIG)
        # The run completes despite starting on a dead pool: the engine
        # discards it, builds a fresh one and resubmits the lost shards.
        assert runner.run(units)["k"] == reference
        assert runner._executor is not broken  # broken pool discarded
        assert runner.run(units)["k"] == reference  # still healthy after
        runner.close()

    def test_pool_survives_across_runs(self, gcc_trace):
        encoder = make_scheme("baseline")
        units = [WorkUnit("k", encoder, gcc_trace[:96], CONFIG)]
        with ParallelRunner(2) as runner:
            first = runner.run(units)["k"]
            executor = runner._executor
            assert executor is not None
            second = runner.run(units)["k"]
            assert runner._executor is executor
            assert first == second
        assert runner._executor is None  # closed on exit

    def test_runner_reverts_to_one_shot_after_with_block(self, gcc_trace):
        runner = ParallelRunner(2)
        units = [WorkUnit("k", make_scheme("baseline"), gcc_trace[:96], CONFIG)]
        with runner:
            runner.run(units)
        assert runner.persistent is False
        runner.run(units)  # one-shot again: nothing left running
        assert runner._executor is None
        assert runner._exporter is None

    def test_nested_with_blocks_are_depth_counted(self, gcc_trace):
        runner = ParallelRunner(2)
        units = [WorkUnit("k", make_scheme("baseline"), gcc_trace[:96], CONFIG)]
        with runner:
            with runner:
                runner.run(units)
            # inner exit must not tear the pool down mid-outer-block
            assert runner.persistent is True
            assert runner._executor is not None
        assert runner.persistent is False
        assert runner._executor is None

    def test_one_shot_runner_keeps_teardown_semantics(self, gcc_trace):
        runner = ParallelRunner(2)
        runner.run([WorkUnit("k", make_scheme("baseline"), gcc_trace[:96], CONFIG)])
        assert runner._executor is None

    def test_close_is_idempotent(self):
        runner = ParallelRunner(2, persistent=True)
        runner.close()
        runner.close()


class TestBitIdenticalProperty:
    """Acceptance: mmap-backed == in-memory, at n_jobs=1 and n_jobs=4."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        length=st.integers(min_value=1, max_value=96),
        scheme=st.sampled_from(["baseline", "wlcrc-16", "6cosets"]),
    )
    def test_mmap_and_memory_agree_for_all_n_jobs(self, tmp_path_factory, seed, length, scheme):
        tmp_path = tmp_path_factory.mktemp("prop")
        in_memory = generate_benchmark_trace("gcc", length, seed)
        mmap_backed = load_trace(save_trace(in_memory, tmp_path / "t.wtrc"))
        encoder = make_scheme(scheme)
        results = [
            ParallelRunner(n_jobs).map([WorkUnit("k", encoder, trace, CONFIG)])[0]
            for n_jobs in (1, 4)
            for trace in (in_memory, mmap_backed)
        ]
        assert all(result == results[0] for result in results[1:])
