"""Fused encode+metrics contract tests: fused == materialising, bit for bit.

The fused tiled path (:func:`repro.evaluation.runner.encode_metrics_batch`)
promises the same guarantee the array backends and the parallel engine make:
switching it on can only change peak memory, never a single metric bit.  The
properties here sweep every opted-in encoder family over granularities 8..512,
chunk/tile geometries (including ragged tails and empty groups), Monte-Carlo
disturbance sampling, every built-in array backend (skip-with-reason when
the optional dependency is absent), and worker counts 1 and 4 -- always
comparing against the materialising reference path.

The satellite rewrite of :func:`metrics_from_encoded` (single masked-sum pass
replacing the historical pair of ``np.where`` scans) is held to the same
standard against the old formulas directly.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import make_scheme
from repro.coding.din import DINEncoder
from repro.compression.backend import (
    BackendUnavailableError,
    backend_names,
    get_backend,
    use_array_backend,
)
from repro.core.config import EvaluationConfig
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.evaluation.runner import (
    chunk_streams,
    encode_metrics_batch,
    evaluate_chunk_group,
    evaluate_trace,
    fused_tile_size,
    metrics_from_encoded,
)
from repro.obs import observation
from repro.workloads.generator import generate_benchmark_trace

#: Coset schemes driven through the fused path, spanning every front end,
#: aux codec and selection rule of the one coset encoder: the coset
#: (8..512-bit), restricted-coset, FNW, FlipMin, CoC and WLC-word designs.
FUSED_ENCODERS = (
    "3cosets-8",
    "3cosets-64",
    "3cosets-512",
    "6cosets-16",
    "3-r-cosets-16",
    "3-r-cosets-256",
    "fnw",
    "fnw-16",
    "flipmin",
    "coc+4cosets",
    "wlc+3cosets",
    "wlcrc-16",
    "wlcrc-16-mo",
)

#: Granularity ladder the dedicated sweep covers (satellite requirement).
GRANULARITIES = (8, 16, 32, 64, 128, 256, 512)


def require_backend(name: str):
    """The named backend, or a skip carrying its unavailability reason."""
    try:
        return get_backend(name)
    except BackendUnavailableError as exc:
        pytest.skip(f"array backend {name!r} unavailable: {exc}")


def both_paths(encoder, trace, chunk_size, tile_lines, sample=False, seed=7):
    """(materialising, fused) per-window metric lists for one chunk group."""
    config = EvaluationConfig(
        chunk_size=chunk_size, seed=seed, sample_disturbance=sample
    )
    streams = chunk_streams(config, -(-len(trace) // chunk_size))
    reference = list(
        evaluate_chunk_group(encoder, trace, streams, chunk_size, tile_lines=None)
    )
    fused = list(
        evaluate_chunk_group(
            encoder, trace, streams, chunk_size, tile_lines=tile_lines
        )
    )
    return reference, fused


class TestTileGeometry:
    def test_disabled_values(self):
        assert fused_tile_size(None, 256) is None
        assert fused_tile_size(0, 256) is None
        assert fused_tile_size(-5, 256) is None

    def test_rounds_up_to_whole_chunks(self):
        assert fused_tile_size(1, 256) == 256
        assert fused_tile_size(256, 256) == 256
        assert fused_tile_size(257, 256) == 512
        assert fused_tile_size(1000, 256) == 1024

    def test_driver_rejects_disabled_tile(self, gcc_trace):
        encoder = make_scheme("3cosets-64")
        with pytest.raises(ValueError):
            list(encode_metrics_batch(encoder, gcc_trace, [None], 64, tile_lines=0))


class TestFusedEquality:
    """Fused == materialising, per window, for every opted-in encoder."""

    @pytest.mark.parametrize("name", FUSED_ENCODERS)
    @pytest.mark.parametrize("sample", [False, True])
    def test_every_fused_encoder(self, name, sample):
        encoder = make_scheme(name)
        assert encoder.supports_fused_metrics
        trace = generate_benchmark_trace("mcf", 1100, seed=9)  # ragged tail
        reference, fused = both_paths(
            encoder, trace, chunk_size=128, tile_lines=256, sample=sample
        )
        assert reference == fused

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_granularity_ladder(self, granularity):
        encoder = make_scheme(f"3cosets-{granularity}")
        trace = generate_benchmark_trace("gcc", 700, seed=5)
        reference, fused = both_paths(
            encoder, trace, chunk_size=100, tile_lines=200, sample=True
        )
        assert reference == fused

    def test_non_opted_encoder_takes_reference_path(self, gcc_trace):
        encoder = DINEncoder()
        assert not encoder.supports_fused_metrics
        reference, fused = both_paths(encoder, gcc_trace, 64, 64)
        assert reference == fused

    def test_empty_group(self):
        encoder = make_scheme("3cosets-64")
        trace = generate_benchmark_trace("gcc", 100, seed=3)[:0]
        assert list(encode_metrics_batch(encoder, trace, [], 64, tile_lines=64)) == []

    @pytest.mark.parametrize("backend_name", backend_names())
    def test_every_array_backend(self, backend_name):
        require_backend(backend_name)
        encoder = make_scheme("3cosets-128")
        trace = generate_benchmark_trace("libq", 900, seed=13)
        with use_array_backend(backend_name):
            reference, fused = both_paths(
                encoder, trace, chunk_size=128, tile_lines=256, sample=True
            )
        assert reference == fused

    @given(
        length=st.integers(min_value=0, max_value=700),
        chunk_size=st.integers(min_value=16, max_value=192),
        tile_request=st.integers(min_value=1, max_value=400),
        sample=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_geometry_property(self, length, chunk_size, tile_request, sample):
        """Any (trace length, chunk, tile) geometry -- including tiles that
        cover the whole group, single-line tails and empty traces."""
        encoder = make_scheme("3cosets-64")
        trace = generate_benchmark_trace("mcf", max(length, 1), seed=21)[:length]
        reference, fused = both_paths(
            encoder, trace, chunk_size, tile_request, sample=sample
        )
        assert reference == fused


class TestEndToEndEquality:
    """The config knob end to end: serial runner and parallel engine."""

    @pytest.mark.parametrize("n_jobs", [1, 4])
    @pytest.mark.parametrize("pool", ["process", "thread"])
    def test_superbatch_parallel_matrix(self, n_jobs, pool):
        encoder = make_scheme("3cosets-256")
        trace = generate_benchmark_trace("gcc", 1500, seed=17)
        base = EvaluationConfig(chunk_size=128, seed=17, sample_disturbance=True)
        reference = evaluate_trace(
            encoder, trace, replace(base, fused_tile_lines=None)
        )
        fused_config = replace(base, superbatch_size=1024, fused_tile_lines=256)
        result = ParallelRunner(n_jobs, backend=pool).map(
            [WorkUnit("k", encoder, trace, fused_config)]
        )[0]
        assert result == reference

    def test_default_config_tiles_only_above_default_group(self):
        # The shipped defaults (chunk group 2048 <= tile 8192) must keep the
        # single-encode path; explicit superbatching above one tile must not
        # change the numbers.
        encoder = make_scheme("3cosets-64")
        trace = generate_benchmark_trace("libq", 1200, seed=23)
        default = evaluate_trace(encoder, trace, EvaluationConfig(chunk_size=128))
        disabled = evaluate_trace(
            encoder,
            trace,
            EvaluationConfig(chunk_size=128, fused_tile_lines=None),
        )
        tiled = evaluate_trace(
            encoder,
            trace,
            EvaluationConfig(
                chunk_size=128, superbatch_size=1200, fused_tile_lines=256
            ),
        )
        assert default == disabled == tiled


class TestMetricsRewrite:
    """The masked-sum energy split equals the historical np.where formulas."""

    @pytest.mark.parametrize(
        "scheme", ["baseline", "din", "3cosets-16", "wlcrc-16", "coc+4cosets"]
    )
    def test_against_legacy_formulas(self, scheme, gcc_trace):
        encoder = make_scheme(scheme)
        encoded = encoder.encode_batch(gcc_trace.new, gcc_trace.old)
        metrics = metrics_from_encoded(encoded, encoder)
        changed = encoded.changed
        energy = encoder.energy_model.cell_write_energy(encoded.states, changed)
        aux = encoded.aux_mask
        assert metrics.data_energy_pj == float(np.where(aux, 0.0, energy).sum())
        assert metrics.aux_energy_pj == float(np.where(aux, energy, 0.0).sum())
        assert metrics.updated_data_cells == float(
            np.where(aux, False, changed).sum()
        )
        assert metrics.updated_aux_cells == float(
            np.where(aux, changed, False).sum()
        )


class TestObservability:
    def test_peak_memory_gauges_recorded(self):
        encoder = make_scheme("3cosets-64")
        trace = generate_benchmark_trace("gcc", 600, seed=3)
        config = EvaluationConfig(
            chunk_size=64, superbatch_size=600, fused_tile_lines=128
        )
        tracemalloc.start()
        try:
            with observation("fused-test") as session:
                evaluate_trace(encoder, trace, config)
        finally:
            tracemalloc.stop()
        snapshot = session.metrics.snapshot()
        rss = snapshot.get("peak_rss_bytes")
        traced = snapshot.get("tracemalloc_peak_bytes")
        assert rss is not None and rss["type"] == "gauge" and rss["value"] > 0
        assert traced is not None and traced["value"] > 0
        spans = {record.name for record in session.spans}
        assert "encode_metrics_batch" in spans


class TestPeakMemory:
    @pytest.mark.tier2
    def test_fused_512bit_peak_bounded_by_tile(self):
        """CI memory smoke: at 512-bit granularity a superbatched group must
        evaluate with a decisively smaller tracemalloc peak when tiled, and
        with exactly the same metrics."""
        encoder = make_scheme("3cosets-512")
        trace = generate_benchmark_trace("mcf", 8192, seed=29)
        chunk = 512

        def run(tile):
            config = EvaluationConfig(
                chunk_size=chunk,
                superbatch_size=len(trace),
                fused_tile_lines=tile,
                sample_disturbance=True,
                seed=29,
            )
            tracemalloc.start()
            try:
                metrics = evaluate_trace(encoder, trace, config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return metrics, peak

        fused_metrics, fused_peak = run(chunk)
        full_metrics, full_peak = run(None)
        assert fused_metrics == full_metrics
        ratio = full_peak / fused_peak
        assert ratio >= 2.0, (
            f"fused peak {fused_peak} not >=2x under materialising peak "
            f"{full_peak} (ratio {ratio:.2f})"
        )
