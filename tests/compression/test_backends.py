"""Array-backend contract tests: every backend == the numpy reference.

The backend layer (:mod:`repro.compression.backend`) promises that switching
the array backend can only change throughput, never results.  The hypothesis
properties here sweep every *registered* backend over every compressor's
batch path -- including empty batches and ragged segment compaction -- and
assert bit-identity against the numpy reference; backends whose optional
dependency is absent in this environment (numba, cupy) are skipped with the
backend's own unavailability reason.  The super-batch accumulator is held to
the same standard at ``n_jobs`` 1 and 4.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    BDICompressor,
    COCCompressor,
    FPCBDICompressor,
    FPCCompressor,
    RawLineCompressor,
    WLCCompressor,
    compact_segments,
    xor_reduce,
)
from repro.compression.backend import (
    ENV_VAR,
    ArrayBackend,
    BackendUnavailableError,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_name,
    set_array_backend,
    use_array_backend,
)
from repro.core.config import EvaluationConfig
from repro.core.errors import CompressionError, ConfigurationError
from repro.core.line import LineBatch
from repro.workloads.generator import generate_benchmark_trace

#: Backends the suite compares against the numpy reference.
OPTIONAL_BACKENDS = tuple(name for name in backend_names() if name != "numpy")

#: Compressor batch paths every backend must reproduce bit-for-bit.
COMPRESSORS = (
    FPCCompressor(),
    FPCBDICompressor(),
    COCCompressor(),
    RawLineCompressor(),
    BDICompressor(),
    WLCCompressor(k=6),
)


def require_backend(name: str) -> ArrayBackend:
    """The named backend, or a skip carrying its unavailability reason."""
    try:
        return get_backend(name)
    except BackendUnavailableError as exc:
        pytest.skip(f"array backend {name!r} unavailable: {exc}")


def eligible(compressor, batch: LineBatch) -> LineBatch:
    """The subset of ``batch`` the compressor accepts (front-ends take all)."""
    if isinstance(compressor, WLCCompressor):
        return LineBatch(batch.words[compressor.line_compressible(batch)])
    return batch


# ---------------------------------------------------------------------- #
# Registry, selection precedence and error paths
# ---------------------------------------------------------------------- #
class TestSelection:
    def test_builtin_backends_registered(self):
        assert {"numpy", "numba", "cupy"} <= set(backend_names())

    def test_numpy_is_always_available(self):
        assert "numpy" in available_backends()
        backend = get_backend("numpy")
        assert backend.xp is np

    def test_default_resolution_is_numpy(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend_name() == "numpy"

    def test_env_var_precedence(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cupy")
        assert resolve_backend_name() == "cupy"
        # An active selection beats the environment ...
        with use_array_backend("numpy"):
            assert resolve_backend_name() == "numpy"
            # ... and an explicit argument beats both.
            assert resolve_backend_name("cupy") == "cupy"
        assert resolve_backend_name() == "cupy"

    def test_use_array_backend_restores_previous(self):
        set_array_backend("numpy")
        try:
            with use_array_backend("numpy") as backend:
                assert backend.name == "numpy"
            assert resolve_backend_name() == "numpy"
        finally:
            set_array_backend(None)

    def test_unknown_backend_suggests_close_match(self):
        with pytest.raises(ConfigurationError, match="did you mean 'numpy'"):
            get_backend("numpyy")

    def test_set_array_backend_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            set_array_backend("not-a-backend")
        assert resolve_backend_name() != "not-a-backend"

    def test_unavailable_backend_raises_with_install_hint(self):
        for name in OPTIONAL_BACKENDS:
            try:
                get_backend(name)
            except BackendUnavailableError as exc:
                assert name in str(exc)

    def test_register_backend_round_trip(self):
        marker = ArrayBackend(name="test-dummy", xp=np)
        register_backend("test-dummy", lambda: marker)
        try:
            assert get_backend("test-dummy") is marker
            assert "test-dummy" in available_backends()
        finally:
            from repro.compression.backend import _FACTORIES, _INSTANCES

            _FACTORIES.pop("test-dummy", None)
            _INSTANCES.pop("test-dummy", None)


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #
class TestCLI:
    def test_unknown_array_backend_exits_2_with_suggestion(self, capsys):
        from repro.cli import main

        code = main(
            ["evaluate", "--scheme", "baseline", "--array-backend", "numpyy"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown array backend" in captured.err
        assert "did you mean" in captured.err and "numpy" in captured.err

    def test_numpy_array_backend_accepted(self, capsys):
        from repro.cli import main

        code = main(
            [
                "evaluate",
                "--scheme",
                "baseline",
                "--trace-length",
                "64",
                "--array-backend",
                "numpy",
                "--superbatch",
                "128",
                "--json",
            ]
        )
        assert code == 0
        assert "avg_energy_pj" in capsys.readouterr().out

    def test_bench_ls_reports_backend_sensitivity(self, capsys):
        import json

        from repro.cli import main

        code = main(["bench", "ls", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["encoder_throughput"]["backend_sensitive"] is True
        assert any(
            not spec["backend_sensitive"] for spec in payload.values()
        )


# ---------------------------------------------------------------------- #
# Per-backend bit-identity on the compressor batch paths
# ---------------------------------------------------------------------- #
line_words = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=8, max_size=8
)


@pytest.mark.parametrize("backend_name", OPTIONAL_BACKENDS)
class TestBackendIdentity:
    def test_biased_lines_identical(self, backend_name):
        backend = require_backend(backend_name)
        batch = generate_benchmark_trace("gcc", length=96, seed=3).new
        for compressor in COMPRESSORS:
            sub = eligible(compressor, batch)
            reference = compressor.compress_batch(sub)
            with use_array_backend(backend.name):
                packed = compressor.compress_batch(sub)
                decoded = compressor.decompress_batch(packed)
            assert np.array_equal(packed.bits, reference.bits)
            assert np.array_equal(packed.lengths, reference.lengths)
            assert np.array_equal(decoded, sub.words)

    def test_empty_batches_identical(self, backend_name):
        backend = require_backend(backend_name)
        empty = LineBatch.zeros(0)
        for compressor in COMPRESSORS:
            with use_array_backend(backend.name):
                packed = compressor.compress_batch(empty)
                assert len(packed) == 0
                assert compressor.decompress_batch(packed).shape == (0, 8)

    @given(lines=st.lists(line_words, min_size=0, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_content_property(self, backend_name, lines):
        backend = require_backend(backend_name)
        batch = LineBatch(
            np.array(lines, dtype=np.uint64).reshape(len(lines), 8)
        )
        for compressor in COMPRESSORS:
            sub = eligible(compressor, batch)
            reference = compressor.compress_batch(sub)
            with use_array_backend(backend.name):
                packed = compressor.compress_batch(sub)
            assert np.array_equal(packed.bits, reference.bits)
            assert np.array_equal(packed.lengths, reference.lengths)

    @given(
        widths=st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4),
            min_size=0,
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_ragged_segments_property(self, backend_name, widths, seed):
        backend = require_backend(backend_name)
        n = len(widths)
        rng = np.random.default_rng(seed)
        seg_bits = rng.integers(0, 2, size=(n, 4, 9)).astype(np.uint8)
        seg_widths = np.array(widths, dtype=np.int64).reshape(n, 4)
        reference = compact_segments(seg_bits, seg_widths, "test")
        with use_array_backend(backend.name):
            packed = compact_segments(seg_bits, seg_widths, "test")
        assert np.array_equal(packed.bits, reference.bits)
        assert np.array_equal(packed.lengths, reference.lengths)

    def test_din_parity_identical(self, backend_name):
        backend = require_backend(backend_name)
        from repro.ecc.bch import BCHCode

        code = BCHCode(m=10, t=2, data_bits=492)
        data = np.random.default_rng(5).integers(0, 2, size=(40, 492)).astype(np.uint8)
        reference = code.parity_batch(data)
        with use_array_backend(backend.name):
            parity = code.parity_batch(data)
        assert np.array_equal(parity, reference)


# ---------------------------------------------------------------------- #
# XOR-reduction helper (dtype hygiene satellite)
# ---------------------------------------------------------------------- #
class TestXorReduce:
    def test_matches_python_reference(self, rng):
        bits = rng.integers(0, 2, size=(6, 37)).astype(np.uint8)
        matrix = rng.integers(0, 2, size=(37, 11)).astype(np.uint8)
        expected = np.zeros((6, 11), dtype=np.uint8)
        for row in range(6):
            for col in range(37):
                if bits[row, col]:
                    expected[row] ^= matrix[col]
        assert np.array_equal(xor_reduce(bits, matrix), expected)

    def test_empty_batch_guard(self):
        matrix = np.ones((16, 4), dtype=np.uint8)
        out = xor_reduce(np.zeros((0, 16), dtype=np.uint8), matrix)
        assert out.shape == (0, 4)
        assert out.dtype == np.uint8

    def test_shape_validation(self):
        with pytest.raises(CompressionError):
            xor_reduce(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8))
        with pytest.raises(CompressionError):
            xor_reduce(np.zeros(3, dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8))

    def test_wide_inputs_do_not_overflow(self):
        # Popcounts beyond 255 must not wrap: an all-ones 492-bit row against
        # an all-ones column is 492 terms, parity 0.
        bits = np.ones((1, 492), dtype=np.uint8)
        matrix = np.ones((492, 1), dtype=np.uint8)
        assert xor_reduce(bits, matrix)[0, 0] == 0


# ---------------------------------------------------------------------- #
# Super-batch accumulator bit-identity
# ---------------------------------------------------------------------- #
class TestSuperbatch:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_benchmark_trace("gcc", length=600, seed=21)

    @pytest.fixture(scope="class")
    def encoder(self):
        from repro.coding import make_scheme

        return make_scheme("wlcrc-16")

    @staticmethod
    def _metrics(encoder, trace, config, n_jobs):
        from repro.evaluation.parallel import ParallelRunner, WorkUnit
        from repro.evaluation.runner import evaluate_trace

        if n_jobs == 1:
            return evaluate_trace(encoder, trace, config)
        runner = ParallelRunner(n_jobs, backend="thread")
        return runner.map([WorkUnit("u", encoder, trace, config)])[0]

    @given(
        superbatch=st.one_of(st.none(), st.integers(min_value=1, max_value=700)),
        n_jobs=st.sampled_from([1, 4]),
    )
    @settings(max_examples=12, deadline=None)
    def test_identical_to_per_chunk_path(self, trace, encoder, superbatch, n_jobs):
        base = EvaluationConfig(
            trace_length=len(trace), chunk_size=128, sample_disturbance=True
        )
        reference = self._metrics(encoder, trace, base, 1)
        grouped = self._metrics(
            encoder,
            trace,
            EvaluationConfig(
                trace_length=len(trace),
                chunk_size=128,
                sample_disturbance=True,
                superbatch_size=superbatch,
                array_backend="numpy",
            ),
            n_jobs,
        )
        assert grouped.as_dict() == reference.as_dict()

    @pytest.mark.parametrize("backend_name", OPTIONAL_BACKENDS)
    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_identical_across_array_backends(
        self, trace, encoder, backend_name, n_jobs
    ):
        require_backend(backend_name)
        base = EvaluationConfig(trace_length=len(trace), chunk_size=128)
        reference = self._metrics(encoder, trace, base, 1)
        grouped = self._metrics(
            encoder,
            trace,
            EvaluationConfig(
                trace_length=len(trace),
                chunk_size=128,
                superbatch_size=512,
                array_backend=backend_name,
            ),
            n_jobs,
        )
        assert grouped.as_dict() == reference.as_dict()


# ---------------------------------------------------------------------- #
# Fused-metric kernels == the numpy reference expressions
# ---------------------------------------------------------------------- #
class TestMetricKernels:
    """The per-cell metric kernels behind the fused encode+metrics path.

    The plain-python loop bodies are the single source of truth for the
    ``@njit``-wrapped numba variants, so both the un-jitted impls and every
    registered backend's ``compiled`` table are held bit-identical to the
    numpy expressions the numpy backend evaluates.
    """

    @staticmethod
    def _cells(rng_, n=7, cells=48):
        candidate = rng_.integers(0, 4, size=(n, cells), dtype=np.uint8)
        stored = rng_.integers(0, 4, size=(n, cells), dtype=np.uint8)
        return candidate, stored

    def test_energy_cells_impl_matches_numpy(self, rng):
        from repro.compression.backend import _energy_cells_impl

        states = rng.integers(0, 4, size=300, dtype=np.uint8)
        changed = rng.random(300) < 0.4
        weights = np.array([36.0, 56.0, 343.0, 583.0])
        expected = weights[states] * changed
        assert np.array_equal(_energy_cells_impl(states, changed, weights), expected)

    def test_disturb_cells_impl_matches_model(self, rng):
        from repro.compression.backend import _disturb_cells_impl
        from repro.core.disturbance import DEFAULT_DISTURBANCE_MODEL as model

        stored = rng.integers(0, 4, size=(9, 40), dtype=np.uint8)
        changed = rng.random((9, 40)) < 0.3
        expected = model.rate_per_state[stored] * model.vulnerable_mask(stored, changed)
        got = _disturb_cells_impl(stored, changed, model.rate_per_state)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("backend_name", OPTIONAL_BACKENDS)
    def test_compiled_kernels_match_reference(self, backend_name, rng):
        backend = require_backend(backend_name)
        kernels = backend.compiled
        if not kernels:
            pytest.skip(f"backend {backend_name!r} exposes no compiled kernels")
        candidate, stored = self._cells(rng)
        weights = np.array([36.0, 56.0, 343.0, 583.0])
        rates = np.array([0.123, 0.0, 0.276, 0.152])
        changed2d = candidate != stored
        assert np.array_equal(
            kernels["energy_cells"](
                candidate.reshape(-1), changed2d.reshape(-1), weights
            ),
            weights[candidate.reshape(-1)] * changed2d.reshape(-1),
        )
        from repro.core.disturbance import DEFAULT_DISTURBANCE_MODEL as model

        assert np.array_equal(
            kernels["disturb_cells"](stored, changed2d, model.rate_per_state),
            model.rate_per_state[stored] * model.vulnerable_mask(stored, changed2d),
        )
