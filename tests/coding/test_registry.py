"""Tests of the scheme registry."""

import numpy as np
import pytest

from repro.coding import FIGURE8_SCHEMES, available_schemes, make_scheme
from repro.coding import CosetEncoder, CosetSpec, coset_spec
from repro.coding.baseline import BaselineEncoder
from repro.core.energy import EnergyModel
from repro.core.errors import ConfigurationError


class TestNames:
    def test_all_advertised_schemes_construct(self):
        for name in available_schemes():
            encoder = make_scheme(name)
            assert encoder.total_cells >= 256

    def test_figure8_schemes_construct(self):
        for name in FIGURE8_SCHEMES:
            assert make_scheme(name) is not None

    def test_default_granularities(self):
        assert make_scheme("6cosets").spec.granularity_bits == 512
        assert make_scheme("wlc+4cosets").spec.granularity_bits == 32
        assert make_scheme("wlcrc").spec.granularity_bits == 16
        assert make_scheme("3-r-cosets").spec.granularity_bits == 16
        assert make_scheme("fnw").spec.granularity_bits == 128

    def test_granularity_suffixes(self):
        assert make_scheme("6cosets-16").spec.granularity_bits == 16
        assert make_scheme("wlcrc-32").spec.granularity_bits == 32
        assert make_scheme("fnw-256").spec.granularity_bits == 256

    def test_case_insensitive(self):
        assert isinstance(make_scheme("Baseline"), BaselineEncoder)
        assert isinstance(make_scheme("WLCRC-16"), CosetEncoder)

    def test_multiobjective_suffix(self):
        encoder = make_scheme("wlcrc-16-mo")
        assert isinstance(encoder, CosetEncoder)
        assert encoder.spec.endurance_threshold == pytest.approx(0.01)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_scheme("does-not-exist")
        with pytest.raises(ConfigurationError):
            make_scheme("wlcrc-24")


class TestEnergyModelPlumbing:
    def test_custom_energy_model_is_used(self):
        model = EnergyModel(set_energy_pj=(0.0, 20.0, 75.0, 135.0))
        encoder = make_scheme("wlcrc-16", model)
        assert encoder.energy_model == model

    def test_names_are_preserved(self):
        for name in ("baseline", "flipmin", "din", "coc+4cosets", "wlcrc-16"):
            assert make_scheme(name).name.startswith(name.split("-")[0])


class TestMalformedNames:
    @pytest.mark.parametrize(
        "name",
        [
            "fnw-0",
            "fnw-00",
            "fnw-abc",
            "fnw-100",
            "fnw-1024",
            "6cosets-0",
            "6cosets-",
            "4cosets-48",
            "3-r-cosets-0",
            "wlc+4cosets-0",
            "wlc+4cosets-128",
            "wlcrc-0",
            "wlcrc-24",
            "wlcrc-64-mo",
            "wlcrc-16-mo-0.5",
            "wlcrc-16-moabc",
            "wlcrc-16-monan",
            "6cosets-16-mo",
            "flipmin-16",
            "coc+4cosets-32",
            "baseline-16",
            "",
        ],
    )
    def test_rejected_with_configuration_error(self, name):
        with pytest.raises(ConfigurationError):
            make_scheme(name)


class TestRoundTrip:
    @pytest.mark.parametrize("name", available_schemes())
    def test_every_advertised_name_round_trips(self, name):
        encoder = make_scheme(name)
        assert make_scheme(encoder.name).name == encoder.name

    @pytest.mark.parametrize("threshold", [0.05, 1e-05])
    def test_thresholds_round_trip_and_stay_distinct(self, threshold):
        encoder = make_scheme(f"wlcrc-16-mo{threshold!r}")
        assert encoder.spec.endurance_threshold == threshold
        assert make_scheme(encoder.name).name == encoder.name
        assert make_scheme(encoder.name).spec == encoder.spec
        assert encoder.name != make_scheme("wlcrc-16-mo").name

    def test_default_threshold_name_is_unchanged(self):
        assert make_scheme("wlcrc-16-mo").name == "wlcrc-16-mo0.01"

    def test_coset_schemes_are_fused(self):
        """Every coset scheme is per-line, so all of them take the fused tile walk."""
        for name in available_schemes():
            encoder = make_scheme(name)
            assert encoder.supports_fused_metrics == (name not in ("baseline", "din"))

    def test_specs_are_frozen_and_hashable(self):
        spec = coset_spec("WLCRC-16")
        assert spec == coset_spec("wlcrc-16") and hash(spec) == hash(coset_spec("wlcrc-16"))
        with pytest.raises(AttributeError):
            spec.reclaimed_bits = 8
        # Arrays come in, canonical tuples of ints are kept.
        rebuilt = CosetSpec(
            spec.name, np.array(spec.candidates), list(spec.layouts), front_end="wlc",
            reclaimed_bits=np.int64(5), selection="restricted", keep_stored=True,
        )
        assert rebuilt == spec and hash(rebuilt) == hash(spec)
        assert all(type(s) is int for c in rebuilt.candidates for s in c)
        assert type(rebuilt.reclaimed_bits) is int
