"""Tests of the WLC + unrestricted coset encoders (WLC+4cosets / WLC+3cosets)."""
import pytest

from repro.coding import CosetLayout, CosetSpec, make_scheme
from repro.core.cosets import SIX_COSETS
from repro.core.errors import ConfigurationError
from repro.core.symbols import SYMBOLS_PER_LINE
from repro.evaluation.runner import metrics_from_encoded


class TestGeometry:
    @pytest.mark.parametrize("granularity,reclaimed", [(8, 16), (16, 8), (32, 4), (64, 2)])
    def test_reclaimed_bits_match_paper(self, granularity, reclaimed):
        """Section VI: WLC+4cosets must reclaim 16/8/4/2 bits per word."""
        assert make_scheme(f"wlc+4cosets-{granularity}").spec.reclaimed_bits == reclaimed

    def test_requires_more_compression_than_wlcrc(self):
        """Section IX-A: at the same granularity the unrestricted scheme needs
        more reclaimed bits than WLCRC, which is why fewer lines compress."""
        for granularity in (8, 16, 32):
            assert (
                make_scheme(f"wlc+4cosets-{granularity}").spec.reclaimed_bits
                > make_scheme(f"wlcrc-{granularity}").spec.reclaimed_bits
            )

    def test_rejects_too_many_candidates(self):
        with pytest.raises(ConfigurationError):
            # A 3-bit index per block needs 6 bits; 32-bit blocks reclaim 4.
            CosetSpec(
                "wlc+6cosets-32", SIX_COSETS, (CosetLayout(32),), front_end="wlc",
                reclaimed_bits=4, keep_stored=True,
            )

    def test_names(self):
        assert make_scheme("wlc+4cosets").name == "wlc+4cosets-32"
        assert make_scheme("wlc+3cosets-16").name == "wlc+3cosets-16"


class TestRoundtrip:
    @pytest.mark.parametrize("granularity", [8, 16, 32, 64])
    def test_four_cosets_roundtrip(self, biased_lines, granularity):
        encoder = make_scheme(f"wlc+4cosets-{granularity}")
        assert encoder.roundtrip(biased_lines[:20]) == biased_lines[:20]

    @pytest.mark.parametrize("granularity", [16, 32])
    def test_three_cosets_roundtrip(self, biased_lines, granularity):
        encoder = make_scheme(f"wlc+3cosets-{granularity}")
        assert encoder.roundtrip(biased_lines[:20]) == biased_lines[:20]

    def test_random_lines_take_raw_path(self, random_lines):
        encoder = make_scheme("wlc+4cosets-32")
        encoded = encoder.encode_batch(random_lines[:16], random_lines[:16])
        assert encoded.compressed.mean() < 0.5
        assert encoder.roundtrip(random_lines[:16]) == random_lines[:16]


class TestCompressibility:
    def test_wlcrc16_compresses_more_lines_than_wlc4cosets16(self, biased_lines):
        """The paper's core argument for the restriction: at 16-bit granularity
        WLCRC needs only 6 identical MSBs while WLC+4cosets needs 9, so WLCRC
        encodes far more lines."""
        wlcrc = make_scheme("wlcrc-16")
        unrestricted = make_scheme("wlc+4cosets-16")
        wlcrc_cov = wlcrc.compressor.line_compressible(biased_lines).mean()
        unrestricted_cov = unrestricted.compressor.line_compressible(biased_lines).mean()
        assert wlcrc_cov > unrestricted_cov

    def test_same_compressibility_at_32_bits_as_wlcrc_16(self, compressible_lines):
        """Lines compressible at k=6 are compressible for both WLCRC-16 (k=6)
        and WLC+4cosets-32 (k=5)."""
        assert make_scheme("wlc+4cosets-32").compressor.line_compressible(compressible_lines).all()
        assert make_scheme("wlcrc-16").compressor.line_compressible(compressible_lines).all()


class TestEnergyBehaviour:
    def test_beats_baseline_on_biased_traces(self, gcc_trace):
        from repro.coding.baseline import BaselineEncoder

        baseline = BaselineEncoder()
        encoder = make_scheme("wlc+4cosets-32")
        base = metrics_from_encoded(baseline.encode_batch(gcc_trace.new, gcc_trace.old), baseline)
        ours = metrics_from_encoded(encoder.encode_batch(gcc_trace.new, gcc_trace.old), encoder)
        assert ours.avg_energy_pj < base.avg_energy_pj

    def test_aux_mask_matches_reclaimed_region(self, compressible_lines):
        encoder = make_scheme("wlc+4cosets-32")  # 4 reclaimed bits -> 2 aux cells per word
        encoded = encoder.encode_batch(compressible_lines, compressible_lines)
        assert encoded.aux_mask[0].sum() == 8 * encoder.geometries[0].aux_cells + 1
        assert encoded.aux_mask[0, SYMBOLS_PER_LINE]
