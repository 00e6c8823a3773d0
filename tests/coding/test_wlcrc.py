"""Tests of the WLCRC encoder (the paper's proposal) and its multi-objective mode."""

import numpy as np
import pytest

from repro.coding import (
    FLAG_COMPRESSED_STATE,
    FLAG_RAW_STATE,
    RECLAIMED_BITS_BY_GRANULARITY,
    make_scheme,
)
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.core.symbols import SYMBOLS_PER_LINE
from repro.evaluation.runner import metrics_from_encoded


class TestGeometry:
    def test_reclaimed_bits_table(self):
        """Section VI / IX-A: reclaimed bits per word for each granularity."""
        assert RECLAIMED_BITS_BY_GRANULARITY == {8: 8, 16: 5, 32: 3, 64: 2}

    @pytest.mark.parametrize("granularity,k", [(8, 9), (16, 6), (32, 4), (64, 3)])
    def test_wlc_k_requirement(self, granularity, k):
        assert make_scheme(f"wlcrc-{granularity}").compressor.k == k

    def test_total_cells_has_one_flag(self):
        encoder = make_scheme("wlcrc-16")
        assert encoder.aux_cells == 1
        assert encoder.total_cells == SYMBOLS_PER_LINE + 1

    def test_space_overhead_below_half_percent(self):
        """The paper reports < 0.4 % total encoding space overhead."""
        encoder = make_scheme("wlcrc-16")
        overhead = encoder.aux_cells / SYMBOLS_PER_LINE
        assert overhead < 0.004

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            make_scheme("wlcrc-24")
        with pytest.raises(ConfigurationError):
            make_scheme("wlcrc-16-mo-0.5")

    def test_names(self):
        assert make_scheme("wlcrc").name == "wlcrc-16"
        assert make_scheme("wlcrc-16-mo").name == "wlcrc-16-mo0.01"


class TestFlagCell:
    def test_compressible_lines_flagged_compressed(self, compressible_lines):
        encoder = make_scheme("wlcrc-16")
        states = encoder.encode_reference(compressible_lines)
        assert (states[:, SYMBOLS_PER_LINE] == FLAG_COMPRESSED_STATE).all()

    def test_incompressible_lines_flagged_raw(self, incompressible_lines):
        encoder = make_scheme("wlcrc-16")
        states = encoder.encode_reference(incompressible_lines)
        assert (states[:, SYMBOLS_PER_LINE] == FLAG_RAW_STATE).all()

    def test_flag_uses_two_lowest_energy_states(self):
        assert FLAG_COMPRESSED_STATE == 0
        assert FLAG_RAW_STATE == 1

    def test_compressed_fraction_reported(self, compressible_lines, incompressible_lines):
        encoder = make_scheme("wlcrc-16")
        both = LineBatch.concatenate([compressible_lines, incompressible_lines])
        encoded = encoder.encode_batch(both, both)
        assert encoded.compressed.sum() == len(compressible_lines)
        assert encoded.encoded.sum() == len(compressible_lines)


class TestRoundtrip:
    @pytest.mark.parametrize("granularity", [8, 16, 32, 64])
    def test_biased_roundtrip(self, biased_lines, granularity):
        encoder = make_scheme(f"wlcrc-{granularity}")
        assert encoder.roundtrip(biased_lines[:24]) == biased_lines[:24]

    @pytest.mark.parametrize("granularity", [8, 16, 32, 64])
    def test_random_roundtrip(self, random_lines, granularity):
        """Random lines are mostly incompressible and take the raw path."""
        encoder = make_scheme(f"wlcrc-{granularity}")
        assert encoder.roundtrip(random_lines[:16]) == random_lines[:16]

    def test_compressible_roundtrip(self, compressible_lines):
        encoder = make_scheme("wlcrc-16")
        assert encoder.roundtrip(compressible_lines) == compressible_lines

    def test_multiobjective_roundtrip(self, biased_lines):
        encoder = make_scheme("wlcrc-16-mo0.01")
        assert encoder.roundtrip(biased_lines[:24]) == biased_lines[:24]


class TestAuxLayout:
    def test_aux_mask_covers_reclaimed_region_and_flag(self, compressible_lines):
        encoder = make_scheme("wlcrc-16")
        encoded = encoder.encode_batch(compressible_lines, compressible_lines)
        aux_mask = encoded.aux_mask[0]
        # Three cells per word (the five reclaimed bits plus the shared cell) + flag.
        assert aux_mask.sum() == 8 * encoder.geometries[0].aux_cells + 1
        assert aux_mask[SYMBOLS_PER_LINE]

    def test_raw_lines_have_only_flag_as_aux(self, incompressible_lines):
        encoder = make_scheme("wlcrc-16")
        encoded = encoder.encode_batch(incompressible_lines, incompressible_lines)
        assert encoded.aux_mask[:, :SYMBOLS_PER_LINE].sum() == 0

    def test_identical_write_costs_nothing(self, compressible_lines):
        encoder = make_scheme("wlcrc-16")
        encoded = encoder.encode_batch(compressible_lines, compressible_lines)
        metrics = metrics_from_encoded(encoded, encoder)
        assert metrics.avg_energy_pj == 0.0
        assert metrics.avg_updated_cells == 0.0


class TestEnergyBehaviour:
    def test_beats_baseline_on_biased_traces(self, gcc_trace):
        from repro.coding.baseline import BaselineEncoder

        baseline = BaselineEncoder()
        wlcrc = make_scheme("wlcrc-16")
        old, new = gcc_trace.old, gcc_trace.new
        base = metrics_from_encoded(baseline.encode_batch(new, old), baseline)
        ours = metrics_from_encoded(wlcrc.encode_batch(new, old), wlcrc)
        assert ours.avg_energy_pj < base.avg_energy_pj
        assert ours.avg_updated_cells < base.avg_updated_cells

    def test_all_ones_words_use_cheap_states(self):
        """A compressible line of -1 words maps to the cheapest states via C2."""
        encoder = make_scheme("wlcrc-16")
        ones = LineBatch(np.full((1, 8), 2**64 - 1, dtype=np.uint64))
        states = encoder.encode_reference(ones)
        data_region = states[0, :SYMBOLS_PER_LINE].reshape(8, 32)[:, :encoder.geometries[0].active_cells]
        assert data_region.max() <= 1
        assert encoder.decode_states(states) == ones


class TestMultiObjective:
    def test_trades_little_energy_for_endurance(self, gcc_trace):
        """Section VIII-D: the multi-objective mode trades energy for endurance.

        On a biased trace the rewritten-cell count must not grow meaningfully
        and the write energy give-back must stay small (the paper reports a
        19 % endurance gain for < 2 % extra energy at T = 1 %).
        """
        plain = make_scheme("wlcrc-16")
        multi = make_scheme("wlcrc-16-mo0.05")
        old, new = gcc_trace.old, gcc_trace.new
        plain_metrics = metrics_from_encoded(plain.encode_batch(new, old), plain)
        multi_metrics = metrics_from_encoded(multi.encode_batch(new, old), multi)
        assert multi_metrics.avg_updated_cells <= 1.03 * plain_metrics.avg_updated_cells
        assert multi_metrics.avg_energy_pj <= 1.08 * plain_metrics.avg_energy_pj

    def test_zero_threshold_matches_plain_data_energy(self, biased_lines):
        """With T = 0 the family choice only changes on exact cost ties, so the
        data-region energy of a fresh write is identical to the plain encoder."""
        plain = make_scheme("wlcrc-16")
        zero = make_scheme("wlcrc-16-mo0.0")
        lines = biased_lines[:32]
        weights = plain.energy_model.write_energy_per_state
        plain_states = plain.encode_reference(lines)
        zero_states = zero.encode_reference(lines)
        mask = ~plain.encode_batch(lines, lines).aux_mask  # data cells only
        plain_cost = (weights[plain_states] * (plain_states != 0) * mask).sum()
        zero_cost = (weights[zero_states] * (zero_states != 0) * mask).sum()
        assert plain_cost == pytest.approx(zero_cost)
