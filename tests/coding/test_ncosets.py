"""Tests of the unrestricted coset encoders (6cosets / 4cosets / 3cosets)."""

import numpy as np
import pytest

from repro.coding import CosetLayout, CosetSpec, make_scheme
from repro.coding.baseline import BaselineEncoder
from repro.core.cosets import FOUR_COSETS
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.core.symbols import SYMBOLS_PER_LINE
from repro.evaluation.runner import metrics_from_encoded


def codec_roundtrip(encoder, choice):
    """Aux states the encoder writes for ``choice`` (n, blocks), and what it reads back."""
    geometry = encoder.geometries[0]
    states = np.zeros((choice.shape[0], encoder.total_cells), dtype=np.uint8)
    encoder._write_aux(geometry, states, None, choice[:, None, :], None)
    _, read = encoder._read_aux(geometry, states)
    return states[:, SYMBOLS_PER_LINE:], read[:, 0, :]


def spec(candidates, granularity=16, **options):
    return CosetSpec("test", candidates, (CosetLayout(granularity),), **options)


class TestAuxCodecs:
    def test_single_cell_codec_roundtrip(self):
        encoder = make_scheme("4cosets-128")
        choice = np.array([[0, 3, 2, 1]], dtype=np.uint8)
        states, read = codec_roundtrip(encoder, choice)
        assert states.shape == (1, 4)
        assert np.array_equal(states, choice)  # candidate Ci is stored as state Si
        assert np.array_equal(read, choice)

    def test_single_cell_codec_limits(self):
        with pytest.raises(ConfigurationError):
            spec(np.concatenate([FOUR_COSETS, FOUR_COSETS[:1]]), aux_codec="cell")

    def test_pair_cell_codec_uses_cheapest_combos(self):
        table = make_scheme("6cosets").aux_table
        # The six cheapest two-cell state combinations never use S4 (state 3).
        assert table.shape == (6, 2)
        assert table.max() <= 2
        # The very cheapest combination is (S1, S1).
        assert table[0].tolist() == [0, 0]

    def test_pair_cell_codec_roundtrip(self):
        encoder = make_scheme("6cosets-128")
        choice = np.array([[0, 5, 3, 1], [2, 2, 1, 4]], dtype=np.uint8)
        states, read = codec_roundtrip(encoder, choice)
        assert states.shape == (2, 8)
        assert np.array_equal(read, choice)

    def test_pair_cell_lookup_is_a_4x4_table(self):
        encoder = make_scheme("6cosets")
        assert encoder.aux_lookup.shape == (4, 4)
        for index, (a, b) in enumerate(encoder.aux_table):
            assert encoder.aux_lookup[a, b] == index
        unused = np.ones((4, 4), dtype=bool)
        unused[tuple(encoder.aux_table.T)] = False
        assert (encoder.aux_lookup[unused] == 0).all()  # unused pairs read as C1

    def test_pair_cell_codec_limits(self):
        with pytest.raises(ConfigurationError):
            spec([FOUR_COSETS[0]] * 17, aux_codec="pair")


class TestGeometry:
    def test_aux_cells_scale_with_granularity(self):
        assert make_scheme("4cosets-512").aux_cells == 1
        assert make_scheme("4cosets-16").aux_cells == 32
        assert make_scheme("6cosets-512").aux_cells == 2
        assert make_scheme("6cosets-16").aux_cells == 64

    def test_paper_overhead_claim(self):
        """4cosets halves the auxiliary overhead of 6cosets at any granularity."""
        for granularity in (8, 16, 32, 64, 128):
            six = make_scheme(f"6cosets-{granularity}")
            assert six.aux_cells == 2 * make_scheme(f"4cosets-{granularity}").aux_cells

    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            make_scheme("4cosets-48")
        with pytest.raises(ConfigurationError):
            spec(FOUR_COSETS, granularity=48, aux_codec="cell")
        with pytest.raises(ConfigurationError):
            spec(np.zeros((4, 3), dtype=np.uint8), aux_codec="cell")

    def test_names(self):
        assert make_scheme("6cosets").name == "6cosets-512"
        assert make_scheme("3cosets-16").name == "3cosets-16"


class TestRoundtrip:
    @pytest.mark.parametrize("granularity", [8, 16, 32, 64, 128, 256, 512])
    def test_four_cosets_roundtrip(self, biased_lines, granularity):
        encoder = make_scheme(f"4cosets-{granularity}")
        assert encoder.roundtrip(biased_lines[:12]) == biased_lines[:12]

    @pytest.mark.parametrize("granularity", [16, 128, 512])
    def test_six_cosets_roundtrip(self, random_lines, granularity):
        encoder = make_scheme(f"6cosets-{granularity}")
        assert encoder.roundtrip(random_lines[:12]) == random_lines[:12]

    def test_three_cosets_roundtrip(self, biased_lines):
        encoder = make_scheme("3cosets-16")
        assert encoder.roundtrip(biased_lines[:12]) == biased_lines[:12]


class TestEnergyBehaviour:
    def test_never_worse_than_baseline_on_fresh_cells(self, biased_lines, random_lines):
        """Candidate C1 is always available, so a fresh write costs at most baseline."""
        weights = BaselineEncoder().energy_model.write_energy_per_state
        for lines in (biased_lines[:24], random_lines[:16]):
            base_states = BaselineEncoder().encode_reference(lines)
            base_cost = weights[base_states][base_states != 0].sum()
            for encoder in (make_scheme(f"{k}cosets-64") for k in (6, 4, 3)):
                states = encoder.encode_reference(lines)[:, :256]
                cost = weights[states][states != 0].sum()
                assert cost <= base_cost + 1e-9

    def test_finer_granularity_reduces_data_energy(self, gcc_trace):
        """Figure 1 trend: smaller blocks give lower data-symbol energy."""
        coarse = make_scheme("6cosets-512")
        fine = make_scheme("6cosets-16")
        old, new = gcc_trace.old[:128], gcc_trace.new[:128]
        coarse_metrics = metrics_from_encoded(coarse.encode_batch(new, old), coarse)
        fine_metrics = metrics_from_encoded(fine.encode_batch(new, old), fine)
        assert fine_metrics.avg_data_energy_pj <= coarse_metrics.avg_data_energy_pj
        # ... while the auxiliary energy grows (the paper's motivation).
        assert fine_metrics.avg_aux_energy_pj >= coarse_metrics.avg_aux_energy_pj

    def test_all_ones_line_uses_cheap_states(self):
        """4cosets maps a run of ones to the cheapest state via C2."""
        encoder = make_scheme("4cosets-64")
        ones = LineBatch(np.full((1, 8), 2**64 - 1, dtype=np.uint64))
        states = encoder.encode_reference(ones)
        assert (states[0, :256] == 0).all()

    def test_aux_mask_marks_only_appended_cells(self, biased_lines):
        encoder = make_scheme("4cosets-32")
        encoded = encoder.encode_batch(biased_lines[:4], biased_lines[:4])
        assert not encoded.aux_mask[:, :256].any()
        assert encoded.aux_mask[:, 256:].all()
