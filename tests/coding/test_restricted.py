"""Tests of the line-scope restricted coset encoder (3-r-cosets)."""

import numpy as np
import pytest

from repro.coding import make_scheme
from repro.core.cosets import RESTRICTED_FAMILIES
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.evaluation.runner import metrics_from_encoded


class TestGeometry:
    def test_aux_bits_and_cells(self):
        encoder = make_scheme("3-r-cosets-16")
        assert encoder.geometries[0].blocks == 32
        assert encoder.geometries[0].aux_bits == 33  # 1 family bit + 32 selector bits
        assert encoder.aux_cells == 17         # 33 bits packed two per cell

    def test_fewer_aux_cells_than_unrestricted(self):
        """Section V: restriction roughly halves the auxiliary information."""
        for granularity in (8, 16, 32):
            restricted = make_scheme(f"3-r-cosets-{granularity}")
            unrestricted = make_scheme(f"3cosets-{granularity}")
            assert restricted.aux_cells < unrestricted.aux_cells

    def test_family_candidates_table(self):
        assert RESTRICTED_FAMILIES.tolist() == [[0, 1], [0, 2]]

    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            make_scheme("3-r-cosets-48")


class TestRoundtrip:
    @pytest.mark.parametrize("granularity", [8, 16, 32, 64, 128])
    def test_roundtrip(self, biased_lines, granularity):
        encoder = make_scheme(f"3-r-cosets-{granularity}")
        assert encoder.roundtrip(biased_lines[:12]) == biased_lines[:12]

    def test_roundtrip_random(self, random_lines):
        encoder = make_scheme("3-r-cosets-16")
        assert encoder.roundtrip(random_lines[:12]) == random_lines[:12]


class TestBehaviour:
    def test_blocks_only_use_family_candidates(self, biased_lines):
        """Every block's mapping must come from the single family chosen for the line."""
        encoder = make_scheme("3-r-cosets-16")
        lines = biased_lines[:16]
        states = encoder.encode_reference(lines)
        decoded = encoder.decode_states(states)
        assert decoded == lines  # implies the stored family/selector bits are consistent

    def test_restriction_costs_at_most_unrestricted(self, gcc_trace):
        """Figure 5: restricted cosets are only slightly worse than 3cosets."""
        restricted = make_scheme("3-r-cosets-16")
        unrestricted = make_scheme("3cosets-16")
        old, new = gcc_trace.old[:128], gcc_trace.new[:128]
        restricted_metrics = metrics_from_encoded(restricted.encode_batch(new, old), restricted)
        unrestricted_metrics = metrics_from_encoded(unrestricted.encode_batch(new, old), unrestricted)
        # The restriction gives up flexibility, so the data energy cannot improve
        # much beyond the unrestricted choice and must stay close to it (Figure 5).
        assert restricted_metrics.avg_data_energy_pj >= 0.95 * unrestricted_metrics.avg_data_energy_pj
        assert restricted_metrics.avg_energy_pj <= 1.15 * unrestricted_metrics.avg_energy_pj

    def test_pure_ones_and_zero_line_prefers_family_c1_c2(self):
        """A line of zero and all-ones words is served perfectly by the {C1, C2} family."""
        encoder = make_scheme("3-r-cosets-16")
        words = np.zeros((1, 8), dtype=np.uint64)
        words[0, ::2] = 2**64 - 1
        lines = LineBatch(words)
        states = encoder.encode_reference(lines)
        # All data cells end up in the two cheapest states.
        assert states[0, :256].max() <= 1
        assert encoder.decode_states(states) == lines
