"""Tests of the coset candidate definitions (Table I) and helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cosets


class TestTableI:
    """The hand-picked candidates must match Table I of the paper exactly."""

    def test_c1_default_mapping(self):
        # 00->S1, 10->S2, 11->S3, 01->S4
        assert cosets.C1.tolist() == [0, 3, 1, 2]

    def test_c2_maps_ones_and_zeros_to_cheap_states(self):
        # 11->S1, 00->S2
        assert cosets.C2[0b11] == 0
        assert cosets.C2[0b00] == 1

    def test_c3_complements_c1_for_cheap_states(self):
        # Together C1 and C3 place every symbol in a cheap state in one of them.
        cheap_c1 = {s for s in range(4) if cosets.C1[s] <= 1}
        cheap_c3 = {s for s in range(4) if cosets.C3[s] <= 1}
        assert cheap_c1 | cheap_c3 == {0, 1, 2, 3}

    def test_c4_maps_ones_to_cheapest(self):
        assert cosets.C4[0b11] == 0
        assert cosets.C4[0b00] == 1

    def test_all_candidates_are_bijections(self):
        for candidate in (cosets.C1, cosets.C2, cosets.C3, cosets.C4):
            assert cosets.is_valid_mapping(candidate)

    def test_candidates_are_distinct(self):
        stacked = {tuple(c.tolist()) for c in cosets.FOUR_COSETS}
        assert len(stacked) == 4

    def test_three_cosets_prefix_of_four(self):
        assert np.array_equal(cosets.THREE_COSETS, cosets.FOUR_COSETS[:3])

    def test_restricted_families_share_c1(self):
        group_a, group_b = cosets.THREE_COSETS[cosets.RESTRICTED_FAMILIES]
        assert np.array_equal(group_a[0], cosets.C1)
        assert np.array_equal(group_b[0], cosets.C1)
        assert np.array_equal(group_a[1], cosets.C2)
        assert np.array_equal(group_b[1], cosets.C3)
        assert cosets.RESTRICTED_FAMILIES.tolist() == [[0, 1], [0, 2]]


class TestMappingHelpers:
    def test_apply_and_invert_roundtrip(self, rng):
        symbols = rng.integers(0, 4, size=(5, 32)).astype(np.uint8)
        for candidate in cosets.FOUR_COSETS:
            states = cosets.apply_mapping(candidate, symbols)
            assert np.array_equal(cosets.states_to_symbols(candidate, states), symbols)

    def test_apply_rejects_invalid_mapping(self):
        with pytest.raises(ValueError):
            cosets.apply_mapping(np.array([0, 0, 1, 2], dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            cosets.invert_mapping(np.array([0, 1, 2], dtype=np.uint8))

    def test_candidate_names(self):
        assert cosets.candidate_names(3) == ["C1", "C2", "C3"]


class TestSixCosets:
    def test_count_and_validity(self):
        six = cosets.six_cosets()
        assert six.shape == (6, 4)
        for candidate in six:
            assert cosets.is_valid_mapping(candidate)

    def test_every_symbol_pair_gets_cheap_states(self):
        """For every pair of symbols there is a candidate mapping both to S1/S2."""
        six = cosets.six_cosets()
        from itertools import combinations

        for a, b in combinations(range(4), 2):
            assert any(candidate[a] <= 1 and candidate[b] <= 1 for candidate in six)

    def test_candidates_distinct(self):
        six = cosets.six_cosets()
        assert len({tuple(c.tolist()) for c in six}) == 6


class TestFlipMinVectors:
    def test_shape_and_zero_vector(self):
        vectors = cosets.flipmin_coset_vectors(16)
        assert vectors.shape == (16, 8)
        assert vectors[0].sum() == 0

    def test_deterministic_for_seed(self):
        assert np.array_equal(
            cosets.flipmin_coset_vectors(8, seed=3), cosets.flipmin_coset_vectors(8, seed=3)
        )
        assert not np.array_equal(
            cosets.flipmin_coset_vectors(8, seed=3), cosets.flipmin_coset_vectors(8, seed=4)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            cosets.flipmin_coset_vectors(0)
        with pytest.raises(ValueError):
            cosets.flipmin_coset_vectors(4, line_bits=100)


@given(st.permutations([0, 1, 2, 3]))
@settings(max_examples=24, deadline=None)
def test_any_permutation_roundtrips(permutation):
    """Property: apply/invert round-trips for every possible coset mapping."""
    mapping = np.array(permutation, dtype=np.uint8)
    symbols = np.arange(4, dtype=np.uint8)
    states = cosets.apply_mapping(mapping, symbols)
    assert np.array_equal(cosets.invert_mapping(mapping)[states], symbols)
