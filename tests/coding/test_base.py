"""Tests of the encoder base class and shared helpers."""

import numpy as np
import pytest

from repro.coding.base import (
    EncodedBatch,
    block_energy_costs,
    block_flip_costs,
    pack_bits_to_states,
    select_states_per_block,
    transition_codes,
    unpack_states_to_bits,
)
from repro.coding.baseline import BaselineEncoder
from repro.core.energy import DEFAULT_ENERGY_MODEL
from repro.core.errors import EncodingError


class TestBitStatePacking:
    def test_roundtrip(self):
        bits = np.array([[1, 0, 1, 1, 0, 0, 1]], dtype=np.uint8)
        states = pack_bits_to_states(bits)
        assert states.shape == (1, 4)  # 7 bits -> 4 cells (padded)
        recovered = unpack_states_to_bits(states, 7)
        assert np.array_equal(recovered, bits)

    def test_zero_bits_use_cheapest_state(self):
        states = pack_bits_to_states(np.zeros((1, 4), dtype=np.uint8))
        assert (states == 0).all()  # symbol 00 -> S1 under the default mapping

    def test_requires_2d(self):
        with pytest.raises(EncodingError):
            pack_bits_to_states(np.zeros(4, dtype=np.uint8))


IDENTITY = np.arange(4, dtype=np.uint8)
REVERSED = IDENTITY[::-1].copy()


class TestBlockSelection:
    def test_select_states_per_block(self):
        mappings = np.stack([IDENTITY, REVERSED])
        symbols = np.array([[0, 1, 0, 1, 2, 3, 2, 3]], dtype=np.uint8)
        choice = np.array([[0, 1, 1, 0]], dtype=np.uint8)  # four 2-cell blocks
        selected = select_states_per_block(mappings, symbols, choice, 2)
        assert selected[0].tolist() == [0, 1, 3, 2, 1, 0, 2, 3]

    def test_select_applies_the_chosen_symbol_xor(self):
        mappings = np.stack([IDENTITY, IDENTITY])
        symbol_xor = np.array([[0, 0, 0, 0], [3, 2, 1, 0]], dtype=np.uint8)
        symbols = np.zeros((2, 4), dtype=np.uint8)
        choice = np.array([[0], [1]], dtype=np.uint8)  # one 4-cell block
        selected = select_states_per_block(mappings, symbols, choice, 4, symbol_xor)
        assert selected.tolist() == [[0, 0, 0, 0], [3, 2, 1, 0]]

    def test_select_rejects_bad_choice_shape(self):
        with pytest.raises(EncodingError):
            select_states_per_block(
                np.stack([IDENTITY, REVERSED]),
                np.zeros((1, 8), dtype=np.uint8),
                np.zeros((1, 3), dtype=np.uint8),
                2,
            )

    def test_block_energy_costs(self):
        # One line of 4 cells, 2 candidates, block size 2: the identity
        # mapping writes states (0, 0, 3, 3), the reversed one (3, 3, 0, 0).
        stored = np.zeros((1, 4), dtype=np.uint8)
        symbols = np.array([[0, 0, 3, 3]], dtype=np.uint8)
        codes = transition_codes(symbols, stored)
        costs = block_energy_costs(
            np.stack([IDENTITY, REVERSED]), codes, DEFAULT_ENERGY_MODEL, 2
        )
        assert costs.shape == (2, 1, 2)
        assert costs[0, 0, 0] == 0.0                   # unchanged cells cost nothing
        assert costs[0, 0, 1] == pytest.approx(2 * 583.0)
        assert costs[1, 0, 0] == pytest.approx(2 * 583.0)
        assert costs[1, 0, 1] == 0.0
        masked = block_energy_costs(
            np.stack([IDENTITY]), codes, DEFAULT_ENERGY_MODEL, 2, active_cells=3
        )
        assert masked[0, 0].tolist() == [0.0, 583.0]   # cell 3 is past active_cells

    def test_block_flip_costs(self):
        stored = np.zeros((1, 4), dtype=np.uint8)
        codes = transition_codes(np.array([[0, 1, 2, 0]], dtype=np.uint8), stored)
        flips = block_flip_costs(np.stack([IDENTITY]), codes, 2)
        assert flips.dtype == np.int64
        assert flips[0, 0].tolist() == [1, 1]


class TestEncodedBatch:
    def test_changed_and_total_cells(self):
        states = np.array([[0, 1, 2]], dtype=np.uint8)
        old = np.array([[0, 0, 2]], dtype=np.uint8)
        batch = EncodedBatch(
            states=states,
            old_states=old,
            aux_mask=np.zeros_like(states, dtype=bool),
            compressed=np.zeros(1, dtype=bool),
            encoded=np.zeros(1, dtype=bool),
        )
        assert batch.changed.tolist() == [[False, True, False]]
        assert batch.total_cells == 3

    def test_shape_validation(self):
        with pytest.raises(EncodingError):
            EncodedBatch(
                states=np.zeros((1, 3), dtype=np.uint8),
                old_states=np.zeros((1, 4), dtype=np.uint8),
                aux_mask=np.zeros((1, 3), dtype=bool),
                compressed=np.zeros(1, dtype=bool),
                encoded=np.zeros(1, dtype=bool),
            )


class TestWriteEncoderInterface:
    def test_encode_batch_length_mismatch(self, biased_lines):
        encoder = BaselineEncoder()
        with pytest.raises(EncodingError):
            encoder.encode_batch(biased_lines[:3], biased_lines[:4])

    def test_encode_against_stored_shape_check(self, biased_lines):
        encoder = BaselineEncoder()
        with pytest.raises(EncodingError):
            encoder.encode_against_stored(biased_lines[:2], np.zeros((2, 10), dtype=np.uint8))

    def test_fresh_states_are_reset(self):
        encoder = BaselineEncoder()
        fresh = encoder.fresh_states(3)
        assert fresh.shape == (3, encoder.total_cells)
        assert (fresh == 0).all()

    def test_encode_reference_is_deterministic(self, biased_lines):
        encoder = BaselineEncoder()
        a = encoder.encode_reference(biased_lines[:5])
        b = encoder.encode_reference(biased_lines[:5])
        assert np.array_equal(a, b)
