"""Tests of the DIN and COC+4cosets baselines."""

import numpy as np

from repro.coding import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE, make_scheme
from repro.coding.coset import MODE_CELL
from repro.coding.din import (
    BCH_PARITY_BITS,
    DINEncoder,
    EXPANDED_BITS,
    LENGTH_HEADER_BITS,
    MAX_COMPRESSED_BITS,
    build_din_mapping,
)
from repro.core.cosets import DEFAULT_MAPPING
from repro.core.symbols import SYMBOLS_PER_LINE


class TestDINMapping:
    def test_mapping_shape_and_inverse(self):
        forward, inverse = build_din_mapping()
        assert forward.shape == (8,)
        assert len(set(forward.tolist())) == 8
        for value, pattern in enumerate(forward):
            assert inverse[pattern] == value

    def test_zero_maps_to_zero(self):
        forward, _ = build_din_mapping()
        assert forward[0] == 0

    def test_codewords_avoid_the_most_expensive_state(self):
        """The eight chosen 4-bit codewords never store a symbol in S4."""
        forward, _ = build_din_mapping()
        for pattern in forward:
            low = DEFAULT_MAPPING[pattern & 0b11]
            high = DEFAULT_MAPPING[(pattern >> 2) & 0b11]
            assert low != 3 and high != 3


class TestDINLayout:
    def test_budget_arithmetic(self):
        """Header + compressed payload expand into exactly 492 bits + 20 BCH bits."""
        payload = LENGTH_HEADER_BITS + MAX_COMPRESSED_BITS
        assert 4 * ((payload + 2) // 3) == EXPANDED_BITS
        assert EXPANDED_BITS + BCH_PARITY_BITS == 512

    def test_geometry(self):
        encoder = DINEncoder()
        assert encoder.aux_cells == 1
        assert encoder.total_cells == SYMBOLS_PER_LINE + 1


class TestDINBehaviour:
    def test_roundtrip_biased(self, biased_lines):
        encoder = DINEncoder()
        subset = biased_lines[:24]
        assert encoder.roundtrip(subset) == subset

    def test_roundtrip_random(self, random_lines):
        encoder = DINEncoder()
        subset = random_lines[:8]
        assert encoder.roundtrip(subset) == subset

    def test_flags_follow_compressibility(self, biased_lines):
        encoder = DINEncoder()
        subset = biased_lines[:24]
        sizes = encoder.compressor.sizes_bits(subset)
        states = encoder.encode_reference(subset)
        flags = states[:, encoder.flag_cell_index]
        expected = np.where(sizes <= MAX_COMPRESSED_BITS, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE)
        assert np.array_equal(flags, expected)

    def test_encoded_payload_avoids_s4(self, biased_lines):
        """The expanded (3-to-4 coded) payload only uses the DIN codeword states.

        The BCH parity bits at the end of the line are excluded: they are not
        produced by the expansion table and may use any state.
        """
        encoder = DINEncoder()
        subset = biased_lines[:24]
        sizes = encoder.compressor.sizes_bits(subset)
        states = encoder.encode_reference(subset)
        encoded_rows = np.nonzero(sizes <= MAX_COMPRESSED_BITS)[0]
        if encoded_rows.size:
            payload_cells = EXPANDED_BITS // 2
            assert states[encoded_rows, :payload_cells].max() <= 2


class TestCOCFourCosets:
    def test_geometry(self):
        encoder = make_scheme("coc+4cosets")
        assert encoder.total_cells == SYMBOLS_PER_LINE + 1
        layout16, layout32 = encoder.geometries
        assert layout16.cells == 224 and layout16.blocks == 28
        assert layout32.cells == 240 and layout32.blocks == 15
        assert [layout.payload_bits for layout in encoder.spec.layouts] == [448, 480]

    def test_layout_fits_within_line(self):
        for layout in make_scheme("coc+4cosets").geometries:
            assert layout.cells + layout.aux_cells <= SYMBOLS_PER_LINE - 1

    def test_roundtrip_biased(self, biased_lines):
        encoder = make_scheme("coc+4cosets")
        subset = biased_lines[:24]
        assert encoder.roundtrip(subset) == subset

    def test_roundtrip_random(self, random_lines):
        encoder = make_scheme("coc+4cosets")
        subset = random_lines[:8]
        assert encoder.roundtrip(subset) == subset

    def test_compressed_fraction_high_on_biased_lines(self, biased_lines):
        encoder = make_scheme("coc+4cosets")
        subset = biased_lines[:32]
        encoded = encoder.encode_batch(subset, subset)
        assert encoded.compressed.mean() > 0.5

    def test_mode_cell_distinguishes_granularities(self, biased_lines):
        encoder = make_scheme("coc+4cosets")
        subset = biased_lines[:32]
        sizes = encoder.compressor.sizes_bits(subset)
        states = encoder.encode_reference(subset)
        layout16, layout32 = encoder.spec.layouts
        for i in range(len(subset)):
            if sizes[i] <= layout16.payload_bits:
                assert states[i, MODE_CELL] == DEFAULT_MAPPING[layout16.mode_symbol]
            elif sizes[i] <= layout32.payload_bits:
                assert states[i, MODE_CELL] == DEFAULT_MAPPING[layout32.mode_symbol]
