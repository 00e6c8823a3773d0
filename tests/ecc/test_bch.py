"""Tests of the 2-error-correcting BCH code used by DIN."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.bch import BCHCode, _gf2_poly_mod


@pytest.fixture(scope="module")
def code():
    return BCHCode(m=10, t=2, data_bits=492)


class TestStructure:
    def test_parity_width_is_20_bits(self, code):
        assert code.parity_bits == 20
        assert code.codeword_bits == 512

    def test_data_bits_bound(self):
        with pytest.raises(ValueError):
            BCHCode(m=10, t=2, data_bits=1020)

    def test_smaller_field(self):
        small = BCHCode(m=6, t=2, data_bits=20)
        assert small.parity_bits == 12
        assert small.codeword_bits == 32

    @pytest.mark.parametrize("m,t,data_bits", [(10, 2, 492), (6, 2, 20), (5, 1, 26)])
    def test_remainder_rows_match_long_division(self, m, t, data_bits):
        """Row i of the incrementally built table is x^(i + r) mod g(x)."""
        bch = BCHCode(m=m, t=t, data_bits=data_bits)
        r = bch.parity_bits
        expected = [
            [(_gf2_poly_mod(1 << (i + r), bch.generator_poly) >> j) & 1 for j in range(r)]
            for i in range(data_bits)
        ]
        assert bch._remainder_table.dtype == np.uint8
        assert bch._remainder_table.tolist() == expected


class TestEncoding:
    def test_encode_shape(self, code, rng):
        data = rng.integers(0, 2, size=code.data_bits).astype(np.uint8)
        codeword = code.encode(data)
        assert codeword.shape[0] == code.codeword_bits
        assert np.array_equal(codeword[code.parity_bits:], data)

    def test_parity_rejects_wrong_length(self, code):
        with pytest.raises(ValueError):
            code.parity(np.zeros(10, dtype=np.uint8))

    def test_codeword_has_zero_syndromes(self, code, rng):
        data = rng.integers(0, 2, size=code.data_bits).astype(np.uint8)
        codeword = code.encode(data)
        assert all(s == 0 for s in code.syndromes(codeword))

    def test_zero_data_gives_zero_parity(self, code):
        assert code.parity(np.zeros(code.data_bits, dtype=np.uint8)).sum() == 0


class TestDecoding:
    def test_no_error(self, code, rng):
        data = rng.integers(0, 2, size=code.data_bits).astype(np.uint8)
        codeword = code.encode(data)
        result = code.decode(codeword)
        assert result.success and result.error_positions == ()

    @pytest.mark.parametrize("position", [0, 19, 20, 255, 511])
    def test_single_error_corrected(self, code, rng, position):
        data = rng.integers(0, 2, size=code.data_bits).astype(np.uint8)
        codeword = code.encode(data)
        corrupted = codeword.copy()
        corrupted[position] ^= 1
        result = code.decode(corrupted)
        assert result.success
        assert np.array_equal(result.corrected, codeword)
        assert result.error_positions == (position,)

    @pytest.mark.parametrize("positions", [(3, 400), (0, 511), (100, 101), (21, 22)])
    def test_double_error_corrected(self, code, rng, positions):
        data = rng.integers(0, 2, size=code.data_bits).astype(np.uint8)
        codeword = code.encode(data)
        corrupted = codeword.copy()
        for position in positions:
            corrupted[position] ^= 1
        result = code.decode(corrupted)
        assert result.success
        assert np.array_equal(result.corrected, codeword)
        assert set(result.error_positions) == set(positions)

    def test_wrong_length_rejected(self, code):
        with pytest.raises(ValueError):
            code.decode(np.zeros(100, dtype=np.uint8))

    def test_triple_error_not_silently_accepted(self, code, rng):
        """Three errors exceed t=2: decoding must not claim a clean success
        that still differs from the transmitted codeword in unknown ways."""
        data = rng.integers(0, 2, size=code.data_bits).astype(np.uint8)
        codeword = code.encode(data)
        corrupted = codeword.copy()
        for position in (5, 200, 410):
            corrupted[position] ^= 1
        result = code.decode(corrupted)
        # Either the decoder flags failure, or it "corrects" to some other valid
        # codeword; it must never return success while leaving syndromes non-zero.
        if result.success:
            assert all(s == 0 for s in code.syndromes(result.corrected))


@given(st.integers(min_value=0, max_value=491), st.integers(min_value=0, max_value=491))
@settings(max_examples=15, deadline=None)
def test_two_error_correction_property(p1, p2):
    """Property: any pair of distinct error positions in the data is corrected."""
    code = BCHCode(m=10, t=2, data_bits=492)
    data = np.zeros(code.data_bits, dtype=np.uint8)
    data[::7] = 1
    codeword = code.encode(data)
    corrupted = codeword.copy()
    corrupted[code.parity_bits + p1] ^= 1
    corrupted[code.parity_bits + p2] ^= 1
    result = code.decode(corrupted)
    assert result.success
    assert np.array_equal(result.corrected, codeword)
