"""DIN: 3-to-4-bit expansion coding gated by FPC+BDI compression.

DIN [Jiang et al., DSN 2014] was designed to mitigate write disturbance in
super-dense PCM.  It compresses the memory line with FPC+BDI and, when the
line shrinks enough, expands every 3 compressed bits into a 4-bit codeword
drawn from the cheapest (lowest write-energy / disturbance-prone) symbol
patterns, then protects the line with a 20-bit BCH code that corrects two
write-disturbance errors during write verification.  Lines that do not
compress far enough are written raw -- which, per Figure 4 of the paper,
happens to roughly 70 % of memory lines.

Layout of an encoded line (bit positions from the least significant bit):

``[ 9-bit length | compressed stream | padding ] -> 3-to-4 expansion -> 492 bits``
``[ 492 expanded bits | 20 BCH parity bits ] = 512 bits``

The 9-bit length header makes decoding self-contained; it is charged against
the same 369-bit compression budget the paper quotes, so the FPC+BDI output
itself must fit in 360 bits.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..compression.fpc_bdi import FPCBDICompressor
from ..compression.kernels import PackedBits, pack_fields, unpack_fields
from ..core.cosets import DEFAULT_MAPPING, apply_mapping, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import EncodingError
from ..core.line import LineBatch
from ..core.symbols import (
    BITS_PER_LINE,
    SYMBOLS_PER_LINE,
    bits_to_symbols,
    symbols_to_bits,
    symbols_to_words,
)
from ..ecc.bch import BCHCode
from .base import FLAG_COMPRESSED_STATE, FLAG_RAW_STATE, WriteEncoder

#: Bits reserved for the compressed-length header inside the encoded payload.
LENGTH_HEADER_BITS = 9
#: Maximum FPC+BDI output size (bits) for a line to be DIN-encodable.
MAX_COMPRESSED_BITS = 360
#: Number of expanded (3-to-4 coded) bits stored per line.
EXPANDED_BITS = 492
#: Number of BCH parity bits appended per encoded line.
BCH_PARITY_BITS = 20


def build_din_mapping(energy_model: EnergyModel = DEFAULT_ENERGY_MODEL) -> Tuple[np.ndarray, np.ndarray]:
    """Build the 3-bit-to-4-bit DIN expansion table and its inverse.

    The eight 4-bit codewords are the patterns whose two MLC symbols have the
    lowest total write energy under the default mapping, so the expansion
    steers the stored cells away from the expensive (and disturbance-prone)
    states.  Codeword 0 is always ``0000`` so zero padding stays benign.
    """
    weights = energy_model.write_energy_per_state
    default = DEFAULT_MAPPING
    scored = []
    for pattern in range(16):
        low_symbol = pattern & 0b11
        high_symbol = (pattern >> 2) & 0b11
        energy = weights[default[low_symbol]] + weights[default[high_symbol]]
        scored.append((energy, pattern))
    scored.sort()
    forward = np.array([pattern for _, pattern in scored[:8]], dtype=np.uint8)
    inverse = np.full(16, 0, dtype=np.uint8)
    for value, pattern in enumerate(forward):
        inverse[pattern] = value
    return forward, inverse


class DINEncoder(WriteEncoder):
    """DIN baseline: FPC+BDI gating, 3-to-4-bit expansion and BCH protection."""

    name = "din"

    def __init__(self, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL):
        super().__init__(energy_model)
        self.compressor = FPCBDICompressor()
        self.bch = BCHCode(m=10, t=2, data_bits=EXPANDED_BITS)
        self.expand_table, self.contract_table = build_din_mapping(energy_model)

    @property
    def aux_cells(self) -> int:
        """One flag cell distinguishes encoded lines from raw lines."""
        return 1

    @property
    def flag_cell_index(self) -> int:
        """Index of the encoded/raw flag cell."""
        return SYMBOLS_PER_LINE

    # ------------------------------------------------------------------ #
    # Batched encode / decode of the DIN payload
    # ------------------------------------------------------------------ #
    def _encode_lines_bits(self, lines: LineBatch) -> np.ndarray:
        """Build the 512-bit encoded payloads of a batch of compressible lines.

        The whole pipeline -- compression, length header, 3-to-4 expansion --
        is vectorised.  Zero padding up to the full 369-bit budget is benign:
        codeword 0 of the DIN table is ``0000`` by construction, so expanding
        the padded groups writes the same zeros the per-line path produced.
        The BCH parity is batched too: one GF(2) reduction against the code's
        shifted-remainder table (:meth:`repro.ecc.bch.BCHCode.parity_batch`)
        replaces the per-line polynomial carry chain.
        """
        packed = self.compressor.compress_batch(lines)
        sizes = packed.lengths
        if np.any(sizes > MAX_COMPRESSED_BITS):
            raise EncodingError("line exceeds the DIN compression budget")
        n = len(lines)
        budget = LENGTH_HEADER_BITS + MAX_COMPRESSED_BITS
        payload = np.zeros((n, budget), dtype=np.uint8)
        payload[:, :LENGTH_HEADER_BITS] = unpack_fields(
            sizes.astype(np.uint64), LENGTH_HEADER_BITS
        )
        width = min(packed.bits.shape[1], MAX_COMPRESSED_BITS)
        payload[:, LENGTH_HEADER_BITS:LENGTH_HEADER_BITS + width] = packed.bits[:, :width]
        groups = payload.reshape(n, -1, 3)
        values = groups[..., 0] | (groups[..., 1] << 1) | (groups[..., 2] << 2)
        codewords = self.expand_table[values]
        expanded = unpack_fields(codewords.astype(np.uint64), 4).reshape(n, -1)
        line_bits = np.zeros((n, BITS_PER_LINE), dtype=np.uint8)
        line_bits[:, :expanded.shape[1]] = expanded
        line_bits[:, EXPANDED_BITS:EXPANDED_BITS + BCH_PARITY_BITS] = (
            self.bch.parity_batch(line_bits[:, :EXPANDED_BITS])
        )
        return line_bits

    def _encode_line_bits(self, words: np.ndarray) -> np.ndarray:
        """Build the 512-bit encoded payload of one compressible line."""
        return self._encode_lines_bits(
            LineBatch(np.asarray(words, dtype=np.uint64).reshape(1, -1))
        )[0]

    def _decode_lines_bits(self, line_bits: np.ndarray) -> np.ndarray:
        """Recover the original words of a batch of encoded lines."""
        line_bits = np.asarray(line_bits, dtype=np.uint8)
        n = line_bits.shape[0]
        expanded = line_bits[:, :EXPANDED_BITS]
        codewords = pack_fields(expanded.reshape(n, -1, 4))
        values = self.contract_table[codewords.astype(np.intp)]
        payload = unpack_fields(values.astype(np.uint64), 3).reshape(n, -1)
        sizes = pack_fields(payload[:, :LENGTH_HEADER_BITS]).astype(np.int64)
        bad = sizes[sizes > MAX_COMPRESSED_BITS]
        if bad.size:
            raise EncodingError(f"invalid DIN length header: {int(bad[0])}")
        packed = PackedBits(
            payload[:, LENGTH_HEADER_BITS:], sizes, self.compressor.name
        )
        return self.compressor.decompress_batch(packed)

    def _decode_line_bits(self, line_bits: np.ndarray) -> np.ndarray:
        """Recover the original words of one encoded line."""
        return self._decode_lines_bits(np.asarray(line_bits, dtype=np.uint8)[None, :])[0]

    # ------------------------------------------------------------------ #
    # WriteEncoder interface
    # ------------------------------------------------------------------ #
    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(lines)
        symbols = lines.symbols()
        raw_states = apply_mapping(DEFAULT_MAPPING, symbols)
        sizes = self.compressor.sizes_bits(lines)
        encodable = sizes <= MAX_COMPRESSED_BITS

        data_states = raw_states.copy()
        rows = np.nonzero(encodable)[0]
        if rows.size:
            line_bits = self._encode_lines_bits(LineBatch(lines.words[rows]))
            line_symbols = bits_to_symbols(line_bits)
            data_states[rows] = apply_mapping(DEFAULT_MAPPING, line_symbols)

        flag_states = np.where(encodable, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE).astype(np.uint8)
        states = np.concatenate([data_states, flag_states[:, None]], axis=1).astype(np.uint8)

        aux_mask = np.zeros((n, self.total_cells), dtype=bool)
        # For encoded lines the expansion and parity bits are all metadata; the
        # paper attributes the entire encoded payload to the data component, so
        # only the flag cell is counted as auxiliary here.
        aux_mask[:, self.flag_cell_index] = True
        compressed = encodable.copy()
        return states, aux_mask, compressed, encodable

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        inverse = invert_mapping(DEFAULT_MAPPING)
        data_symbols = inverse[states[:, :SYMBOLS_PER_LINE]]
        flag = states[:, self.flag_cell_index]
        words = symbols_to_words(data_symbols.astype(np.uint8))
        decoded = words.copy()
        rows = np.nonzero(flag == FLAG_COMPRESSED_STATE)[0]
        if rows.size:
            line_bits = symbols_to_bits(data_symbols[rows])
            decoded[rows] = self._decode_lines_bits(line_bits)
        return LineBatch(decoded)
