"""FlipMin [Jacobvitz et al., HPCA 2013], adapted to MLC PCM.

FlipMin XORs the memory line with one of sixteen binary coset vectors and
writes whichever result is cheapest, recording the vector index in two
auxiliary symbols (four bits).  The original vectors come from the dual code
of a (72, 64) Hamming generator matrix and behave like random binary vectors;
this implementation generates them from a fixed-seed PRNG
(:func:`repro.core.cosets.flipmin_coset_vectors`) so runs are reproducible.
Because the vectors are random, FlipMin works best on random data and loses
its edge on the biased data of real workloads -- one of the observations that
motivates the paper's hand-crafted coset candidates.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.cosets import DEFAULT_MAPPING, flipmin_coset_vectors, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import SYMBOLS_PER_LINE, words_to_symbols
from .base import (
    WriteEncoder,
    block_energy_costs,
    pack_bits_to_states,
    select_states_per_block,
    transition_codes,
    unpack_states_to_bits,
)


class FlipMinEncoder(WriteEncoder):
    """FlipMin with sixteen pseudo-random 512-bit coset vectors."""

    name = "flipmin"

    def __init__(
        self,
        num_cosets: int = 16,
        seed: int = 0x5EED,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        super().__init__(energy_model)
        if num_cosets < 2 or num_cosets > 16:
            raise ConfigurationError("num_cosets must be between 2 and 16")
        self.num_cosets = num_cosets
        self.vectors = flipmin_coset_vectors(num_cosets, seed=seed)
        # XORing a line with a vector XORs its symbols with the vector's
        # symbols, so every candidate is the default mapping applied to
        # ``symbols ^ vector_symbols[i]``.
        self.vector_symbols = words_to_symbols(self.vectors)
        self.mappings = np.repeat(DEFAULT_MAPPING[None, :], num_cosets, axis=0)
        self.index_bits = max(1, (num_cosets - 1).bit_length())

    @property
    def aux_cells(self) -> int:
        """Auxiliary cells holding the coset-vector index (four bits -> two cells)."""
        return (self.index_bits + 1) // 2

    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(lines)
        symbols = lines.symbols()
        codes = transition_codes(symbols, stored_states[:, :SYMBOLS_PER_LINE])
        costs = block_energy_costs(
            self.mappings, codes, self.energy_model, SYMBOLS_PER_LINE,
            symbol_xor=self.vector_symbols,
        )
        choice = costs.argmin(axis=0)  # (n, 1)
        data_states = select_states_per_block(
            self.mappings, symbols, choice, SYMBOLS_PER_LINE, symbol_xor=self.vector_symbols
        )
        index_bits = np.stack(
            [((choice[:, 0] >> b) & 1).astype(np.uint8) for b in range(self.index_bits)], axis=1
        )
        aux_states = pack_bits_to_states(index_bits)
        states = np.concatenate([data_states, aux_states], axis=1)
        aux_mask = np.zeros((n, self.total_cells), dtype=bool)
        aux_mask[:, SYMBOLS_PER_LINE:] = True
        compressed = np.zeros(n, dtype=bool)
        encoded = np.ones(n, dtype=bool)
        return states, aux_mask, compressed, encoded

    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        data_states = states[:, :SYMBOLS_PER_LINE]
        aux_states = states[:, SYMBOLS_PER_LINE:]
        bits = unpack_states_to_bits(aux_states, self.index_bits)
        index = np.zeros(states.shape[0], dtype=np.int64)
        for b in range(self.index_bits):
            index |= bits[:, b].astype(np.int64) << b
        index = np.clip(index, 0, self.num_cosets - 1)
        symbols = invert_mapping(DEFAULT_MAPPING)[data_states]
        batch = LineBatch.from_symbols(symbols)
        words = batch.words ^ self.vectors[index]
        return LineBatch(words)
