"""Flip-N-Write (FNW) [Cho & Lee, MICRO 2009], adapted to MLC PCM.

FNW writes either a data block or its bitwise complement, whichever rewrites
fewer (or cheaper) cells, and records the decision in one auxiliary flip bit
per block.  Following the paper's ISO-overhead comparison, the 512-bit line is
partitioned into four 128-bit blocks so that the four flip bits match the two
auxiliary symbols used by FlipMin and 6cosets.  At the symbol level,
complementing a block maps each symbol to its bitwise complement
(``00 <-> 11``, ``01 <-> 10``) before the default symbol-to-state mapping is
applied.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.cosets import DEFAULT_MAPPING, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import SYMBOLS_PER_LINE
from .base import (
    WriteEncoder,
    block_energy_costs,
    pack_bits_to_states,
    select_states_per_block,
    transition_codes,
    unpack_states_to_bits,
)

#: The two FNW candidates as mappings: the default mapping, and the default
#: mapping of the complemented symbol (``3 - s``), i.e. the reversed table.
FNW_MAPPINGS = np.stack([DEFAULT_MAPPING, DEFAULT_MAPPING[::-1]])


class FNWEncoder(WriteEncoder):
    """Flip-N-Write at a configurable block granularity (default 128 bits)."""

    def __init__(
        self,
        block_bits: int = 128,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        super().__init__(energy_model)
        if block_bits % 2 or (SYMBOLS_PER_LINE * 2) % block_bits:
            raise ConfigurationError("block_bits must evenly divide the 512-bit line")
        self.block_bits = block_bits
        self.block_cells = block_bits // 2
        self.num_blocks = SYMBOLS_PER_LINE // self.block_cells
        self.name = f"fnw-{block_bits}"
        self.inverse_mappings = np.stack([invert_mapping(m) for m in FNW_MAPPINGS])

    @property
    def aux_cells(self) -> int:
        """One flip bit per block, packed two bits per auxiliary cell."""
        return (self.num_blocks + 1) // 2

    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(lines)
        symbols = lines.symbols()
        codes = transition_codes(symbols, stored_states[:, :SYMBOLS_PER_LINE])
        costs = block_energy_costs(FNW_MAPPINGS, codes, self.energy_model, self.block_cells)
        choice = costs.argmin(axis=0).astype(np.uint8)  # (n, blocks)
        data_states = select_states_per_block(FNW_MAPPINGS, symbols, choice, self.block_cells)
        aux_states = pack_bits_to_states(choice)
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
        flip_bits = unpack_states_to_bits(aux_states, self.num_blocks)
        symbols = select_states_per_block(
            self.inverse_mappings, data_states, flip_bits, self.block_cells
        )
        return LineBatch.from_symbols(symbols)
