"""Shared machinery of the WLC-based encoders (WLCRC and WLC+cosets).

All WLC-based schemes follow the same structure (Section VI of the paper):

1. Test whether the line is Word-Level-Compressible: the top ``k`` bits of all
   eight 64-bit words must be identical, where ``k`` is one more than the
   number of bits the scheme needs to reclaim per word.
2. If the line is compressible, each word is encoded independently: its data
   blocks are mapped through coset candidates chosen by the scheme-specific
   selection rule, and the per-word auxiliary bits (candidate selectors) are
   stored in the reclaimed most-significant bits of that word.
3. If the line is not compressible, it is written raw (default mapping, plain
   differential write).
4. One *flag cell* appended to the line records whether the line was
   compressed; following the paper it uses the two lowest-energy states
   (S1 = compressed, S2 = raw), for a space overhead below 0.4 %.

Concrete subclasses only provide the per-word candidate-selection rule
(:meth:`WLCWordEncoderBase._select_candidates`) and the mapping between
auxiliary bit values and per-block candidate indices
(:meth:`WLCWordEncoderBase._choices_from_aux`).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Tuple

import numpy as np

from ..compression.wlc import WLCCompressor
from ..core.cosets import DEFAULT_MAPPING, apply_mapping, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import (
    BITS_PER_WORD,
    SYMBOLS_PER_LINE,
    SYMBOLS_PER_WORD,
    WORDS_PER_LINE,
    symbols_to_words,
    words_to_symbols,
)
from .base import (
    WriteEncoder,
    block_energy_costs,
    block_flip_costs,
    select_states_per_block,
    transition_codes,
)

#: Flag-cell state marking a compressed (encoded) line.
FLAG_COMPRESSED_STATE = 0
#: Flag-cell state marking a raw (unencoded) line.
FLAG_RAW_STATE = 1


class WLCWordEncoderBase(WriteEncoder):
    """Base class of the word-level compressed coset encoders."""

    # Compressibility, candidate selection and the raw fallback are all
    # decided per line, so tiled fused-metrics evaluation is bit-identical
    # to a batch encode (covers WLCRC and the WLC+cosets variants).
    supports_fused_metrics = True

    #: Whether :meth:`_select_candidates` reads the per-block flip counts;
    #: when ``False`` they are not computed and ``None`` is passed instead.
    uses_flip_costs: bool = False

    def __init__(
        self,
        granularity_bits: int,
        candidates: np.ndarray,
        reclaimed_bits: int,
        name: str,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ):
        super().__init__(energy_model)
        if granularity_bits not in (8, 16, 32, 64):
            raise ConfigurationError("WLC-based encodings support 8/16/32/64-bit blocks")
        if not 1 <= reclaimed_bits <= 32:
            raise ConfigurationError("reclaimed_bits must be between 1 and 32")
        self.granularity_bits = granularity_bits
        self.candidates = np.asarray(candidates, dtype=np.uint8)
        self.inverse_candidates = np.stack([invert_mapping(c) for c in self.candidates])
        self.reclaimed_bits = reclaimed_bits
        self.wlc = WLCCompressor(k=reclaimed_bits + 1)
        self.blocks_per_word = BITS_PER_WORD // granularity_bits
        self.block_cells = granularity_bits // 2
        #: Cells at the top of each word that hold auxiliary (reclaimed) bits.
        self.aux_region_cells = (reclaimed_bits + 1) // 2
        #: Cells of each word that carry coset-encoded data.
        self.data_region_cells = SYMBOLS_PER_WORD - self.aux_region_cells
        self.name = name

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def aux_cells(self) -> int:
        """One flag cell per line marks whether the line was compressed."""
        return 1

    @property
    def flag_cell_index(self) -> int:
        """Index of the compressibility flag cell within the written cells."""
        return SYMBOLS_PER_LINE

    def word_aux_mask(self) -> np.ndarray:
        """Per-word boolean mask of the cells attributed to auxiliary data."""
        mask = np.zeros(SYMBOLS_PER_WORD, dtype=bool)
        mask[self.data_region_cells:] = True
        return mask

    # ------------------------------------------------------------------ #
    # Scheme-specific hooks
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _select_candidates(
        self,
        block_costs: np.ndarray,
        block_flips: np.ndarray,
        stored_aux_values: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Choose a candidate per block and build per-word auxiliary values.

        Parameters
        ----------
        block_costs:
            ``(k, n, 8, blocks)`` per-block differential-write energies.
        block_flips:
            ``(k, n, 8, blocks)`` per-block rewritten-cell counts, or ``None``
            unless :attr:`uses_flip_costs` is set.
        stored_aux_values:
            ``(n, 8)`` integers currently held in the reclaimed bits of each
            stored word.  Cost ties are broken in favour of the stored
            candidate so that rewriting identical data leaves every auxiliary
            cell untouched (for raw stored lines the values are meaningless
            and only influence tie-breaks).

        Returns
        -------
        tuple
            ``(choice, aux_values)`` where ``choice`` has shape
            ``(n, 8, blocks)`` (candidate index per block) and ``aux_values``
            has shape ``(n, 8)`` (the integer written into the reclaimed bits
            of each word).
        """

    @abstractmethod
    def _choices_from_aux(self, aux_values: np.ndarray) -> np.ndarray:
        """Recover per-block candidate indices from the reclaimed-bit values."""

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = len(lines)
        symbols = lines.symbols()
        stored_data = stored_states[:, :SYMBOLS_PER_LINE]
        compressible = self.wlc.line_compressible(lines)

        raw_states = apply_mapping(DEFAULT_MAPPING, symbols)

        # Words become independent rows of an (n*8, 32) code array and the
        # auxiliary region is excluded from the costs through active_cells.
        stored_words = stored_data.reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
        codes = transition_codes(symbols, stored_data).reshape(
            n * WORDS_PER_LINE, SYMBOLS_PER_WORD
        )
        shape = (len(self.candidates), n, WORDS_PER_LINE, self.blocks_per_word)
        block_costs = block_energy_costs(
            self.candidates,
            codes,
            self.energy_model,
            self.block_cells,
            active_cells=self.data_region_cells,
        ).reshape(shape)
        block_flips = None
        if self.uses_flip_costs:
            # Flip counts are exact integers, so the float64 cast is exact.
            block_flips = block_flip_costs(
                self.candidates,
                codes,
                self.block_cells,
                active_cells=self.data_region_cells,
            ).astype(np.float64).reshape(shape)

        stored_aux_values = self._stored_aux_values(stored_words)
        choice, aux_values = self._select_candidates(block_costs, block_flips, stored_aux_values)

        encoded_states = select_states_per_block(
            self.candidates, symbols, choice.reshape(n, -1), self.block_cells
        ).reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
        # Auxiliary-region cells store the reclaimed bits under the default mapping.
        words_with_aux = self.wlc.insert_reclaimed(lines.words, aux_values)
        aux_symbols = words_to_symbols(words_with_aux).reshape(n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
        encoded_states[..., self.data_region_cells:] = apply_mapping(
            DEFAULT_MAPPING, aux_symbols[..., self.data_region_cells:]
        )
        encoded_states = encoded_states.reshape(n, SYMBOLS_PER_LINE)

        data_states = np.where(compressible[:, None], encoded_states, raw_states).astype(np.uint8)
        flag_states = np.where(compressible, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE).astype(np.uint8)
        states = np.concatenate([data_states, flag_states[:, None]], axis=1)

        aux_mask = np.zeros((n, self.total_cells), dtype=bool)
        line_aux = np.tile(self.word_aux_mask(), WORDS_PER_LINE)
        aux_mask[:, :SYMBOLS_PER_LINE] = compressible[:, None] & line_aux[None, :]
        aux_mask[:, self.flag_cell_index] = True
        return states, aux_mask, compressible, compressible.copy()

    def _stored_aux_values(self, stored_words: np.ndarray) -> np.ndarray:
        """Reclaimed-bit values currently stored in each word's auxiliary cells.

        ``stored_words`` is the ``(n, 8, 32)`` array of stored cell states.
        The auxiliary region is always written under the default mapping, so
        inverting it recovers the stored selector bits.
        """
        inverse_default = invert_mapping(DEFAULT_MAPPING)
        aux_symbols = inverse_default[stored_words[..., self.data_region_cells:]]
        positions = np.arange(self.data_region_cells, SYMBOLS_PER_WORD)
        shifts = positions.astype(np.uint64) * np.uint64(2)
        partial_words = (aux_symbols.astype(np.uint64) << shifts).sum(axis=-1, dtype=np.uint64)
        return partial_words >> np.uint64(BITS_PER_WORD - self.reclaimed_bits)

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        n = states.shape[0]
        data_states = states[:, :SYMBOLS_PER_LINE]
        flag = states[:, self.flag_cell_index]
        compressed = flag == FLAG_COMPRESSED_STATE

        raw_symbols = invert_mapping(DEFAULT_MAPPING)[data_states]

        word_shape = (n, WORDS_PER_LINE, SYMBOLS_PER_WORD)
        aux_values = self._stored_aux_values(data_states.reshape(word_shape))
        choice = self._choices_from_aux(aux_values)
        decoded_symbols = select_states_per_block(
            self.inverse_candidates, data_states, choice.reshape(n, -1), self.block_cells
        )
        # The aux region (including any data bit sharing a cell with aux bits)
        # was stored under the default mapping.
        aux = np.s_[..., self.data_region_cells:]
        decoded_symbols.reshape(word_shape)[aux] = raw_symbols.reshape(word_shape)[aux]
        decoded_words = self.wlc.sign_extend(symbols_to_words(decoded_symbols))

        raw_words = symbols_to_words(raw_symbols)
        words = np.where(compressed[:, None], decoded_words, raw_words)
        return LineBatch(words)
