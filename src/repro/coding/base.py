"""Write-encoder interface and shared machinery of all encoding schemes.

Every scheme in :mod:`repro.coding` transforms a memory-line *write request*
(the new data value plus the currently stored content) into the array of cell
*states* that will actually be programmed into the PCM line, together with any
auxiliary cells the scheme needs.  The evaluation harness then derives write
energy, updated-cell count and disturbance errors from the difference between
the produced states and the stored states.

The central abstraction is :class:`WriteEncoder` with one required hook,
:meth:`WriteEncoder._encode_against_states`, which encodes a batch of new data
values given the states currently stored in the target cells.  On top of that
hook the base class provides:

* :meth:`WriteEncoder.encode_batch` -- the paper's trace-driven evaluation
  path.  The stored states of the *old* data value are reconstructed by
  encoding the old value against a fresh (all-RESET) background, mirroring the
  trace format used by the paper (each trace record carries the value to be
  written and the value being overwritten).
* :meth:`WriteEncoder.encode_against_stored` -- the stateful path used by the
  PCM device model, where the caller supplies the actual stored states.
* :meth:`WriteEncoder.decode_states` -- recover the original data from stored
  states, used by round-trip tests and by the PCM read path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.cosets import DEFAULT_MAPPING, apply_mapping, invert_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import EncodingError
from ..core.line import LineBatch
from ..core.symbols import SYMBOLS_PER_LINE


@dataclass
class EncodedBatch:
    """Result of encoding a batch of write requests.

    Attributes
    ----------
    states:
        ``(n, total_cells)`` array of target cell states for the new data.
    old_states:
        ``(n, total_cells)`` array of the states currently stored in those
        cells (what the new states are differentiated against).
    aux_mask:
        ``(n, total_cells)`` boolean array; ``True`` marks cells that hold
        auxiliary (encoding metadata) information rather than data bits.
    compressed:
        ``(n,)`` boolean array; ``True`` when the line was compressed by the
        scheme's compression front-end (always ``False`` for schemes without
        compression).
    encoded:
        ``(n,)`` boolean array; ``True`` when the line was actually encoded
        (as opposed to being written raw because compression failed).
    """

    states: np.ndarray
    old_states: np.ndarray
    aux_mask: np.ndarray
    compressed: np.ndarray
    encoded: np.ndarray

    def __post_init__(self) -> None:
        if self.states.shape != self.old_states.shape:
            raise EncodingError("states and old_states must have the same shape")
        if self.aux_mask.shape != self.states.shape:
            raise EncodingError("aux_mask must match the states shape")

    @property
    def changed(self) -> np.ndarray:
        """Boolean array of cells whose state changes (cells that are rewritten)."""
        return self.states != self.old_states

    @property
    def total_cells(self) -> int:
        """Number of cells written per request (data + auxiliary)."""
        return int(self.states.shape[1])

    def __len__(self) -> int:
        return int(self.states.shape[0])

    def window(self, start: int, stop: int) -> "EncodedBatch":
        """View of the requests in ``[start, stop)`` (no copies).

        Encoding is per-line, so a window of a super-batch encode is exactly
        the encode of those lines alone; the evaluation layer slices each
        coalesced encoder batch back into its original ``chunk_size`` windows
        to keep metric accumulation (and its float rounding) identical to the
        per-chunk path.
        """
        return EncodedBatch(
            states=self.states[start:stop],
            old_states=self.old_states[start:stop],
            aux_mask=self.aux_mask[start:stop],
            compressed=self.compressed[start:stop],
            encoded=self.encoded[start:stop],
        )


class WriteEncoder(ABC):
    """Base class of every write-encoding scheme."""

    #: Scheme identifier used by the registry, reports and benches.
    name: str = "encoder"

    #: Whether the evaluation layer may drive this encoder through the fused
    #: tiled encode+metrics path (``repro.evaluation.runner
    #: .encode_metrics_batch``).  Opting in asserts that encoding is strictly
    #: *per line* -- encoding any subset of a batch yields exactly the rows a
    #: full-batch encode would -- which is what makes tile-wise encoding
    #: bit-identical to a single super-batch encode.  Encoders with cross-line
    #: state must leave this ``False`` to keep the materialising path.
    supports_fused_metrics: bool = False

    def __init__(self, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL):
        self.energy_model = energy_model

    # ------------------------------------------------------------------ #
    # Scheme geometry
    # ------------------------------------------------------------------ #
    @property
    def aux_cells(self) -> int:
        """Number of auxiliary cells appended beyond the 256 data cells."""
        return 0

    @property
    def total_cells(self) -> int:
        """Total number of cells written per request."""
        return SYMBOLS_PER_LINE + self.aux_cells

    # ------------------------------------------------------------------ #
    # Required hook
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _encode_against_states(
        self, lines: LineBatch, stored_states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Encode ``lines`` given the states currently stored in the cells.

        Returns ``(states, aux_mask, compressed, encoded)`` where ``states``
        and ``aux_mask`` have shape ``(n, total_cells)`` and the last two have
        shape ``(n,)``.
        """

    @abstractmethod
    def decode_states(self, states: np.ndarray) -> LineBatch:
        """Recover the original data lines from stored cell states."""

    # ------------------------------------------------------------------ #
    # Public encoding entry points
    # ------------------------------------------------------------------ #
    def fresh_states(self, count: int) -> np.ndarray:
        """States of freshly RESET cells (all S1)."""
        return np.zeros((count, self.total_cells), dtype=np.uint8)

    def encode_reference(self, lines: LineBatch) -> np.ndarray:
        """Stored states of ``lines`` assuming they were written onto fresh cells."""
        states, _, _, _ = self._encode_against_states(lines, self.fresh_states(len(lines)))
        return states

    def encode_against_stored(self, lines: LineBatch, stored_states: np.ndarray) -> EncodedBatch:
        """Encode new data against explicitly supplied stored states."""
        stored_states = np.asarray(stored_states, dtype=np.uint8)
        if stored_states.shape != (len(lines), self.total_cells):
            raise EncodingError(
                f"stored_states must have shape ({len(lines)}, {self.total_cells})"
            )
        states, aux_mask, compressed, encoded = self._encode_against_states(lines, stored_states)
        return EncodedBatch(
            states=states,
            old_states=stored_states,
            aux_mask=aux_mask,
            compressed=compressed,
            encoded=encoded,
        )

    def encode_batch(self, new: LineBatch, old: LineBatch) -> EncodedBatch:
        """Encode trace-style write requests given old and new data values."""
        if len(new) != len(old):
            raise EncodingError("old and new batches must have the same length")
        old_states = self.encode_reference(old)
        return self.encode_against_stored(new, old_states)

    def roundtrip(self, lines: LineBatch) -> LineBatch:
        """Encode onto fresh cells and decode again (used by tests)."""
        return self.decode_states(self.encode_reference(lines))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------- #
# Shared helpers used by several schemes
# ---------------------------------------------------------------------- #
def pack_bits_to_states(bits: np.ndarray, mapping: np.ndarray = DEFAULT_MAPPING) -> np.ndarray:
    """Pack auxiliary bits into cell states two bits per cell.

    ``bits`` has shape ``(n, nbits)``; the number of bits is padded with zeros
    to an even count.  Bit ``2i`` becomes the low bit and bit ``2i+1`` the high
    bit of symbol ``i``, which is then mapped to a state with ``mapping``
    (default mapping C1, so the all-zero auxiliary value lands in the cheapest
    state S1).
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise EncodingError("bits must be a 2-D array (batch, nbits)")
    if bits.shape[1] % 2:
        bits = np.concatenate([bits, np.zeros((bits.shape[0], 1), dtype=np.uint8)], axis=1)
    symbols = (bits[:, 0::2] | (bits[:, 1::2] << 1)).astype(np.uint8)
    return apply_mapping(mapping, symbols)


def unpack_states_to_bits(
    states: np.ndarray, nbits: int, mapping: np.ndarray = DEFAULT_MAPPING
) -> np.ndarray:
    """Inverse of :func:`pack_bits_to_states`: recover ``nbits`` auxiliary bits."""
    states = np.asarray(states, dtype=np.uint8)
    symbols = invert_mapping(mapping)[states]
    low = (symbols & 1).astype(np.uint8)
    high = ((symbols >> 1) & 1).astype(np.uint8)
    bits = np.empty((states.shape[0], states.shape[1] * 2), dtype=np.uint8)
    bits[:, 0::2] = low
    bits[:, 1::2] = high
    return bits[:, :nbits]


#: Symbol and stored state encoded by each transition code ``symbol << 2 | stored``.
_CODE_SYMBOL = np.arange(16, dtype=np.uint8) >> 2
_CODE_STORED = np.arange(16, dtype=np.uint8) & 3


def transition_codes(symbols: np.ndarray, stored_states: np.ndarray) -> np.ndarray:
    """Per-cell transition code ``symbol << 2 | stored`` (values ``0..15``).

    A coset candidate is a symbol-to-state mapping, so the cost of writing a
    cell under any candidate depends only on the cell's symbol and stored
    state: one 16-entry table per candidate, indexed by this code, prices
    every cell of the batch.
    """
    return (np.asarray(symbols, dtype=np.uint8) << 2) | np.asarray(stored_states, dtype=np.uint8)


def _block_sums(
    tables: np.ndarray,
    codes: np.ndarray,
    block_cells: int,
    active_cells: Optional[int],
    symbol_xor: Optional[np.ndarray],
    dtype: type,
) -> np.ndarray:
    """Sum ``tables[i][codes]`` over every block, one candidate ``i`` at a time."""
    n, cells = codes.shape
    blocks = cells // block_cells
    code_xor = None if symbol_xor is None else np.asarray(symbol_xor, dtype=np.uint8) << 2
    sums = np.empty((len(tables), n, blocks), dtype=dtype)
    for index, table in enumerate(tables):
        per_cell = table[codes if code_xor is None else codes ^ code_xor[index]]
        if active_cells is not None and active_cells < cells:
            per_cell[:, active_cells:] = 0
        sums[index] = per_cell.reshape(n, blocks, block_cells).sum(axis=-1)
    return sums


def block_energy_costs(
    mappings: np.ndarray,
    codes: np.ndarray,
    energy_model: EnergyModel,
    block_cells: int,
    active_cells: Optional[int] = None,
    symbol_xor: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Differential-write energy of every block under every candidate.

    Parameters
    ----------
    mappings:
        ``(k, 4)`` symbol-to-state mapping of each candidate.
    codes:
        ``(n, cells)`` transition codes from :func:`transition_codes`.
    energy_model:
        Cell energy model.
    block_cells:
        Number of cells per encoding block.
    active_cells:
        Cells per row that carry coset-encoded data; cells at or past this
        index contribute zero cost (WLC's reclaimed auxiliary region).
        Defaults to every cell.
    symbol_xor:
        Optional ``(k, cells)`` symbol pattern candidate ``i`` XORs into the
        data before mapping it (FlipMin's coset vectors).

    Returns
    -------
    numpy.ndarray
        ``(k, n, blocks)`` float array of per-block write energies.

    Notes
    -----
    Entry ``s << 2 | o`` of candidate ``i``'s table is
    ``weights[M[s]] * (M[s] != o)`` with ``M = mappings[i]`` -- the very float
    the per-cell formula gives a cell holding state ``o`` that is written
    symbol ``s`` -- and each block reduces the same ``block_cells``
    contiguous floats with the same ``.sum``, so the costs are bit-identical
    to pricing materialised candidate states cell by cell.
    """
    targets = np.asarray(mappings, dtype=np.uint8)[:, _CODE_SYMBOL]
    tables = energy_model.write_energy_per_state[targets] * (targets != _CODE_STORED)
    return _block_sums(tables, codes, block_cells, active_cells, symbol_xor, np.float64)


def block_flip_costs(
    mappings: np.ndarray,
    codes: np.ndarray,
    block_cells: int,
    active_cells: Optional[int] = None,
    symbol_xor: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Number of rewritten cells per block under every candidate (endurance cost).

    Takes the arguments of :func:`block_energy_costs`; each candidate's table
    flags the transition codes whose target state differs from the stored one.
    """
    targets = np.asarray(mappings, dtype=np.uint8)[:, _CODE_SYMBOL]
    return _block_sums(
        targets != _CODE_STORED, codes, block_cells, active_cells, symbol_xor, np.int64
    )


def select_states_per_block(
    mappings: np.ndarray,
    symbols: np.ndarray,
    choice: np.ndarray,
    block_cells: int,
    symbol_xor: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Map every block's symbols through its chosen candidate.

    Parameters
    ----------
    mappings:
        ``(k, 4)`` symbol-to-state mapping of each candidate (pass the
        inverse mappings to turn stored states back into symbols).
    symbols:
        ``(n, cells)`` symbols to map.
    choice:
        ``(n, blocks)`` winning candidate per block, where
        ``cells == blocks * block_cells``.
    block_cells:
        Number of cells per block.
    symbol_xor:
        Optional ``(k, cells)`` symbol pattern XORed in before mapping, as in
        :func:`block_energy_costs`.

    Returns
    -------
    numpy.ndarray
        ``(n, cells)`` uint8 states of the winners.
    """
    symbols = np.asarray(symbols, dtype=np.uint8)
    n, cells = symbols.shape
    if choice.shape != (n, cells // block_cells):
        raise EncodingError("choice has the wrong shape for this block structure")
    per_cell_choice = np.repeat(choice.astype(np.uint8, copy=False), block_cells, axis=1)
    if symbol_xor is not None:
        symbols = symbols ^ np.asarray(symbol_xor)[per_cell_choice, np.arange(cells)]
    flat = np.asarray(mappings, dtype=np.uint8).ravel()
    return np.take(flat, (per_cell_choice << 2) | symbols)
