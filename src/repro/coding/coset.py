"""Every coset scheme as data: a frozen :class:`CosetSpec` run by :class:`CosetEncoder`.

All coset schemes of the paper make the same move (Sections III, V, VI and
Algorithm 1).  They split the line -- or each WLC-compressed 64-bit word --
into blocks, map every block through the cheapest of a few symbol-to-state
candidates, and record the choices in auxiliary bits.  What tells n-cosets,
3-r-cosets, FNW, FlipMin, COC+4cosets, WLC+cosets and WLCRC apart is data,
and a :class:`CosetSpec` holds exactly that data:

* ``candidates`` -- the symbol-to-state mappings.  FNW's complement is the
  reversed default mapping; FlipMin's candidates are the default mapping
  applied after XORing the line with one of its ``xor_words`` vectors.
* ``layouts`` -- the block granularity.  Rows are whole lines, or 64-bit
  words under the WLC front end.  COC keeps two layouts (448 and 480 payload
  bits) told apart by the symbol of a mode cell.
* ``front_end`` -- ``"none"`` encodes every line and appends the aux cells;
  ``"wlc"`` encodes the lines whose words have ``reclaimed_bits + 1``
  identical top bits and stores each word's aux in its reclaimed top bits;
  ``"coc"`` encodes the COC-compressed payload and stores the aux right after
  it.  Both compressing front ends write the other lines raw and append one
  flag cell.
* ``aux_codec`` -- how choices become aux cells: ``"cell"`` (index ``i`` is
  state ``Si``, the 4cosets/3cosets codec), ``"pair"`` (the cheapest two-cell
  state combinations, the 6cosets codec) or ``"bits"`` (binary fields, two
  bits per cell under the default mapping).
* ``selection`` -- ``"argmin"`` per block, or ``"restricted"``: each row takes
  the cheaper family ``{C1, C2}`` or ``{C1, C3}`` (Algorithm 1), then each
  block the cheaper member, and records one family bit plus one selector bit
  per block.  ``endurance_threshold`` T re-picks the family by rewritten
  cells when the two family energies are within T of each other (VIII-D).
* ``keep_stored`` -- cost ties keep the choice the stored aux records, so a
  rewrite of identical data touches no cell; otherwise ties take the lowest
  index.

The spec holds tuples and scalars only, so it is hashable and has a
canonical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..compression.coc import COCCompressor
from ..compression.kernels import PackedBits
from ..compression.wlc import WLCCompressor
from ..core.cosets import DEFAULT_MAPPING, RESTRICTED_FAMILIES, is_valid_mapping
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.line import LineBatch
from ..core.symbols import (
    BITS_PER_LINE,
    SYMBOLS_PER_LINE,
    SYMBOLS_PER_WORD,
    WORDS_PER_LINE,
    bits_to_symbols,
    symbols_to_bits,
    symbols_to_words,
    words_to_symbols,
)
from .base import (
    FLAG_COMPRESSED_STATE,
    FLAG_RAW_STATE,
    WriteEncoder,
    block_energy_costs,
    block_flip_costs,
    pack_bits_to_states,
    select_states_per_block,
    transition_codes,
    unpack_states_to_bits,
)

#: Index of the COC cell that records which layout a line used.
MODE_CELL = SYMBOLS_PER_LINE - 1
#: Granularities of the WLC word rows (Section IX-A).
WLC_GRANULARITIES = (8, 16, 32, 64)

_INVERSE_DEFAULT = np.argsort(DEFAULT_MAPPING).astype(np.uint8)
#: Largest candidate count of each aux codec (``None``: any).
_CODEC_LIMITS = {"cell": 4, "pair": 16, "bits": None}


@dataclass(frozen=True)
class CosetLayout:
    """One payload geometry: a payload of at most ``payload_bits`` is split
    into ``granularity_bits`` blocks; a COC layout also names its mode symbol."""

    granularity_bits: int
    payload_bits: int = BITS_PER_LINE
    mode_symbol: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "granularity_bits", int(self.granularity_bits))
        object.__setattr__(self, "payload_bits", int(self.payload_bits))
        if self.mode_symbol is not None:
            object.__setattr__(self, "mode_symbol", int(self.mode_symbol))


@dataclass(frozen=True)
class CosetSpec:
    """Everything that tells one coset scheme from another (see the module docstring)."""

    name: str
    candidates: Tuple[Tuple[int, ...], ...]
    layouts: Tuple[CosetLayout, ...]
    front_end: str = "none"
    reclaimed_bits: int = 0
    xor_words: Tuple[Tuple[int, ...], ...] = ()
    aux_codec: str = "bits"
    selection: str = "argmin"
    endurance_threshold: Optional[float] = None
    keep_stored: bool = False

    def __post_init__(self) -> None:
        # Canonical Python tuples and scalars, whatever arrays or numpy scalars came in.
        threshold = self.endurance_threshold
        canonical = {
            "candidates": tuple(tuple(int(s) for s in c) for c in self.candidates),
            "layouts": tuple(self.layouts),
            "reclaimed_bits": int(self.reclaimed_bits),
            "xor_words": tuple(tuple(int(w) for w in v) for v in self.xor_words),
            "endurance_threshold": None if threshold is None else float(threshold),
            "keep_stored": bool(self.keep_stored),
        }
        for field, value in canonical.items():
            object.__setattr__(self, field, value)
        k = len(self.candidates)
        _require(
            k > 0 and all(is_valid_mapping(np.asarray(c)) for c in self.candidates),
            "candidates must be bijections of the four symbols onto the four states",
        )
        _require(self.front_end in ("none", "wlc", "coc"), f"unknown front end {self.front_end!r}")
        _require(self.selection in ("argmin", "restricted"), f"unknown rule {self.selection!r}")
        _require(
            len(self.layouts) == 1 or (self.front_end == "coc" and self.layouts),
            "only the COC front end has several layouts",
        )
        modes = {layout.mode_symbol for layout in self.layouts}
        _require(len(modes) == len(self.layouts), "COC layouts need distinct mode symbols")
        _require(self.aux_codec in _CODEC_LIMITS, f"unknown aux codec {self.aux_codec!r}")
        limit = _CODEC_LIMITS[self.aux_codec]
        _require(
            limit is None or k <= limit,
            f"the {self.aux_codec} codec holds at most {limit} candidates",
        )
        _require(
            self.aux_codec == "bits" or self.front_end != "wlc",
            "reclaimed word bits hold a binary aux codec",
        )
        if self.selection == "restricted":
            _require(
                k == 3 and self.aux_codec == "bits",
                "restricted selection needs three candidates and binary aux",
            )
        if threshold is not None:
            _require(self.selection == "restricted", "endurance_threshold needs restriction")
            _require(
                math.isfinite(threshold) and threshold >= 0,
                "endurance_threshold must be finite and non-negative",
            )
        if self.xor_words:
            _require(
                len(self.xor_words) == k
                and all(len(v) == WORDS_PER_LINE for v in self.xor_words),
                "xor_words needs one 8-word vector per candidate",
            )
            _require(self.front_end == "none", "symbol XOR needs whole-line rows")
        for layout in self.layouts:
            _geometry(self, layout)

    @property
    def granularity_bits(self) -> int:
        """Block size of the first (for COC: the tighter) layout."""
        return self.layouts[0].granularity_bits

    @property
    def index_bits(self) -> int:
        """Bits of a binary candidate index."""
        return max(1, (len(self.candidates) - 1).bit_length())


class _Geometry(NamedTuple):
    """Cell geometry of one layout, derived from the spec."""

    cells: int  # payload cells that are coset-encoded
    row_cells: int  # cells per row: the whole payload, or one 32-cell word
    block_cells: int
    active_cells: int  # cells of each row that carry coset-encoded data
    aux_bits: int  # aux bits per row (binary codec)
    aux_cells: int  # aux cells per row
    aux_lead: int  # data bits sharing the first aux cell of a WLC word
    family_bit: int  # restricted: position of the family bit in a row's aux
    selector_bits: np.ndarray  # restricted: positions of the stored selector bits
    aux_mask: np.ndarray  # aux cells of an encoded line, up to the flag cell
    mode_symbol: Optional[int]

    @property
    def rows(self) -> int:
        return self.cells // self.row_cells

    @property
    def blocks(self) -> int:
        return self.row_cells // self.block_cells


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _geometry(spec: CosetSpec, layout: CosetLayout) -> _Geometry:
    granularity, wlc = layout.granularity_bits, spec.front_end == "wlc"
    payload = layout.payload_bits
    _require(0 < payload <= BITS_PER_LINE and payload % 2 == 0, "payload_bits must fit the line")
    if spec.front_end == "coc":
        _require(layout.mode_symbol in range(4), "a COC layout needs a mode symbol 0..3")
    else:
        _require(
            layout.mode_symbol is None and payload == BITS_PER_LINE,
            "only COC layouts carry a mode symbol and a short payload",
        )
    if wlc:
        _require(granularity in WLC_GRANULARITIES, "WLC encodings support 8/16/32/64-bit blocks")
        _require(1 <= spec.reclaimed_bits <= 32, "reclaimed_bits must be between 1 and 32")
        row_cells = SYMBOLS_PER_WORD
    else:
        _require(
            granularity > 0 and granularity % 2 == 0 and payload % granularity == 0,
            "granularity_bits must evenly divide the payload",
        )
        row_cells = payload // 2
    block_cells = granularity // 2
    blocks = row_cells // block_cells
    if spec.selection == "argmin":
        aux_bits = blocks * spec.index_bits
    else:
        aux_bits = spec.reclaimed_bits if wlc else 1 + blocks
    family_bit, lead, active = 0, 0, row_cells
    if wlc:
        # The aux is the top ``reclaimed_bits`` of each word, so the family bit
        # lands on b63; an odd count shares the lowest aux cell with the word's
        # top data bit.
        aux_cells = (spec.reclaimed_bits + 1) // 2
        lead, active = 2 * aux_cells - spec.reclaimed_bits, row_cells - aux_cells
        family_bit = aux_bits - 1
        needed = aux_bits if spec.selection == "argmin" else -(-active // block_cells) + 1
        _require(needed <= spec.reclaimed_bits, "the aux bits do not fit the reclaimed bits")
        aux_mask = np.tile(np.arange(row_cells) >= active, WORDS_PER_LINE)
    else:
        if spec.aux_codec == "bits":
            aux_cells = (aux_bits + 1) // 2
        else:
            aux_cells = blocks * (1 if spec.aux_codec == "cell" else 2)
        appended = spec.front_end == "none"
        _require(
            appended or row_cells + aux_cells <= MODE_CELL, "COC aux must end before the mode cell"
        )
        width = SYMBOLS_PER_LINE + aux_cells if appended else SYMBOLS_PER_LINE
        aux_mask = np.arange(width) >= row_cells
    selectors = [bit for bit in range(aux_bits) if bit != family_bit][:blocks]
    return _Geometry(
        SYMBOLS_PER_LINE if wlc else row_cells, row_cells, block_cells, active, aux_bits,
        aux_cells, lead, family_bit, np.array(selectors, dtype=np.intp), aux_mask,
        layout.mode_symbol,
    )


class CosetEncoder(WriteEncoder):
    """Runs any :class:`CosetSpec`: the one encode and decode path of every coset scheme."""

    # Front end, selection and aux are all decided per line, so tiled
    # fused-metrics evaluation is bit-identical to a batch encode.
    supports_fused_metrics = True

    def __init__(self, spec: CosetSpec, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL):
        super().__init__(energy_model)
        self.spec = spec
        self.name = spec.name
        self.candidates = np.array(spec.candidates, dtype=np.uint8)
        self.inverse_candidates = np.argsort(self.candidates, axis=1).astype(np.uint8)
        self.symbol_xor = None
        if spec.xor_words:
            self.symbol_xor = words_to_symbols(np.array(spec.xor_words, dtype=np.uint64))
        self.geometries = tuple(_geometry(spec, layout) for layout in spec.layouts)
        self.compressor = None
        if spec.front_end == "wlc":
            self.compressor = WLCCompressor(k=spec.reclaimed_bits + 1)
        elif spec.front_end == "coc":
            self.compressor = COCCompressor()
        #: ``(k, cells)`` aux states of each candidate index, and its inverse
        #: lookup (unused states read as candidate 0); ``None`` for binary aux.
        self.aux_table = self.aux_lookup = None
        if spec.aux_codec != "bits":
            self.aux_table = _cell_table(spec.aux_codec, len(spec.candidates), energy_model)
            self.aux_lookup = np.zeros((4,) * self.aux_table.shape[1], dtype=np.uint8)
            self.aux_lookup[tuple(self.aux_table.T)] = np.arange(len(spec.candidates))

    @property
    def aux_cells(self) -> int:
        """Appended aux cells, or the one flag cell of a compressing front end."""
        return self.geometries[0].aux_cells if self.spec.front_end == "none" else 1

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def _encode_against_states(self, lines, stored_states):
        n = len(lines)
        symbols = lines.symbols()
        layout, payload = self._front_end(lines, symbols)
        states = np.empty((n, self.total_cells), dtype=np.uint8)
        aux_mask = np.zeros((n, self.total_cells), dtype=bool)
        if self.spec.front_end != "none":
            states[:, :SYMBOLS_PER_LINE] = DEFAULT_MAPPING[symbols]
            flag = np.where(layout >= 0, FLAG_COMPRESSED_STATE, FLAG_RAW_STATE)
            states[:, SYMBOLS_PER_LINE] = flag
            aux_mask[:, SYMBOLS_PER_LINE] = True
        for index, geometry in enumerate(self.geometries):
            rows = np.flatnonzero(layout == index)
            if rows.size == 0:
                continue
            if rows.size == n:
                rows = slice(None)
            width = geometry.aux_mask.size
            states[rows, :width] = self._encode_rows(geometry, payload[rows], stored_states[rows])
            aux_mask[rows, :width] = geometry.aux_mask
        encoded = layout >= 0
        return states, aux_mask, encoded & (self.spec.front_end != "none"), encoded

    def _front_end(self, lines: LineBatch, symbols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Layout index of every line (``-1``: written raw) and the payload symbols."""
        n = len(lines)
        if self.spec.front_end == "none":
            return np.zeros(n, dtype=np.int8), symbols
        if self.spec.front_end == "wlc":
            compressible = self.compressor.line_compressible(lines)
            return np.where(compressible, 0, -1).astype(np.int8), symbols
        member_sizes = self.compressor.member_sizes(lines)
        sizes = self.compressor.sizes_from_members(member_sizes)
        layout = np.full(n, -1, dtype=np.int8)
        for index in reversed(range(len(self.spec.layouts))):
            layout[sizes <= self.spec.layouts[index].payload_bits] = index
        payload = np.zeros((n, SYMBOLS_PER_LINE), dtype=np.uint8)
        rows = np.flatnonzero(layout >= 0)
        if rows.size:
            # The bank sizes computed above go along, so no line is re-sized.
            packed = self.compressor.compress_batch(
                LineBatch(lines.words[rows]), member_sizes=member_sizes[:, rows]
            )
            bits = np.zeros((rows.size, BITS_PER_LINE), dtype=np.uint8)
            width = min(packed.bits.shape[1], BITS_PER_LINE)
            bits[:, :width] = packed.bits[:, :width]
            payload[rows] = bits_to_symbols(bits)
        return layout, payload

    def _encode_rows(self, geometry: _Geometry, payload, stored) -> np.ndarray:
        """Data, aux and mode cells of lines encoded in one layout."""
        g, m, cells = geometry, len(payload), geometry.cells
        shape = (len(self.candidates), m, g.rows, g.blocks)
        codes = transition_codes(payload[:, :cells], stored[:, :cells]).reshape(-1, g.row_cells)
        costs = block_energy_costs(
            self.candidates, codes, self.energy_model, g.block_cells,
            active_cells=g.active_cells, symbol_xor=self.symbol_xor,
        ).reshape(shape)
        flips = None
        if self.spec.endurance_threshold is not None:
            flips = block_flip_costs(
                self.candidates, codes, g.block_cells, active_cells=g.active_cells
            ).reshape(shape)
        stored_fields = self._read_aux(g, stored) if self.spec.keep_stored else None
        family, block = self._select(costs, flips, stored_fields)
        states = np.zeros((m, g.aux_mask.size), dtype=np.uint8)
        states[:, :cells] = select_states_per_block(
            self.candidates, payload[:, :cells], _choice(family, block).reshape(m, -1),
            g.block_cells, symbol_xor=self.symbol_xor,
        )
        self._write_aux(g, states, family, block, payload)
        if g.mode_symbol is not None:
            states[:, MODE_CELL] = DEFAULT_MAPPING[g.mode_symbol]
        return states

    def _select(self, costs, flips, stored):
        """``(family, per-block field)`` under the spec's selection rule.

        ``costs`` is ``(k, m, rows, blocks)``; ``stored`` is what the stored
        aux records (``None`` when ties take the lowest index).  ``family`` is
        ``None`` under argmin, where the per-block field is the candidate.
        """
        if self.spec.selection == "argmin":
            best = costs.argmin(axis=0).astype(np.uint8)
            if stored is None:
                return None, best
            kept = stored[1]
            kept_cost = np.take_along_axis(costs, kept[None].astype(np.intp), axis=0)[0]
            return None, np.where(kept_cost <= costs.min(axis=0), kept, best).astype(np.uint8)
        stored_family, stored_selector = stored if stored is not None else (np.uint8(0), None)
        # Family 0 is {C1, C2} and family 1 is {C1, C3} (RESTRICTED_FAMILIES).
        cost_a = np.minimum(costs[0], costs[1]).sum(axis=-1)
        cost_b = np.minimum(costs[0], costs[2]).sum(axis=-1)
        family = np.where(
            cost_a < cost_b, np.uint8(0), np.where(cost_b < cost_a, np.uint8(1), stored_family)
        ).astype(np.uint8)
        if flips is not None:
            family = self._endurance_family(family, cost_a, cost_b, costs, flips)
        alternative = np.where(family[..., None] == 0, costs[1], costs[2])
        selector = (alternative < costs[0]).astype(np.uint8)
        if stored is not None:
            keep = (alternative == costs[0]) & (family == stored_family)[..., None]
            selector = np.where(keep, stored_selector, selector).astype(np.uint8)
        return family, selector

    def _endurance_family(self, family, cost_a, cost_b, costs, flips):
        """Re-pick the family by rewritten cells where the energies are within T.

        Ties on the rewritten-cell count keep the energy-based choice.
        """
        flips_a = np.where(costs[1] < costs[0], flips[1], flips[0]).sum(axis=-1)
        flips_b = np.where(costs[2] < costs[0], flips[2], flips[0]).sum(axis=-1)
        scale = np.maximum(np.maximum(cost_a, cost_b), 1e-12)
        close = np.abs(cost_a - cost_b) <= self.spec.endurance_threshold * scale
        by_flips = np.where(
            flips_b < flips_a, np.uint8(1), np.where(flips_a < flips_b, np.uint8(0), family)
        )
        return np.where(close, by_flips, family).astype(np.uint8)

    # ------------------------------------------------------------------ #
    # Auxiliary cells
    # ------------------------------------------------------------------ #
    def _aux_region(self, g: _Geometry, states: np.ndarray) -> np.ndarray:
        """``(m, rows, aux_cells)`` view of the aux cells of every row."""
        if self.spec.front_end == "wlc":
            words = states[:, :SYMBOLS_PER_LINE].reshape(-1, WORDS_PER_LINE, SYMBOLS_PER_WORD)
            return words[..., g.active_cells:]
        return states[:, None, g.cells:g.cells + g.aux_cells]

    def _write_aux(self, g, states, family, block, payload) -> None:
        region = self._aux_region(g, states)
        if self.aux_table is not None:
            region[...] = self.aux_table[block].reshape(region.shape)
            return
        bits = np.zeros(region.shape[:-1] + (2 * g.aux_cells,), dtype=np.uint8)
        if g.aux_lead:
            # The first aux cell of a WLC word also holds the word's top data bit.
            bits[..., 0] = self._aux_region(g, payload)[..., 0] & 1
        if family is None:
            fields = (block[..., None] >> np.arange(self.spec.index_bits, dtype=np.uint8)) & 1
            bits[..., g.aux_lead:g.aux_lead + g.aux_bits] = fields.reshape(block.shape[:-1] + (-1,))
        else:
            bits[..., g.aux_lead + g.family_bit] = family
            bits[..., g.aux_lead + g.selector_bits] = block[..., : g.selector_bits.size]
        region[...] = pack_bits_to_states(bits.reshape(-1, bits.shape[-1])).reshape(region.shape)

    def _read_aux(self, g: _Geometry, states: np.ndarray):
        """``(family, per-block field)`` the aux cells of ``states`` record."""
        region = self._aux_region(g, states)
        if self.aux_table is not None:
            cells = region.reshape(region.shape[:-1] + (g.blocks, -1))
            return None, self.aux_lookup[tuple(np.moveaxis(cells, -1, 0))]
        bits = unpack_states_to_bits(region.reshape(-1, g.aux_cells), 2 * g.aux_cells)
        bits = bits.reshape(region.shape[:-1] + (-1,))[..., g.aux_lead:g.aux_lead + g.aux_bits]
        if self.spec.selection == "argmin":
            shifts = np.arange(self.spec.index_bits, dtype=np.uint8)
            index = (bits.reshape(bits.shape[:-1] + (g.blocks, -1)) << shifts).sum(axis=-1)
            return None, np.minimum(index, len(self.candidates) - 1).astype(np.uint8)
        selector = np.zeros(bits.shape[:-1] + (g.blocks,), dtype=np.uint8)
        selector[..., : g.selector_bits.size] = bits[..., g.selector_bits]
        return bits[..., g.family_bit], selector

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_states(self, states: np.ndarray) -> LineBatch:
        states = np.asarray(states, dtype=np.uint8)
        raw_symbols = _INVERSE_DEFAULT[states[:, :SYMBOLS_PER_LINE]]
        words = symbols_to_words(raw_symbols)
        layout = self._stored_layouts(states)
        for index, geometry in enumerate(self.geometries):
            rows = np.flatnonzero(layout == index)
            if rows.size:
                words[rows] = self._decode_rows(geometry, states[rows], raw_symbols[rows])
        return LineBatch(words)

    def _stored_layouts(self, states: np.ndarray) -> np.ndarray:
        """Layout index each stored line records (``-1``: written raw)."""
        n = states.shape[0]
        if self.spec.front_end == "none":
            return np.zeros(n, dtype=np.int8)
        layout = np.full(n, -1, dtype=np.int8)
        compressed = states[:, SYMBOLS_PER_LINE] == FLAG_COMPRESSED_STATE
        mode = _INVERSE_DEFAULT[states[:, MODE_CELL]]
        for index, spec_layout in enumerate(self.spec.layouts):
            if spec_layout.mode_symbol is not None:
                layout[compressed & (mode == spec_layout.mode_symbol)] = index
            else:
                layout[compressed] = index
        return layout

    def _decode_rows(self, g: _Geometry, states, raw_symbols) -> np.ndarray:
        m = states.shape[0]
        choice = _choice(*self._read_aux(g, states)).reshape(m, -1)
        symbols = select_states_per_block(
            self.inverse_candidates, states[:, :g.cells], choice, g.block_cells
        )
        if self.symbol_xor is not None:
            per_cell = np.repeat(choice, g.block_cells, axis=1)
            symbols ^= self.symbol_xor[per_cell, np.arange(g.cells)]
        if self.spec.front_end == "wlc":
            # The aux region, with any data bit sharing its first cell, was
            # written under the default mapping.
            aux = np.s_[..., g.active_cells:]
            shape = (m, WORDS_PER_LINE, SYMBOLS_PER_WORD)
            symbols.reshape(shape)[aux] = raw_symbols.reshape(shape)[aux]
            return self.compressor.sign_extend(symbols_to_words(symbols))
        if self.spec.front_end == "coc":
            full = np.zeros((m, SYMBOLS_PER_LINE), dtype=np.uint8)
            full[:, :g.cells] = symbols
            lengths = np.full(m, BITS_PER_LINE, dtype=np.int64)
            return self.compressor.decompress_batch(
                PackedBits(symbols_to_bits(full), lengths, self.compressor.name)
            )
        return symbols_to_words(symbols)


def _choice(family: Optional[np.ndarray], block: np.ndarray) -> np.ndarray:
    """Candidate index of every block from the selection fields."""
    return block if family is None else RESTRICTED_FAMILIES[family[..., None], block]


def _cell_table(codec: str, count: int, energy_model: EnergyModel) -> np.ndarray:
    """Aux states of each candidate index under a cell codec.

    ``"cell"`` stores candidate ``Ci`` as state ``Si``, keeping the frequent
    C1/C2 in the low-energy states; ``"pair"`` uses the ``count`` two-cell
    combinations of lowest total write energy (the 6cosets codec).
    """
    if codec == "cell":
        return np.arange(count, dtype=np.uint8)[:, None]
    weights = energy_model.write_energy_per_state
    combos = sorted(product(range(4), repeat=2), key=lambda p: (weights[p[0]] + weights[p[1]], p))
    return np.array(combos[:count], dtype=np.uint8)
