"""Independent oracles for transition-table costing and coset selection.

The encoders price candidates through 16-entry transition tables and never
build a candidate's cell states.  Two references that the production path no
longer contains keep them honest:

* the *materialising* formula -- every candidate's states built in full and
  priced cell by cell as ``weights[state] * (state != stored)`` -- which
  :func:`block_energy_costs` / :func:`block_flip_costs` must match bit for
  bit, for any energy model;
* *brute-force selection* -- every candidate of every block is priced from
  the scheme's own definition (mapping tables, complemented symbols, XORed
  words) and the choice an encoder records in its auxiliary cells must be a
  minimum, under the lowest-index tie-break where the scheme documents one.

Brute-force costs use the default energy model, whose per-state energies
are integers, so every sum is exact in any order and minima compare exactly.
"""

import numpy as np
import pytest

from repro.coding import make_scheme
from repro.coding.base import (
    block_energy_costs,
    block_flip_costs,
    transition_codes,
    unpack_states_to_bits,
)
from repro.coding.fnw import FNW_MAPPINGS
from repro.coding.restricted import FAMILY_CANDIDATES
from repro.core.cosets import (
    DEFAULT_MAPPING,
    FOUR_COSETS,
    SIX_COSETS,
    THREE_COSETS,
    flipmin_coset_vectors,
)
from repro.core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.core.line import LineBatch
from repro.core.symbols import (
    SYMBOLS_PER_LINE,
    SYMBOLS_PER_WORD,
    WORDS_PER_LINE,
    complement_symbols,
    words_to_symbols,
)

LINES = 24
GRANULARITIES = (8, 16, 32, 64, 512)
WLC_GRANULARITIES = (8, 16, 32, 64)
FRACTIONAL_MODEL = EnergyModel(set_energy_pj=(0.0, 20.3, 306.7, 547.1))


# ---------------------------------------------------------------------- #
# The materialising reference formula
# ---------------------------------------------------------------------- #
def materialised_energy(candidate_states, stored, model, block_cells, active):
    """Per-block energy of materialised ``(k, n, cells)`` candidate states."""
    weights = model.write_energy_per_state
    k, n, cells = candidate_states.shape
    costs = np.empty((k, n, cells // block_cells), dtype=np.float64)
    for index in range(k):
        candidate = candidate_states[index]
        per_cell = weights[candidate] * (candidate != stored)
        per_cell[:, active:] = 0.0
        costs[index] = per_cell.reshape(n, cells // block_cells, block_cells).sum(axis=-1)
    return costs


def materialised_flips(candidate_states, stored, block_cells, active):
    """Per-block rewritten-cell count of materialised candidate states."""
    k, n, cells = candidate_states.shape
    changed = candidate_states != stored[None]
    changed[..., active:] = False
    return changed.reshape(k, n, cells // block_cells, block_cells).sum(axis=-1)


def brute_costs(candidate_states, stored, block_cells, active=None):
    """Exact per-block energy of every candidate under the default model."""
    active = candidate_states.shape[-1] if active is None else active
    return materialised_energy(candidate_states, stored, DEFAULT_ENERGY_MODEL, block_cells, active)


@pytest.fixture(scope="module", params=["random", "biased"])
def workload(request, random_trace_small, gcc_trace):
    """``(lines, previous lines)``: the data written and what it overwrites."""
    trace = random_trace_small if request.param == "random" else gcc_trace
    return trace.new[:LINES], trace.old[:LINES]


def _stored_states(encoder, previous):
    """States left in the cells by writing ``previous`` onto fresh cells."""
    return encoder.encode_reference(previous)


def _assert_roundtrip(encoder, states, lines):
    assert encoder.decode_states(states) == lines


def _assert_lowest_index_minimum(costs, choice):
    """``choice`` (n, blocks) is the first minimum of ``costs`` (k, n, blocks)."""
    assert np.array_equal(choice, costs.argmin(axis=0))


def _assert_minimum(costs, choice):
    chosen = np.take_along_axis(costs, choice[None].astype(np.intp), axis=0)[0]
    assert np.array_equal(chosen, costs.min(axis=0))


# ---------------------------------------------------------------------- #
# Transition tables == the materialising formula, bit for bit
# ---------------------------------------------------------------------- #
class TestTransitionTablesMatchMaterialising:
    @pytest.mark.parametrize("model", [DEFAULT_ENERGY_MODEL, FRACTIONAL_MODEL])
    @pytest.mark.parametrize("mappings", [SIX_COSETS, FOUR_COSETS, THREE_COSETS, FNW_MAPPINGS])
    @pytest.mark.parametrize(
        "block_cells,active", [(4, 256), (8, 253), (16, 200), (128, 129), (256, 256)]
    )
    def test_line_rows(self, workload, model, mappings, block_cells, active):
        lines, previous = workload
        symbols = lines.symbols()
        stored = DEFAULT_MAPPING[previous.symbols()]
        codes = transition_codes(symbols, stored)
        candidate_states = mappings[:, symbols]
        expected = materialised_energy(candidate_states, stored, model, block_cells, active)
        got = block_energy_costs(mappings, codes, model, block_cells, active_cells=active)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        flips = block_flip_costs(mappings, codes, block_cells, active_cells=active)
        assert np.array_equal(
            flips, materialised_flips(candidate_states, stored, block_cells, active)
        )

    @pytest.mark.parametrize("model", [DEFAULT_ENERGY_MODEL, FRACTIONAL_MODEL])
    @pytest.mark.parametrize("block_cells,active", [(4, 28), (8, 29), (16, 30), (32, 31)])
    def test_word_rows(self, workload, model, block_cells, active):
        """WLC's layout: every word is a 32-cell row with an inactive top."""
        lines, previous = workload
        rows = len(lines) * WORDS_PER_LINE
        symbols = lines.symbols().reshape(rows, SYMBOLS_PER_WORD)
        stored = DEFAULT_MAPPING[previous.symbols()].reshape(rows, SYMBOLS_PER_WORD)
        codes = transition_codes(symbols, stored)
        candidate_states = FOUR_COSETS[:, symbols]
        assert np.array_equal(
            block_energy_costs(FOUR_COSETS, codes, model, block_cells, active_cells=active),
            materialised_energy(candidate_states, stored, model, block_cells, active),
        )
        assert np.array_equal(
            block_flip_costs(FOUR_COSETS, codes, block_cells, active_cells=active),
            materialised_flips(candidate_states, stored, block_cells, active),
        )

    @pytest.mark.parametrize("model", [DEFAULT_ENERGY_MODEL, FRACTIONAL_MODEL])
    def test_symbol_xor_matches_xored_words(self, workload, model):
        """FlipMin's symbol XOR prices exactly the states of the XORed words."""
        lines, previous = workload
        vectors = flipmin_coset_vectors(16)
        stored = DEFAULT_MAPPING[previous.symbols()]
        candidate_states = np.stack(
            [DEFAULT_MAPPING[words_to_symbols(lines.words ^ vector)] for vector in vectors]
        )
        mappings = np.repeat(DEFAULT_MAPPING[None], len(vectors), axis=0)
        got = block_energy_costs(
            mappings,
            transition_codes(lines.symbols(), stored),
            model,
            SYMBOLS_PER_LINE,
            symbol_xor=words_to_symbols(vectors),
        )
        expected = materialised_energy(
            candidate_states, stored, model, SYMBOLS_PER_LINE, SYMBOLS_PER_LINE
        )
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------- #
# Brute-force selection over every LUT-costed registry scheme
# ---------------------------------------------------------------------- #
class TestBruteForceSelection:
    @pytest.mark.parametrize("family", ["6cosets", "4cosets", "3cosets"])
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_unrestricted_cosets(self, workload, family, granularity):
        lines, previous = workload
        encoder = make_scheme(f"{family}-{granularity}")
        stored = _stored_states(encoder, previous)
        states = encoder.encode_against_stored(lines, stored).states
        choice = encoder.aux_codec.decode(states[:, SYMBOLS_PER_LINE:], encoder.num_blocks)
        costs = brute_costs(
            encoder.candidates[:, lines.symbols()],
            stored[:, :SYMBOLS_PER_LINE],
            encoder.block_cells,
        )
        _assert_lowest_index_minimum(costs, choice)
        _assert_roundtrip(encoder, states, lines)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_fnw(self, workload, granularity):
        lines, previous = workload
        encoder = make_scheme(f"fnw-{granularity}")
        stored = _stored_states(encoder, previous)
        states = encoder.encode_against_stored(lines, stored).states
        choice = unpack_states_to_bits(states[:, SYMBOLS_PER_LINE:], encoder.num_blocks)
        symbols = lines.symbols()
        candidates = np.stack(
            [DEFAULT_MAPPING[symbols], DEFAULT_MAPPING[complement_symbols(symbols)]]
        )
        costs = brute_costs(candidates, stored[:, :SYMBOLS_PER_LINE], encoder.block_cells)
        _assert_lowest_index_minimum(costs, choice)
        _assert_roundtrip(encoder, states, lines)

    def test_flipmin(self, workload):
        lines, previous = workload
        encoder = make_scheme("flipmin")
        stored = _stored_states(encoder, previous)
        states = encoder.encode_against_stored(lines, stored).states
        bits = unpack_states_to_bits(states[:, SYMBOLS_PER_LINE:], encoder.index_bits)
        choice = (bits.astype(np.int64) << np.arange(encoder.index_bits)).sum(axis=1)
        candidates = np.stack(
            [DEFAULT_MAPPING[words_to_symbols(lines.words ^ v)] for v in encoder.vectors]
        )
        costs = brute_costs(candidates, stored[:, :SYMBOLS_PER_LINE], SYMBOLS_PER_LINE)
        _assert_lowest_index_minimum(costs, choice[:, None])
        _assert_roundtrip(encoder, states, lines)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_line_restricted_cosets(self, workload, granularity):
        """3-r-cosets: the cheaper family, then C1 unless the alternative is cheaper."""
        lines, previous = workload
        encoder = make_scheme(f"3-r-cosets-{granularity}")
        stored = _stored_states(encoder, previous)
        states = encoder.encode_against_stored(lines, stored).states
        bits = unpack_states_to_bits(states[:, SYMBOLS_PER_LINE:], encoder.aux_bits)
        family, selector = bits[:, 0], bits[:, 1:]
        costs = brute_costs(
            THREE_COSETS[:, lines.symbols()],
            stored[:, :SYMBOLS_PER_LINE],
            encoder.block_cells,
        )
        family_costs = np.stack(
            [np.minimum(costs[0], costs[f + 1]).sum(axis=-1) for f in (0, 1)]
        )
        assert np.array_equal(family, family_costs.argmin(axis=0))
        alternative = np.where(family[:, None] == 0, costs[1], costs[2])
        assert np.array_equal(selector, (alternative < costs[0]).astype(np.uint8))
        choice = FAMILY_CANDIDATES[family[:, None], selector]
        chosen = np.take_along_axis(costs, choice[None].astype(np.intp), axis=0)[0]
        assert np.array_equal(chosen, np.minimum(costs[0], alternative))
        _assert_roundtrip(encoder, states, lines)

    def test_coc_four_cosets(self, workload):
        lines, previous = workload
        encoder = make_scheme("coc+4cosets")
        stored = _stored_states(encoder, previous)
        states = encoder.encode_against_stored(lines, stored).states
        member_sizes = encoder.compressor.member_sizes(lines)
        sizes = encoder.compressor.sizes_from_members(member_sizes)
        checked = 0
        for index in range(len(lines)):
            layout = encoder._layout_for_size(int(sizes[index]))
            if layout is None:
                continue
            payload = encoder._packed_symbols(lines[index:index + 1], member_sizes[:, [index]])
            payload = payload[:, : layout.data_cells]
            aux = states[index:index + 1, layout.data_cells:layout.data_cells + layout.aux_cells]
            bits = unpack_states_to_bits(aux, layout.aux_bits)
            choice = bits[:, 0::2] | (bits[:, 1::2] << 1)
            costs = brute_costs(
                FOUR_COSETS[:, payload], stored[index:index + 1, : layout.data_cells],
                layout.block_cells,
            )
            _assert_lowest_index_minimum(costs, choice)
            checked += 1
        _assert_roundtrip(encoder, states, lines)
        if checked == 0:
            pytest.skip("no COC-compressible line in this workload")


def _wlc_compressible(encoder, lines):
    """``lines`` with each word's top ``k`` bits forced to one value (WLC-compressible)."""
    k = encoder.wlc.k
    low = np.uint64((1 << (64 - k)) - 1)
    negative = (lines.words >> np.uint64(63)).astype(bool)
    words = np.where(negative, lines.words | ~low, lines.words & low)
    return LineBatch(words)


def _wlc_word_costs(encoder, lines, stored):
    """``(k, n, 8, blocks)`` brute-force costs over each word's data region."""
    n = len(lines)
    rows = n * WORDS_PER_LINE
    symbols = lines.symbols().reshape(rows, SYMBOLS_PER_WORD)
    stored_rows = np.ascontiguousarray(stored[:, :SYMBOLS_PER_LINE]).reshape(
        rows, SYMBOLS_PER_WORD
    )
    costs = brute_costs(
        encoder.candidates[:, symbols],
        stored_rows,
        encoder.block_cells,
        active=encoder.data_region_cells,
    )
    return costs.reshape(len(encoder.candidates), n, WORDS_PER_LINE, -1)


def _wlc_aux_values(encoder, states):
    words = states[:, :SYMBOLS_PER_LINE].reshape(len(states), WORDS_PER_LINE, SYMBOLS_PER_WORD)
    return encoder._stored_aux_values(words)


class TestBruteForceWordLevelSelection:
    @pytest.mark.parametrize(
        "scheme",
        [f"wlc+{k}cosets-{g}" for k in (4, 3) for g in WLC_GRANULARITIES] + ["wlcrc-64"],
    )
    def test_unrestricted_word_cosets(self, workload, scheme):
        """Minimal per block; a non-first minimum only to keep the stored choice."""
        encoder = make_scheme(scheme)
        lines, previous = (_wlc_compressible(encoder, batch) for batch in workload)
        stored = _stored_states(encoder, previous)
        batch = encoder.encode_against_stored(lines, stored)
        assert batch.compressed.all()
        choice = encoder._choices_from_aux(_wlc_aux_values(encoder, batch.states))
        stored_choice = encoder._choices_from_aux(_wlc_aux_values(encoder, stored))
        costs = _wlc_word_costs(encoder, lines, stored)
        _assert_minimum(costs, choice)
        first = costs.argmin(axis=0)
        assert np.all((choice == first) | (choice == stored_choice))
        _assert_roundtrip(encoder, batch.states, lines)

    @pytest.mark.parametrize("granularity", (8, 16, 32))
    def test_wlcrc_families(self, workload, granularity):
        """Each word takes its cheaper family and the cheaper member per block."""
        encoder = make_scheme(f"wlcrc-{granularity}")
        lines, previous = (_wlc_compressible(encoder, batch) for batch in workload)
        stored = _stored_states(encoder, previous)
        batch = encoder.encode_against_stored(lines, stored)
        assert batch.compressed.all()
        family, _ = encoder._unpack_aux(_wlc_aux_values(encoder, batch.states))
        choice = encoder._choices_from_aux(_wlc_aux_values(encoder, batch.states))
        costs = _wlc_word_costs(encoder, lines, stored)
        family_costs = np.stack(
            [np.minimum(costs[0], costs[f + 1]).sum(axis=-1) for f in (0, 1)]
        )
        chosen_family = np.take_along_axis(family_costs, family[None].astype(np.intp), 0)[0]
        assert np.array_equal(chosen_family, family_costs.min(axis=0))
        within = np.take_along_axis(costs, choice[None].astype(np.intp), axis=0)[0]
        best_in_family = np.minimum(costs[0], np.where(family[..., None] == 0, costs[1], costs[2]))
        assert np.array_equal(within, best_in_family)
        _assert_roundtrip(encoder, batch.states, lines)
