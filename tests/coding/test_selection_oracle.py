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
  words), the choice an encoder records in its auxiliary cells is read back
  from the documented aux layout, and it must be a minimum: the first one
  where ties take the lowest index, the first or the stored one where ties
  keep the stored choice.  The check runs over :class:`CosetSpec` values --
  every registry scheme's spec plus seeded random specs -- not only names.

Brute-force costs use the default energy model, whose per-state energies
are integers, so every sum is exact in any order and minima compare exactly.
"""

import numpy as np
import pytest

from itertools import permutations, product

from repro.coding import CosetEncoder, CosetLayout, CosetSpec, coset_spec, make_scheme
from repro.coding.base import (
    block_energy_costs,
    block_flip_costs,
    transition_codes,
    unpack_states_to_bits,
)
from repro.core.cosets import (
    DEFAULT_MAPPING,
    FOUR_COSETS,
    RESTRICTED_FAMILIES,
    SIX_COSETS,
    THREE_COSETS,
    flipmin_coset_vectors,
    invert_mapping,
)
from repro.core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.core.line import LineBatch
from repro.core.symbols import (
    BITS_PER_LINE,
    SYMBOLS_PER_LINE,
    SYMBOLS_PER_WORD,
    WORDS_PER_LINE,
    complement_symbols,
    symbols_to_words,
    words_to_symbols,
)

LINES = 24
GRANULARITIES = (8, 16, 32, 64, 512)
WLC_GRANULARITIES = (8, 16, 32, 64)
FNW_MAPPINGS = np.stack([DEFAULT_MAPPING, DEFAULT_MAPPING[::-1]])
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
# Brute-force selection over coset specs
# ---------------------------------------------------------------------- #
def _wlc_compressible(encoder, lines):
    """``lines`` with each word's top ``k`` bits forced to one value (WLC-compressible)."""
    k = encoder.compressor.k
    low = np.uint64((1 << (64 - k)) - 1)
    negative = (lines.words >> np.uint64(63)).astype(bool)
    words = np.where(negative, lines.words | ~low, lines.words & low)
    return LineBatch(words)


def cheapest_pairs(count):
    """The 6cosets aux codec: the ``count`` cheapest two-cell state combinations."""
    weights = DEFAULT_ENERGY_MODEL.write_energy_per_state
    pairs = sorted(product(range(4), repeat=2), key=lambda p: (weights[p[0]] + weights[p[1]], p))
    return pairs[:count]


def recorded_fields(spec, states):
    """``(family, per-block field)`` read from the documented aux layout.

    Whole-line schemes append their aux after the 256 data cells; WLC schemes
    keep it in the top ``reclaimed_bits`` of every stored word.  Shapes are
    ``(n, rows)`` and ``(n, rows, blocks)``; ``family`` is ``None`` unless the
    selection is restricted.
    """
    n, k = len(states), len(spec.candidates)
    index_bits = max(1, (k - 1).bit_length())
    restricted = spec.selection == "restricted"
    if spec.front_end == "wlc":
        blocks = 64 // spec.granularity_bits
        words = symbols_to_words(invert_mapping(DEFAULT_MAPPING)[states[:, :SYMBOLS_PER_LINE]])
        aux = (words >> np.uint64(64 - spec.reclaimed_bits)).astype(np.int64)
        if restricted:
            stored = min(blocks, spec.reclaimed_bits - 1)
            family = (aux >> (spec.reclaimed_bits - 1)) & 1
            selector = np.stack(
                [(aux >> b) & 1 if b < stored else 0 * aux for b in range(blocks)], axis=-1
            )
            return family, selector
        field = np.stack(
            [(aux >> (index_bits * b)) & ((1 << index_bits) - 1) for b in range(blocks)], axis=-1
        )
        return None, np.minimum(field, k - 1)
    blocks = BITS_PER_LINE // spec.granularity_bits
    aux = states[:, SYMBOLS_PER_LINE:]
    if restricted:
        bits = unpack_states_to_bits(aux, 1 + blocks)
        return bits[:, None, 0], bits[:, None, 1:]
    if spec.aux_codec == "cell":
        return None, aux[:, None, :blocks]
    if spec.aux_codec == "pair":
        lookup = {pair: index for index, pair in enumerate(cheapest_pairs(k))}
        pairs = aux[:, : 2 * blocks].reshape(n, blocks, 2)
        field = [[lookup.get(tuple(pair), 0) for pair in row] for row in pairs.tolist()]
        return None, np.array(field)[:, None, :]
    bits = unpack_states_to_bits(aux, blocks * index_bits).reshape(n, blocks, index_bits)
    field = (bits.astype(np.int64) << np.arange(index_bits)).sum(axis=-1)
    return None, np.minimum(field, k - 1)[:, None, :]


def brute_spec_costs(spec, lines, stored):
    """``(k, n, rows, blocks)`` brute-force energies and rewritten-cell counts."""
    candidates = np.array(spec.candidates, dtype=np.uint8)
    n, block_cells = len(lines), spec.granularity_bits // 2
    if spec.front_end == "wlc":
        rows = n * WORDS_PER_LINE
        symbols = lines.symbols().reshape(rows, SYMBOLS_PER_WORD)
        stored_rows = np.ascontiguousarray(stored[:, :SYMBOLS_PER_LINE]).reshape(
            rows, SYMBOLS_PER_WORD
        )
        active = SYMBOLS_PER_WORD - (spec.reclaimed_bits + 1) // 2
        states = candidates[:, symbols]
        shape = (len(candidates), n, WORDS_PER_LINE, -1)
        return (
            brute_costs(states, stored_rows, block_cells, active=active).reshape(shape),
            materialised_flips(states, stored_rows, block_cells, active).reshape(shape),
        )
    words = [lines.words ^ np.array(v, dtype=np.uint64) for v in spec.xor_words] or [
        lines.words
    ] * len(candidates)
    states = np.stack([m[words_to_symbols(w)] for m, w in zip(candidates, words)])
    stored = stored[:, :SYMBOLS_PER_LINE]
    return (
        brute_costs(states, stored, block_cells)[:, :, None, :],
        materialised_flips(states, stored, block_cells, SYMBOLS_PER_LINE)[:, :, None, :],
    )


def check_spec(spec, lines, previous):
    """Encode ``lines`` over ``previous`` under ``spec`` and hold the choice to brute force."""
    encoder = CosetEncoder(spec)
    if spec.front_end == "wlc":
        lines, previous = _wlc_compressible(encoder, lines), _wlc_compressible(encoder, previous)
    stored = _stored_states(encoder, previous)
    batch = encoder.encode_against_stored(lines, stored)
    assert batch.encoded.all()
    costs, flips = brute_spec_costs(spec, lines, stored)
    family, field = recorded_fields(spec, batch.states)
    stored_family, stored_field = recorded_fields(spec, stored)
    if family is None:
        _assert_minimum(costs, field)
        expected = costs.argmin(axis=0)
        if spec.keep_stored:
            stored_cost = np.take_along_axis(costs, stored_field[None].astype(np.intp), 0)[0]
            expected = np.where(stored_cost == costs.min(axis=0), stored_field, expected)
        assert np.array_equal(field, expected)
    else:
        family_costs = np.stack(
            [np.minimum(costs[0], costs[f + 1]).sum(axis=-1) for f in (0, 1)]
        )
        cheapest = np.take_along_axis(family_costs, family[None].astype(np.intp), 0)[0] == (
            family_costs.min(axis=0)
        )
        if spec.endurance_threshold is None:
            assert cheapest.all()
        else:
            # Section VIII-D: a dearer family only within T, and never with more rewrites.
            family_flips = np.stack(
                [np.where(costs[f + 1] < costs[0], flips[f + 1], flips[0]).sum(-1) for f in (0, 1)]
            )
            scale = np.maximum(family_costs.max(axis=0), 1e-12)
            close = np.abs(family_costs[0] - family_costs[1]) <= spec.endurance_threshold * scale
            fewer = np.take_along_axis(family_flips, family[None].astype(np.intp), 0)[0] == (
                family_flips.min(axis=0)
            )
            assert np.all(cheapest | (close & fewer))
        alternative = np.where(family[..., None] == 0, costs[1], costs[2])
        choice = RESTRICTED_FAMILIES[family[..., None], field]
        within = np.take_along_axis(costs, choice[None].astype(np.intp), axis=0)[0]
        assert np.array_equal(within, np.minimum(costs[0], alternative))
        # Ties take the lowest index, or keep the stored family and selector.
        tie_family = stored_family if spec.keep_stored else 0
        if spec.endurance_threshold is None:
            expected = np.where(family_costs[0] == family_costs[1], tie_family, family_costs.argmin(0))
            assert np.array_equal(family, expected)
        keep = (alternative == costs[0]) & (family == tie_family)[..., None] & spec.keep_stored
        expected = np.where(keep, stored_field, alternative < costs[0])
        assert np.array_equal(field, expected)
    _assert_roundtrip(encoder, batch.states, lines)


#: Every registry coset scheme the brute-force check enumerates by spec.
REGISTRY_SCHEMES = (
    [f"{family}-{g}" for family in ("6cosets", "4cosets", "3cosets", "fnw", "3-r-cosets")
     for g in GRANULARITIES]
    + ["flipmin", "wlcrc-16-mo", "wlcrc-16-mo0.05"]
    + [f"{family}-{g}" for family in ("wlc+4cosets", "wlc+3cosets", "wlcrc")
       for g in WLC_GRANULARITIES]
)

#: The 24 bijections of the four symbols onto the four states.
BIJECTIONS = list(permutations(range(4)))


def random_spec(seed):
    """A seeded random valid spec: <= 4 of the 24 bijections, a random granularity,
    with or without the WLC front end, either selection rule where it applies."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    candidates = tuple(BIJECTIONS[i] for i in rng.choice(len(BIJECTIONS), size=k, replace=False))
    restricted = k == 3 and bool(rng.integers(2))
    keep_stored = bool(rng.integers(2))
    if rng.integers(2):
        granularity = int(rng.choice(WLC_GRANULARITIES))
        blocks = 64 // granularity
        index_bits = max(1, (k - 1).bit_length())
        reclaimed = blocks + 1 if restricted else blocks * index_bits
        return CosetSpec(
            f"random-wlc-{seed}", candidates, (CosetLayout(granularity),), front_end="wlc",
            reclaimed_bits=reclaimed, keep_stored=keep_stored,
            selection="restricted" if restricted else "argmin",
        )
    granularity = int(rng.choice([2 ** p for p in range(1, 10)]))
    codec = "bits" if restricted else str(rng.choice(["cell", "bits"]))
    return CosetSpec(
        f"random-{seed}", candidates, (CosetLayout(granularity),), aux_codec=codec,
        keep_stored=keep_stored, selection="restricted" if restricted else "argmin",
    )


class TestBruteForceSelection:
    @pytest.mark.parametrize("scheme", REGISTRY_SCHEMES)
    def test_registry_specs(self, workload, scheme):
        check_spec(coset_spec(scheme), *workload)

    @pytest.mark.parametrize("seed", range(16))
    def test_random_specs(self, workload, seed):
        check_spec(random_spec(seed), *workload)

    def test_random_specs_cover_every_rule(self):
        specs = [random_spec(seed) for seed in range(16)]
        assert {spec.front_end for spec in specs} == {"none", "wlc"}
        assert {spec.selection for spec in specs} == {"argmin", "restricted"}
        assert {spec.keep_stored for spec in specs} == {False, True}
        assert {spec.aux_codec for spec in specs} == {"cell", "bits"}

    def test_fnw_is_the_complement(self, workload):
        """FNW's second candidate is the default mapping of the complemented symbols."""
        lines, _ = workload
        encoder = make_scheme("fnw")
        symbols = lines.symbols()
        assert np.array_equal(encoder.candidates, FNW_MAPPINGS)
        assert np.array_equal(
            encoder.candidates[1][symbols], DEFAULT_MAPPING[complement_symbols(symbols)]
        )

    def test_flipmin_vectors(self):
        """FlipMin's XOR vectors are the fixed-seed coset vectors, vector 0 all-zero."""
        vectors = np.array(make_scheme("flipmin").spec.xor_words, dtype=np.uint64)
        assert np.array_equal(vectors, flipmin_coset_vectors(16))
        assert not vectors[0].any()

    def test_coc_four_cosets(self, workload):
        lines, previous = workload
        encoder = make_scheme("coc+4cosets")
        stored = _stored_states(encoder, previous)
        states = encoder.encode_against_stored(lines, stored).states
        checked = 0
        for index in range(len(lines)):
            line = lines[index:index + 1]
            layout, payload = encoder._front_end(line, line.symbols())
            if layout[0] < 0:
                continue
            geometry = encoder.geometries[layout[0]]
            payload = payload[:, : geometry.cells]
            aux = states[index:index + 1, geometry.cells:geometry.cells + geometry.aux_cells]
            bits = unpack_states_to_bits(aux, geometry.aux_bits)
            choice = bits[:, 0::2] | (bits[:, 1::2] << 1)
            costs = brute_costs(
                FOUR_COSETS[:, payload], stored[index:index + 1, : geometry.cells],
                geometry.block_cells,
            )
            _assert_lowest_index_minimum(costs, choice)
            checked += 1
        _assert_roundtrip(encoder, states, lines)
        if checked == 0:
            pytest.skip("no COC-compressible line in this workload")
