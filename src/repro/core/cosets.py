"""Coset candidates: symbol-to-state mappings for MLC PCM write encoding.

A *coset candidate* is a bijective mapping of the four 2-bit symbols onto the
four cell states.  Writing a data block under candidate ``C`` means programming
each cell to ``C[symbol]`` instead of the default mapping, which lets the
encoder steer frequently occurring symbols toward the low-energy states.

This module defines:

* the default mapping ``C1`` and the paper's hand-picked candidates ``C2``,
  ``C3`` and ``C4`` (Table I);
* the six candidates of the prior-work *6cosets* scheme [Wang et al., ICCD'11],
  which map every unordered pair of symbols onto the two low-energy states;
* the sixteen pseudo-random 512-bit coset vectors used by *FlipMin*
  [Jacobvitz et al., HPCA'13].

Mappings are represented as ``numpy`` arrays of length 4 where entry ``s`` is
the state assigned to symbol ``s``.  ``apply_mapping`` / ``invert_mapping``
convert between symbols and states in either direction.
"""

from __future__ import annotations

from itertools import combinations
from typing import List

import numpy as np

from .symbols import BITS_PER_LINE

#: Default mapping (Table I, candidate C1): 00->S1, 01->S4, 10->S2, 11->S3.
C1 = np.array([0, 3, 1, 2], dtype=np.uint8)
#: Table I candidate C2: 00->S2, 01->S4, 10->S3, 11->S1.
C2 = np.array([1, 3, 2, 0], dtype=np.uint8)
#: Table I candidate C3: 00->S3, 01->S2, 10->S4, 11->S1.
C3 = np.array([2, 1, 3, 0], dtype=np.uint8)
#: Table I candidate C4: 00->S2, 01->S3, 10->S4, 11->S1.
C4 = np.array([1, 2, 3, 0], dtype=np.uint8)

#: The four candidates of the proposed *4cosets* encoding (Table I order).
FOUR_COSETS = np.stack([C1, C2, C3, C4])
#: The first three candidates, used by *3cosets* and the restricted coset coding.
THREE_COSETS = np.stack([C1, C2, C3])
#: The default (identity) mapping alone; used by the differential-write baseline.
DEFAULT_MAPPING = C1

#: The two restricted coset groups of Section V: group 0 may pick C1 or C2 for
#: each data block, group 1 may pick C1 or C3.
RESTRICTED_GROUPS = (np.stack([C1, C2]), np.stack([C1, C3]))


def is_valid_mapping(mapping: np.ndarray) -> bool:
    """Return ``True`` when ``mapping`` is a bijection of symbols onto states."""
    arr = np.asarray(mapping)
    return arr.shape == (4,) and sorted(int(x) for x in arr) == [0, 1, 2, 3]


def apply_mapping(mapping: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Map symbol values to cell states under a coset candidate."""
    mapping = np.asarray(mapping, dtype=np.uint8)
    if not is_valid_mapping(mapping):
        raise ValueError(f"invalid coset mapping: {mapping!r}")
    return np.take(mapping, np.asarray(symbols, dtype=np.uint8))


def invert_mapping(mapping: np.ndarray) -> np.ndarray:
    """Return the inverse (state-to-symbol) mapping of a coset candidate."""
    mapping = np.asarray(mapping, dtype=np.uint8)
    if not is_valid_mapping(mapping):
        raise ValueError(f"invalid coset mapping: {mapping!r}")
    inverse = np.empty(4, dtype=np.uint8)
    inverse[mapping] = np.arange(4, dtype=np.uint8)
    return inverse


def states_to_symbols(mapping: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Recover the symbols that were encoded as ``states`` under ``mapping``."""
    return invert_mapping(mapping)[np.asarray(states, dtype=np.uint8)]


def six_cosets() -> np.ndarray:
    """Build the six candidates of the prior-work *6cosets* scheme.

    For every unordered pair ``{a, b}`` of symbols, one candidate maps ``a`` to
    the cheapest state S1 and ``b`` to S2, while the remaining two symbols are
    assigned (in ascending order) to S3 and S4.  The encoder evaluates all six
    candidates per block and keeps the cheapest, which realises the original
    scheme's goal of mapping the two most frequent symbols of a block to the
    two low-energy states.
    """
    candidates: List[np.ndarray] = []
    for a, b in combinations(range(4), 2):
        mapping = np.empty(4, dtype=np.uint8)
        mapping[a] = 0
        mapping[b] = 1
        rest = [s for s in range(4) if s not in (a, b)]
        mapping[rest[0]] = 2
        mapping[rest[1]] = 3
        candidates.append(mapping)
    return np.stack(candidates)


#: The six candidates of the prior-work *6cosets* scheme, in a fixed order.
SIX_COSETS = six_cosets()


def flipmin_coset_vectors(
    num_cosets: int = 16,
    line_bits: int = BITS_PER_LINE,
    seed: int = 0x5EED,
) -> np.ndarray:
    """Generate the FlipMin coset vectors as 512-bit binary masks.

    FlipMin XORs the data line with one of ``num_cosets`` binary vectors and
    stores the index of the vector that minimises the write cost.  The original
    work derives the vectors from the dual code of a (72, 64) Hamming
    generator matrix, which makes them essentially random binary vectors; here
    they are generated from a fixed-seed PRNG so results are reproducible.
    Vector 0 is the all-zero vector so that the scheme can always fall back to
    writing the data unchanged.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(num_cosets, line_bits // 64)`` and dtype ``uint64``.
    """
    if num_cosets < 1:
        raise ValueError("num_cosets must be positive")
    if line_bits % 64 != 0:
        raise ValueError("line_bits must be a multiple of 64")
    words = line_bits // 64
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2**64, size=(num_cosets, words), dtype=np.uint64)
    vectors[0] = 0
    return vectors


def candidate_names(count: int) -> List[str]:
    """Human-readable names ``C1..Cn`` for a family of coset candidates."""
    return [f"C{i + 1}" for i in range(count)]
