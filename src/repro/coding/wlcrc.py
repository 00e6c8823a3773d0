"""WLCRC: Word-Level Compression with Restricted Coset coding (the paper's proposal).

WLCRC integrates the WLC light compression (Section IV) with the restricted
coset coding (Section V) at word scope (Section VI).  For every compressible
512-bit line, each 64-bit word is encoded independently and in parallel:

* the word is split into data blocks of 8, 16, 32 or 64 bits;
* every block is trial-encoded with the candidates C1, C2 and C3 of Table I;
* the word picks the *family* -- ``{C1, C2}`` or ``{C1, C3}`` -- whose best
  per-block selection has the lower total energy (Algorithm 1), and stores the
  family bit plus one selector bit per block in the bits that WLC reclaimed at
  the top of the word.

The default configuration is **WLCRC-16** (16-bit blocks, five reclaimed bits
per word, WLC requiring six identical most-significant bits), the paper's
best-energy design point.  At 64-bit granularity the restriction degenerates
to the unrestricted 3cosets choice with a 2-bit candidate index, exactly as
noted in the paper.

The optional *multi-objective* mode (Section VIII-D) compares the two family
energies and, when they are within a threshold ``T`` of each other, picks the
family that rewrites fewer cells instead -- trading a negligible amount of
energy for better endurance.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..core.cosets import THREE_COSETS
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from .wlc_base import WLCWordEncoderBase

#: Candidate index used by each (family, selector-bit) combination:
#: family 0 selects between C1 and C2, family 1 between C1 and C3.
FAMILY_CANDIDATES = np.array([[0, 1], [0, 2]], dtype=np.uint8)

#: Reclaimed bits per 64-bit word for each supported granularity.  The 8-bit
#: configuration reclaims the whole top byte (the most significant block is
#: compressed away), matching Section IX-A of the paper.
RECLAIMED_BITS_BY_GRANULARITY: Dict[int, int] = {8: 8, 16: 5, 32: 3, 64: 2}


class WLCRCEncoder(WLCWordEncoderBase):
    """Word-Level Compression + Restricted Coset coding (WLCRC)."""

    def __init__(
        self,
        granularity_bits: int = 16,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
        endurance_threshold: Optional[float] = None,
    ):
        if granularity_bits not in RECLAIMED_BITS_BY_GRANULARITY:
            raise ConfigurationError("WLCRC supports 8/16/32/64-bit granularities")
        if endurance_threshold is not None and endurance_threshold < 0:
            raise ConfigurationError("endurance_threshold must be non-negative")
        name = f"wlcrc-{granularity_bits}"
        if endurance_threshold is not None:
            name = f"{name}-mo{endurance_threshold:g}"
        super().__init__(
            granularity_bits=granularity_bits,
            candidates=THREE_COSETS,
            reclaimed_bits=RECLAIMED_BITS_BY_GRANULARITY[granularity_bits],
            name=name,
            energy_model=energy_model,
        )
        self.endurance_threshold = endurance_threshold
        self.uses_flip_costs = endurance_threshold is not None
        #: Number of per-block selector bits stored in each word.
        self.selector_bits = min(self.blocks_per_word, self.reclaimed_bits - 1)

    # ------------------------------------------------------------------ #
    # Candidate selection (Algorithm 1)
    # ------------------------------------------------------------------ #
    def _select_candidates(
        self, block_costs: np.ndarray, block_flips: np.ndarray, stored_aux_values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self.granularity_bits == 64:
            # Degenerate case: unrestricted choice among C1, C2, C3 per word.
            stored_choice = np.minimum(stored_aux_values.astype(np.uint8), 2)[..., None]
            best = block_costs.argmin(axis=0).astype(np.uint8)  # (n, 8, 1)
            stored_cost = np.take_along_axis(
                np.moveaxis(block_costs, 0, -1), stored_choice[..., None].astype(np.intp), axis=-1
            )[..., 0]
            best_cost = block_costs.min(axis=0)
            choice = np.where(stored_cost <= best_cost, stored_choice, best)
            aux_values = choice[..., 0].astype(np.uint64)
            return choice, aux_values

        stored_family, stored_selector = self._unpack_aux(stored_aux_values)
        family_costs = np.stack(
            [
                np.minimum(block_costs[0], block_costs[1]).sum(axis=-1),
                np.minimum(block_costs[0], block_costs[2]).sum(axis=-1),
            ]
        )  # (2, n, 8)
        # Break exact ties in favour of the stored family so that rewriting
        # identical data leaves the auxiliary bits untouched.
        family = np.where(
            family_costs[0] < family_costs[1],
            np.uint8(0),
            np.where(family_costs[1] < family_costs[0], np.uint8(1), stored_family),
        ).astype(np.uint8)

        if self.endurance_threshold is not None:
            family = self._apply_endurance_objective(
                family, family_costs, block_costs, block_flips
            )

        alternative_cost = np.where(
            family[..., None] == 0, block_costs[1], block_costs[2]
        )  # (n, 8, blocks)
        selector = (alternative_cost < block_costs[0]).astype(np.uint8)
        # On per-block cost ties keep the stored selector when the family matches.
        tie = alternative_cost == block_costs[0]
        keep_stored = tie & (family == stored_family)[..., None]
        selector = np.where(keep_stored, stored_selector, selector).astype(np.uint8)
        choice = FAMILY_CANDIDATES[family[..., None], selector]
        aux_values = self._pack_aux(family, selector)
        return choice, aux_values

    def _apply_endurance_objective(
        self,
        family: np.ndarray,
        family_costs: np.ndarray,
        block_costs: np.ndarray,
        block_flips: np.ndarray,
    ) -> np.ndarray:
        """Re-pick the family by rewritten-cell count when energies are close.

        Ties on the rewritten-cell count fall back to the energy-based choice
        (which itself prefers the stored family on exact energy ties).
        """
        selector12 = (block_costs[1] < block_costs[0])
        selector13 = (block_costs[2] < block_costs[0])
        flips12 = np.where(selector12, block_flips[1], block_flips[0]).sum(axis=-1)
        flips13 = np.where(selector13, block_flips[2], block_flips[0]).sum(axis=-1)
        cost12, cost13 = family_costs[0], family_costs[1]
        scale = np.maximum(np.maximum(cost12, cost13), 1e-12)
        close = np.abs(cost12 - cost13) <= self.endurance_threshold * scale
        by_flips = np.where(
            flips13 < flips12, np.uint8(1), np.where(flips12 < flips13, np.uint8(0), family)
        ).astype(np.uint8)
        return np.where(close, by_flips, family).astype(np.uint8)

    # ------------------------------------------------------------------ #
    # Auxiliary-bit packing
    # ------------------------------------------------------------------ #
    def _pack_aux(self, family: np.ndarray, selector: np.ndarray) -> np.ndarray:
        """Pack the family bit and selector bits into the reclaimed-bit value.

        Bit ``r-1`` (which lands on the word's most significant bit, b63) is
        the family bit; bits ``r-2 .. 0`` are the per-block selectors, block 0
        in the lowest position.
        """
        aux = family.astype(np.uint64) << np.uint64(self.reclaimed_bits - 1)
        shifts = np.arange(self.selector_bits, dtype=np.uint64)
        packed = (
            (selector[..., : self.selector_bits].astype(np.uint64) << shifts)
            .sum(axis=-1, dtype=np.uint64)
        )
        return aux | packed

    def _unpack_aux(self, aux_values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split packed reclaimed-bit values into (family, per-block selectors)."""
        aux_values = np.asarray(aux_values, dtype=np.uint64)
        family = ((aux_values >> np.uint64(self.reclaimed_bits - 1)) & np.uint64(1)).astype(np.uint8)
        shifts = np.arange(self.blocks_per_word, dtype=np.uint64)
        selectors = ((aux_values[..., None] >> shifts) & np.uint64(1)).astype(np.uint8)
        # Blocks past the stored selector width read as zero, as before.
        selectors[..., self.selector_bits:] = 0
        return family, selectors

    def _choices_from_aux(self, aux_values: np.ndarray) -> np.ndarray:
        aux_values = np.asarray(aux_values, dtype=np.uint64)
        if self.granularity_bits == 64:
            choice = np.minimum(aux_values.astype(np.uint8), 2)
            return choice[..., None]
        family, selector = self._unpack_aux(aux_values)
        return FAMILY_CANDIDATES[family[..., None], selector]
