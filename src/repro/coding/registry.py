"""Scheme registry: build any evaluated encoding scheme from its name.

Baseline and DIN have classes of their own.  Every other name maps to a
:class:`~repro.coding.coset.CosetSpec` that :class:`~repro.coding.coset.CosetEncoder`
runs.  The names follow the paper's terminology.  A granularity suffix
(``-8``, ``-16``, ``-32``, ...) can be appended to the coset-based schemes;
without a suffix each scheme uses the default granularity the paper evaluates
it at (512-bit lines for 6cosets/4cosets/3cosets, 128-bit blocks for FNW,
32-bit blocks for WLC+cosets, 16-bit blocks for WLCRC and 3-r-cosets).
``wlcrc[-<bits>]-mo[<T>]`` is WLCRC's multi-objective mode at threshold ``T``
(default :data:`DEFAULT_ENDURANCE_THRESHOLD`).  Every encoder's ``name`` is a
name this registry accepts and maps back to the same scheme.

Examples
--------
>>> from repro.coding import make_scheme
>>> make_scheme("wlcrc-16").name
'wlcrc-16'
>>> make_scheme("6cosets").spec.granularity_bits
512
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from ..compression.coc import COC_BUDGET_16BIT, COC_BUDGET_32BIT
from ..core.cosets import (
    DEFAULT_MAPPING,
    FOUR_COSETS,
    SIX_COSETS,
    THREE_COSETS,
    flipmin_coset_vectors,
)
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from ..core.symbols import BITS_PER_LINE, BITS_PER_WORD
from .base import WriteEncoder
from .baseline import BaselineEncoder
from .coset import CosetEncoder, CosetLayout, CosetSpec
from .din import DINEncoder

#: Default threshold of the multi-objective WLCRC variant (Section VIII-D).
DEFAULT_ENDURANCE_THRESHOLD = 0.01

#: Reclaimed bits per 64-bit word of WLCRC at each granularity: the family
#: bit plus one selector per block.  The 8-bit configuration reclaims the
#: whole top byte, whose block is compressed away (Section IX-A).
RECLAIMED_BITS_BY_GRANULARITY: Dict[int, int] = {8: 8, 16: 5, 32: 3, 64: 2}

#: Scheme names evaluated in Figures 8, 9 and 10, in the paper's order.
FIGURE8_SCHEMES = (
    "baseline",
    "flipmin",
    "fnw",
    "din",
    "6cosets",
    "coc+4cosets",
    "wlc+4cosets",
    "wlcrc-16",
)


def _coset(name: str, candidates, granularity: int, **options) -> CosetSpec:
    return CosetSpec(name, candidates, (CosetLayout(granularity),), **options)


def _fnw(g: int, threshold: Optional[float]) -> CosetSpec:
    # Flip-N-Write [Cho & Lee, MICRO'09]: a block or its complement, one flip
    # bit per block.  The default mapping of the complemented symbol (3 - s)
    # is the reversed mapping table.
    return _coset(f"fnw-{g}", (DEFAULT_MAPPING, DEFAULT_MAPPING[::-1]), g)


def _flipmin(g: Optional[int], threshold: Optional[float]) -> CosetSpec:
    # FlipMin [Jacobvitz et al., HPCA'13]: the line XORed with one of sixteen
    # fixed-seed random vectors, the 4-bit index in two aux cells.
    vectors = flipmin_coset_vectors(16, seed=0x5EED)
    return _coset("flipmin", [DEFAULT_MAPPING] * 16, BITS_PER_LINE, xor_words=vectors)


def _coc(g: Optional[int], threshold: Optional[float]) -> CosetSpec:
    # COC+4cosets: a COC payload of <= 448 bits is encoded in 16-bit blocks,
    # one of <= 480 bits in 32-bit blocks; the mode cell tells them apart.
    layouts = (
        CosetLayout(16, COC_BUDGET_16BIT, mode_symbol=0),
        CosetLayout(32, COC_BUDGET_32BIT, mode_symbol=2),
    )
    return CosetSpec("coc+4cosets", FOUR_COSETS, layouts, front_end="coc")


def _line_cosets(prefix: str, candidates, codec: str):
    return lambda g, threshold: _coset(f"{prefix}-{g}", candidates, g, aux_codec=codec)


def _restricted(g: int, threshold: Optional[float]) -> CosetSpec:
    return _coset(f"3-r-cosets-{g}", THREE_COSETS, g, selection="restricted")


def _wlc_cosets(prefix: str, candidates):
    # Two aux bits (the candidate index) per block in the reclaimed bits.
    return lambda g, threshold: _coset(
        f"{prefix}-{g}", candidates, g, front_end="wlc",
        reclaimed_bits=2 * (BITS_PER_WORD // g), keep_stored=True,
    )


def _wlcrc(g: int, threshold: Optional[float]) -> CosetSpec:
    if g not in RECLAIMED_BITS_BY_GRANULARITY:
        raise ConfigurationError("WLCRC supports 8/16/32/64-bit granularities")
    name = f"wlcrc-{g}" if threshold is None else f"wlcrc-{g}-mo{threshold!r}"
    # At 64-bit blocks the restriction degenerates to the unrestricted
    # 3cosets choice with a 2-bit candidate index.
    return _coset(
        name, THREE_COSETS, g, front_end="wlc", reclaimed_bits=RECLAIMED_BITS_BY_GRANULARITY[g],
        keep_stored=True, selection="argmin" if g == 64 else "restricted",
        endurance_threshold=threshold,
    )


#: Name prefix -> (default granularity, ``None`` for a scheme without a
#: suffix; spec builder taking the granularity and endurance threshold).
_SCHEMES: Dict[str, Tuple[Optional[int], Callable[..., CosetSpec]]] = {
    "fnw": (128, _fnw),
    "flipmin": (None, _flipmin),
    "6cosets": (512, _line_cosets("6cosets", SIX_COSETS, "pair")),
    "4cosets": (512, _line_cosets("4cosets", FOUR_COSETS, "cell")),
    "3cosets": (512, _line_cosets("3cosets", THREE_COSETS, "cell")),
    "3-r-cosets": (16, _restricted),
    "coc+4cosets": (None, _coc),
    "wlc+4cosets": (32, _wlc_cosets("wlc+4cosets", FOUR_COSETS)),
    "wlc+3cosets": (32, _wlc_cosets("wlc+3cosets", THREE_COSETS)),
    "wlcrc": (16, _wlcrc),
}


@lru_cache(maxsize=256)
def coset_spec(name: str) -> CosetSpec:
    """The :class:`CosetSpec` a coset scheme name stands for.

    Raises :class:`ConfigurationError` for an unknown or malformed name.
    Specs are frozen, so a cached spec is safely shared; the bound keeps a
    service fed many distinct names from growing without limit.
    """
    key = name.strip().lower()
    base, multiobjective, threshold_text = key.partition("-mo")
    prefix, _, suffix = base.rpartition("-")
    if not (prefix and suffix.isdigit()):
        prefix, suffix = base, ""
    if prefix not in _SCHEMES:
        raise ConfigurationError(f"unknown scheme name: {name!r}")
    default, build = _SCHEMES[prefix]
    if suffix and default is None:
        raise ConfigurationError(f"{prefix} takes no granularity suffix: {name!r}")
    granularity = int(suffix) if suffix else default
    if granularity is not None and (granularity <= 0 or BITS_PER_LINE % granularity):
        raise ConfigurationError(f"granularity must evenly divide the 512-bit line: {name!r}")
    threshold = None
    if multiobjective:
        if prefix != "wlcrc":
            raise ConfigurationError(f"only WLCRC has a multi-objective mode: {name!r}")
        try:
            threshold = float(threshold_text) if threshold_text else DEFAULT_ENDURANCE_THRESHOLD
        except ValueError:
            raise ConfigurationError(f"malformed endurance threshold: {name!r}") from None
    return build(granularity, threshold)


def make_scheme(name: str, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL) -> WriteEncoder:
    """Instantiate an encoding scheme by its paper name."""
    key = name.strip().lower()
    if key == "baseline":
        return BaselineEncoder(energy_model)
    if key == "din":
        return DINEncoder(energy_model)
    return CosetEncoder(coset_spec(key), energy_model)


def available_schemes() -> List[str]:
    """Canonical list of scheme names accepted by :func:`make_scheme`."""
    return [
        "baseline",
        "fnw",
        "flipmin",
        "din",
        "6cosets",
        "4cosets",
        "3cosets-16",
        "3-r-cosets-16",
        "coc+4cosets",
        "wlc+4cosets",
        "wlc+3cosets",
        "wlcrc-8",
        "wlcrc-16",
        "wlcrc-32",
        "wlcrc-64",
        "wlcrc-16-mo",
    ]
