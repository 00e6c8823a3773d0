"""Write-encoding schemes: the paper's WLCRC proposal and every baseline.

Every coset scheme -- n-cosets, 3-r-cosets, FNW, FlipMin, COC+4cosets,
WLC+cosets and WLCRC -- is a frozen :class:`CosetSpec` of data (candidate
mappings, block geometry, compression front end, aux codec, selection rule)
run by the one :class:`CosetEncoder`.  The baseline and DIN, which make no
coset choice, keep encoders of their own.  :func:`make_scheme` builds any of
them from its paper name.
"""

from .base import (
    FLAG_COMPRESSED_STATE,
    FLAG_RAW_STATE,
    EncodedBatch,
    WriteEncoder,
    block_energy_costs,
    block_flip_costs,
    pack_bits_to_states,
    select_states_per_block,
    unpack_states_to_bits,
)
from .baseline import BaselineEncoder
from .coset import CosetEncoder, CosetLayout, CosetSpec
from .din import DINEncoder, build_din_mapping
from .registry import (
    DEFAULT_ENDURANCE_THRESHOLD,
    FIGURE8_SCHEMES,
    RECLAIMED_BITS_BY_GRANULARITY,
    available_schemes,
    coset_spec,
    make_scheme,
)

__all__ = [
    "BaselineEncoder",
    "CosetEncoder",
    "CosetLayout",
    "CosetSpec",
    "DEFAULT_ENDURANCE_THRESHOLD",
    "DINEncoder",
    "EncodedBatch",
    "FIGURE8_SCHEMES",
    "FLAG_COMPRESSED_STATE",
    "FLAG_RAW_STATE",
    "RECLAIMED_BITS_BY_GRANULARITY",
    "WriteEncoder",
    "available_schemes",
    "block_energy_costs",
    "block_flip_costs",
    "build_din_mapping",
    "coset_spec",
    "make_scheme",
    "pack_bits_to_states",
    "select_states_per_block",
    "unpack_states_to_bits",
]
