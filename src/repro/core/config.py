"""Shared configuration objects for experiments.

The per-experiment evaluation knobs (trace length, chunking, disturbance
counting mode, random seed) live in :class:`EvaluationConfig`, a plain frozen
dataclass so it can be passed around, hashed, and printed in reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: Data-block granularities (in bits) evaluated throughout the paper.
GRANULARITIES_FULL = (8, 16, 32, 64, 128, 256, 512)
#: Granularities at which WLC-based encodings are defined (Section VI).
GRANULARITIES_WLC = (8, 16, 32, 64)


@dataclass(frozen=True)
class EvaluationConfig:
    """Knobs of the trace-driven evaluation harness."""

    #: Number of write requests generated per benchmark trace.
    trace_length: int = 20_000
    #: Number of lines processed per vectorised chunk.
    chunk_size: int = 2_048
    #: Seed of the master PRNG used for trace generation.
    seed: int = 2018
    #: When ``True`` disturbance errors are Monte-Carlo sampled instead of
    #: using the deterministic expected-value count.
    sample_disturbance: bool = False
    #: Array backend the compression kernels run on (``"numpy"`` or
    #: ``"numba"``); ``None`` keeps whatever backend is already active (the
    #: numpy reference unless a scope selected another).  Results are
    #: bit-identical for every backend -- this knob only moves throughput.
    array_backend: Optional[str] = None
    #: Coalesce streaming chunks into encoder batches of at least this many
    #: lines (the *super-batch* accumulator) before calling ``encode_batch``.
    #: Metrics are still computed per original ``chunk_size`` window with the
    #: per-chunk RNG streams and merged in chunk order, so results stay
    #: bit-identical to the per-chunk path; only the kernel batch size -- and
    #: hence compiled backend utilisation -- changes.  ``None`` disables
    #: coalescing (one ``encode_batch`` call per chunk, the historical
    #: behaviour).
    superbatch_size: Optional[int] = None
    #: Tile size (in lines) of the fused encode+metrics path.  When a chunk
    #: group is larger than this, encoders that opt in
    #: (``WriteEncoder.supports_fused_metrics``) are driven tile by tile --
    #: each tile is encoded, its per-chunk-window metrics accumulated, and
    #: its states discarded before the next tile -- so peak memory is bounded
    #: by the tile instead of the super-batch while results stay bit-identical
    #: (tiles align to chunk windows and encoding is per line).  ``None`` or
    #: a non-positive value disables tiling (the materialising reference
    #: path).  The value is rounded up to whole chunks.
    fused_tile_lines: Optional[int] = 8192

    def with_trace_length(self, trace_length: int) -> "EvaluationConfig":
        """Copy of this config with a different trace length."""
        return replace(self, trace_length=trace_length)


#: Default evaluation configuration used by examples and benchmarks.
DEFAULT_EVALUATION_CONFIG = EvaluationConfig()
