"""repro: reproduction of "Enabling Fine-Grain Restricted Coset Coding Through
Word-Level Compression for PCM" (HPCA 2018).

The package implements the paper's WLCRC write-encoding architecture for
multi-level-cell phase change memory together with every substrate and
baseline needed to reproduce its evaluation:

* :mod:`repro.core` -- memory-line / symbol data model, MLC PCM energy and
  write-disturbance models, coset candidates, metrics.
* :mod:`repro.compression` -- Word-Level Compression (WLC), FPC, BDI and
  Coverage-Oriented Compression (COC) substrates.
* :mod:`repro.ecc` -- GF(2^m) arithmetic and the BCH code used by DIN.
* :mod:`repro.coding` -- the write-encoding schemes: differential-write
  baseline, FNW, FlipMin, 6cosets, 4cosets, 3cosets, restricted cosets, DIN,
  COC+4cosets, WLC+cosets and WLCRC.
* :mod:`repro.workloads` -- synthetic SPEC2006/PARSEC-like write traces.
* :mod:`repro.evaluation` -- the trace-driven evaluation harness and the
  per-figure experiment drivers.
* :mod:`repro.hardware` -- analytical hardware-overhead model of the WLCRC
  encoder/decoder pipeline.

Quickstart
----------

>>> from repro import make_scheme, evaluate_trace
>>> from repro.workloads import generate_benchmark_trace
>>> trace = generate_benchmark_trace("gcc", length=2000, seed=1)
>>> wlcrc = make_scheme("wlcrc-16")
>>> metrics = evaluate_trace(wlcrc, trace)
>>> metrics.avg_energy_pj > 0
True
"""

from .core import (
    DisturbanceModel,
    EnergyModel,
    EvaluationConfig,
    LineBatch,
    WriteMetrics,
)
from .coding import available_schemes, make_scheme
from .evaluation import evaluate_trace

__version__ = "1.0.0"

__all__ = [
    "DisturbanceModel",
    "EnergyModel",
    "EvaluationConfig",
    "LineBatch",
    "WriteMetrics",
    "available_schemes",
    "evaluate_trace",
    "make_scheme",
    "__version__",
]
