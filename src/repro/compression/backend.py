"""Compiled-kernel override table for the batch compression kernels.

The compression kernels (:mod:`repro.compression.kernels`) and every
compressor's batch path do their array math in numpy.  An
:class:`ArrayBackend` only decides whether a compiled loop replaces one of
those numpy expressions: each kernel looks its name up in
``get_backend().compiled`` and falls back to numpy when it is absent.

Two backends are built in:

``numpy``
    The reference implementation: an empty override table, so every kernel
    runs its numpy expression.
``numba``
    The hot scalar loops -- field packing/unpacking, ragged segment
    compaction, the GF(2) XOR-reduction and the per-cell metric kernels --
    are replaced by lazily ``@njit``-compiled kernels that release the GIL.
    Import-guarded: the first :func:`get_backend` call raises
    :class:`BackendUnavailableError` when numba is not installed
    (``pip install 'wlcrc-repro[numba]'``).

Selection precedence (most specific wins):

1. an explicit ``name`` argument to :func:`get_backend`;
2. the active backend set by :func:`set_array_backend` or the
   :func:`use_array_backend` context manager (the CLI and the evaluation
   engine route ``--array-backend`` / ``ExperimentConfig.array_backend``
   through this);
3. the ``numpy`` reference backend.

Every backend must be *bit-identical* to the numpy reference -- the property
suite in ``tests/compression/test_backends.py`` enforces this for each
compressor's batch path, so a backend switch can never change results, only
throughput.
"""

from __future__ import annotations

import difflib
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..obs import timer as _obs_timer

__all__ = [
    "ArrayBackend",
    "BackendUnavailableError",
    "available_backends",
    "backend_names",
    "get_backend",
    "kernel_timer",
    "set_array_backend",
    "use_array_backend",
]


class BackendUnavailableError(ConfigurationError):
    """A built-in backend cannot be constructed (missing optional dependency)."""


@dataclass(frozen=True)
class ArrayBackend:
    """One compiled-kernel override table for the batch compression kernels.

    Attributes
    ----------
    name:
        Table key (``numpy`` or ``numba``).
    compiled:
        Kernel overrides, keyed by kernel name (``pack_fields``,
        ``unpack_fields``, ``compact_fill``, ``xor_reduce``, and the per-cell
        metric kernels ``energy_cells`` and ``disturb_cells``).  The kernel
        layer checks this table before falling back to the numpy
        expression, which is how the numba backend swaps in its ``@njit``
        loops without the call sites knowing.
    """

    name: str
    compiled: Mapping[str, Callable[..., Any]] = field(default_factory=dict)


def kernel_timer(backend_name: str, kernel: str):
    """Duration histogram for one kernel dispatch (``kernel_ms{backend,kernel}``).

    Kernel calls are far too frequent for one span each -- a single sweep
    dispatches millions -- so they aggregate into a histogram instead, which
    the profile summary reports per ``(backend, kernel)`` pair.  No-op (a
    shared null context) while no observation is active.
    """
    return _obs_timer("kernel_ms", backend=backend_name, kernel=kernel)


# --------------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------------- #
# The *active* selection is thread-local so the thread-pool evaluation
# backend can never observe a half-switched global.
_ACTIVE = threading.local()


def backend_names() -> Tuple[str, ...]:
    """Names of every built-in backend (available or not)."""
    return tuple(sorted(_BACKENDS))


def available_backends() -> Tuple[str, ...]:
    """Names of the built-in backends that can actually be constructed."""
    names = []
    for name in backend_names():
        try:
            get_backend(name)
        except BackendUnavailableError:
            continue
        names.append(name)
    return tuple(names)


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Apply the selection precedence and validate the resulting name."""
    if name is None:
        name = getattr(_ACTIVE, "name", None) or "numpy"
    if name not in _BACKENDS:
        known = backend_names()
        hints = difflib.get_close_matches(name, known, n=1)
        suggestion = f" -- did you mean '{hints[0]}'?" if hints else ""
        raise ConfigurationError(
            f"unknown array backend '{name}'{suggestion} (built in: {', '.join(known)})"
        )
    return name


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """The backend selected by ``name`` / the active scope / numpy.

    Raises
    ------
    ConfigurationError
        For a name that is not built in (with a did-you-mean hint).
    BackendUnavailableError
        For a built-in backend whose optional dependency is missing.
    """
    return _BACKENDS[resolve_backend_name(name)]()


def set_array_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the active backend for this thread.

    The name is resolved eagerly so a typo fails at configuration time, not
    deep inside the first ``compress_batch``.
    """
    if name is not None:
        get_backend(name)  # validate + construct now
    _ACTIVE.name = name


@contextmanager
def use_array_backend(name: Optional[str]) -> Iterator[ArrayBackend]:
    """Scoped backend selection: restores the previous active backend on exit."""
    previous = getattr(_ACTIVE, "name", None)
    set_array_backend(name)
    try:
        yield get_backend()
    finally:
        _ACTIVE.name = previous


# --------------------------------------------------------------------------- #
# numpy -- the reference backend
# --------------------------------------------------------------------------- #
_NUMPY = ArrayBackend(name="numpy")


# --------------------------------------------------------------------------- #
# Fused metric kernel bodies (plain Python, shared with the numba backend)
# --------------------------------------------------------------------------- #
# The metric path (see ``repro.evaluation.runner``) routes its per-cell
# metric computations through these kernels.  They are deliberately
# *elementwise only*: every float they produce equals the corresponding numpy
# expression bit for bit (a gather from an exact table, optionally multiplied
# by 1.0/0.0), and the order-sensitive float reductions stay in shared numpy
# ``.sum`` calls -- numpy 2.x uses a SIMD pairwise summation whose
# accumulation tree cannot be replicated portably in a scalar loop, so the
# loops below never sum floats.  Defined at module level (and
# ``@njit``-wrapped lazily inside ``_compile_numba_kernels``) so the loop
# logic is testable without numba.
def _energy_cells_impl(states, changed, weights):
    # 1-D: per-cell write energy, ``weights[state]`` where changed else 0.0.
    out = np.empty(states.shape[0], dtype=np.float64)
    for i in range(states.shape[0]):
        out[i] = weights[states[i]] if changed[i] else 0.0
    return out


def _disturb_cells_impl(stored, changed, rates):
    # 2-D: per-cell expected disturbance errors -- fuses the neighbour test,
    # the vulnerability mask and the rate gather into one pass per line.
    n, cells = stored.shape
    out = np.empty((n, cells), dtype=np.float64)
    for row in range(n):
        for cell in range(cells):
            vulnerable = not changed[row, cell] and (
                (cell > 0 and changed[row, cell - 1])
                or (cell + 1 < cells and changed[row, cell + 1])
            )
            out[row, cell] = rates[stored[row, cell]] if vulnerable else 0.0
    return out


# --------------------------------------------------------------------------- #
# numba -- compiled host kernels (optional)
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _numba_backend() -> ArrayBackend:
    try:
        import numba
    except ImportError as exc:  # pragma: no cover - exercised only without numba
        raise BackendUnavailableError(
            "array backend 'numba' needs the numba package "
            "(pip install 'wlcrc-repro[numba]')"
        ) from exc
    return ArrayBackend(name="numba", compiled=_compile_numba_kernels(numba))


def _compile_numba_kernels(numba) -> Dict[str, Callable[..., Any]]:
    """Build the ``@njit`` kernel table for the numba backend.

    Compilation is deferred to the first call of each kernel (``cache=True``
    persists the machine code across processes), so constructing the backend
    stays cheap.  The loops mirror the numpy expressions in
    :mod:`repro.compression.kernels` exactly -- same dtypes, same bit order --
    which is what keeps the backend bit-identical.
    """
    njit = numba.njit

    @njit(cache=True, nogil=True)
    def pack_fields(bits):  # (..., width) uint64 -> (...,) uint64
        flat = bits.reshape(-1, bits.shape[-1])
        out = np.zeros(flat.shape[0], dtype=np.uint64)
        for row in range(flat.shape[0]):
            acc = np.uint64(0)
            for bit in range(flat.shape[1]):
                acc |= flat[row, bit] << np.uint64(bit)
            out[row] = acc
        return out.reshape(bits.shape[:-1])

    @njit(cache=True, nogil=True)
    def unpack_fields(values, width):  # (...,) uint64 -> (..., width) uint8
        flat = values.reshape(-1)
        out = np.empty((flat.shape[0], width), dtype=np.uint8)
        for row in range(flat.shape[0]):
            value = flat[row]
            for bit in range(width):
                out[row, bit] = np.uint8((value >> np.uint64(bit)) & np.uint64(1))
        return out.reshape(values.shape + (width,))

    @njit(cache=True, nogil=True)
    def compact_fill(seg_bits, seg_widths, out):
        # Row-major scatter of the valid segment bits into the dense streams.
        n, segments, _ = seg_bits.shape
        for row in range(n):
            cursor = 0
            for seg in range(segments):
                for bit in range(seg_widths[row, seg]):
                    out[row, cursor] = seg_bits[row, seg, bit]
                    cursor += 1
        return out

    @njit(cache=True, nogil=True)
    def xor_reduce(bits, matrix):  # (n, k) x (k, r) -> (n, r), GF(2)
        n, k = bits.shape
        r = matrix.shape[1]
        out = np.zeros((n, r), dtype=np.uint8)
        for row in range(n):
            for col in range(k):
                if bits[row, col]:
                    for parity in range(r):
                        out[row, parity] ^= matrix[col, parity]
        return out

    # The fused metric kernels share their loop bodies with the plain-Python
    # implementations above (kept un-jitted so the logic is testable without
    # numba); jitting them here only changes throughput, never a bit.
    energy_cells = njit(cache=True, nogil=True)(_energy_cells_impl)
    disturb_cells = njit(cache=True, nogil=True)(_disturb_cells_impl)

    return {
        "pack_fields": pack_fields,
        "unpack_fields": unpack_fields,
        "compact_fill": compact_fill,
        "xor_reduce": xor_reduce,
        "energy_cells": energy_cells,
        "disturb_cells": disturb_cells,
    }


#: The built-in backends, each behind a zero-argument constructor (numba's is
#: cached and imports numba only on first use).
_BACKENDS: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": lambda: _NUMPY,
    "numba": _numba_backend,
}
