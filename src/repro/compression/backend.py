"""Array-backend abstraction for the compression kernel layer.

PR 5 vectorised every compressor into batch kernels, but left them hard-wired
to ``numpy``.  This module decouples the kernels from the array library: an
:class:`ArrayBackend` bundles an array namespace (``xp``), the device/host
transfer pair, and an optional table of compiled kernel overrides.  The
kernel layer (:mod:`repro.compression.kernels`) and every compressor's batch
path fetch the active backend via :func:`get_backend` and perform all array
math through ``backend.xp``; host-side :class:`PackedBits` containers remain
the only numpy boundary, so device arrays never leak out of the kernel layer.

Three backends are registered out of the box:

``numpy``
    The reference implementation.  ``xp`` is :mod:`numpy` and both transfers
    are the identity, so this path is byte-for-byte the pre-refactor code.
``numba``
    Same arrays as numpy (host memory, ``xp`` is numpy) but the hot scalar
    loops -- field packing/unpacking, ragged segment compaction and the
    GF(2) XOR-reduction -- are replaced by lazily ``@njit``-compiled kernels
    that release the GIL.  Import-guarded: registering costs nothing, the
    first :func:`get_backend` call raises :class:`BackendUnavailableError`
    when numba is not installed (``pip install 'wlcrc-repro[numba]'``).
``cupy``
    GPU execution via :mod:`cupy`; ``to_device``/``to_host`` are
    ``cupy.asarray``/``cupy.asnumpy``.  Import-guarded like numba
    (``pip install 'wlcrc-repro[cupy]'``).

Selection precedence (most specific wins):

1. an explicit ``name`` argument to :func:`get_backend`;
2. the active backend set by :func:`set_array_backend` or the
   :func:`use_array_backend` context manager (the CLI and the evaluation
   engine route ``--array-backend`` / ``ExperimentConfig.array_backend``
   through this);
3. the ``REPRO_ARRAY_BACKEND`` environment variable;
4. the ``numpy`` reference backend.

Every backend must be *bit-identical* to the numpy reference -- the property
suite in ``tests/compression/test_backends.py`` enforces this for each
compressor's batch path, so a backend switch can never change results, only
throughput.
"""

from __future__ import annotations

import difflib
import os
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
    "register_backend",
    "set_array_backend",
    "use_array_backend",
]

#: Environment variable consulted when no backend is selected explicitly.
ENV_VAR = "REPRO_ARRAY_BACKEND"


class BackendUnavailableError(ConfigurationError):
    """A registered backend cannot be constructed (missing optional dependency)."""


@dataclass(frozen=True)
class ArrayBackend:
    """One array-execution substrate for the batch compression kernels.

    Attributes
    ----------
    name:
        Registry key (``numpy``, ``numba``, ``cupy``, ...).
    xp:
        The array namespace; must be numpy-API compatible for every
        operation the kernels use (broadcasting shifts, fancy indexing,
        ``repeat``/``cumsum``/``argmin``/``where``/``matmul``).
    to_device:
        Move a host (numpy) array onto the backend's device.  Identity for
        host backends.
    to_host:
        Move a device array back to host numpy.  Identity for host backends.
    compiled:
        Optional kernel overrides, keyed by kernel name (``pack_fields``,
        ``unpack_fields``, ``compact_fill``, ``xor_reduce``, and the per-cell
        metric kernels ``energy_cells`` and ``disturb_cells``).  The kernel layer checks this
        table before falling back to the ``xp`` expression, which is how the
        numba backend swaps in its ``@njit`` loops without the call sites
        knowing.
    """

    name: str
    xp: Any
    to_device: Callable[[Any], Any] = np.asarray
    to_host: Callable[[Any], np.ndarray] = np.asarray
    compiled: Mapping[str, Callable[..., Any]] = field(default_factory=dict)

    def asarray(self, array: Any, dtype: Any = None) -> Any:
        """Device-side ``asarray`` convenience (keeps call sites terse)."""
        moved = self.to_device(array)
        return moved if dtype is None else self.xp.asarray(moved, dtype=dtype)


def kernel_timer(backend_name: str, kernel: str):
    """Duration histogram for one kernel dispatch (``kernel_ms{backend,kernel}``).

    Kernel calls are far too frequent for one span each -- a single sweep
    dispatches millions -- so they aggregate into a histogram instead, which
    the profile summary reports per ``(backend, kernel)`` pair.  No-op (a
    shared null context) while no observation is active.
    """
    return _obs_timer("kernel_ms", backend=backend_name, kernel=kernel)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
_LOCK = threading.Lock()
# The *active* selection is thread-local so the thread-pool evaluation
# backend can never observe a half-switched global.
_ACTIVE = threading.local()


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    The factory runs lazily on first use and may raise
    :class:`BackendUnavailableError` -- registration itself never imports
    optional dependencies, which keeps ``import repro`` dependency-light.
    """
    with _LOCK:
        _FACTORIES[name] = factory
        _INSTANCES.pop(name, None)


def backend_names() -> Tuple[str, ...]:
    """Names of every *registered* backend (available or not)."""
    return tuple(sorted(_FACTORIES))


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends that can actually be constructed."""
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
        name = getattr(_ACTIVE, "name", None)
    if name is None:
        name = os.environ.get(ENV_VAR) or None
    if name is None:
        name = "numpy"
    if name not in _FACTORIES:
        known = backend_names()
        hints = difflib.get_close_matches(name, known, n=1)
        suggestion = f" -- did you mean '{hints[0]}'?" if hints else ""
        raise ConfigurationError(
            f"unknown array backend '{name}'{suggestion} (registered: {', '.join(known)})"
        )
    return name


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """The backend selected by ``name`` / active / ``REPRO_ARRAY_BACKEND`` / numpy.

    Raises
    ------
    ConfigurationError
        For a name that is not registered (with a did-you-mean hint).
    BackendUnavailableError
        For a registered backend whose optional dependency is missing.
    """
    name = resolve_backend_name(name)
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    with _LOCK:
        instance = _INSTANCES.get(name)
        if instance is None:
            instance = _FACTORIES[name]()
            _INSTANCES[name] = instance
    return instance


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
def _numpy_backend() -> ArrayBackend:
    return ArrayBackend(name="numpy", xp=np)


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
def _numba_backend() -> ArrayBackend:
    try:
        import numba
    except ImportError as exc:  # pragma: no cover - exercised only without numba
        raise BackendUnavailableError(
            "array backend 'numba' needs the numba package "
            "(pip install 'wlcrc-repro[numba]')"
        ) from exc
    return ArrayBackend(name="numba", xp=np, compiled=_compile_numba_kernels(numba))


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


# --------------------------------------------------------------------------- #
# cupy -- GPU execution (optional)
# --------------------------------------------------------------------------- #
def _cupy_backend() -> ArrayBackend:
    try:
        import cupy
    except ImportError as exc:  # pragma: no cover - exercised only without cupy
        raise BackendUnavailableError(
            "array backend 'cupy' needs the cupy package "
            "(pip install 'wlcrc-repro[cupy]')"
        ) from exc
    try:
        cupy.cuda.runtime.getDeviceCount()
    except Exception as exc:  # pragma: no cover - cupy without a visible GPU
        raise BackendUnavailableError(
            "array backend 'cupy' found no usable CUDA device"
        ) from exc
    return ArrayBackend(
        name="cupy",
        xp=cupy,
        to_device=cupy.asarray,
        to_host=cupy.asnumpy,
    )


register_backend("numpy", _numpy_backend)
register_backend("numba", _numba_backend)
register_backend("cupy", _cupy_backend)
