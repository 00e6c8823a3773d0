"""Vectorised bit-packing kernels shared by every compression substrate.

The compressors' single-line interface builds its bit streams one bit at a
time, which is exact but serial.  This module provides the array-level
building blocks that let every compressor expose a *batch* interface
(:meth:`~repro.compression.base.Compressor.compress_batch` /
:meth:`~repro.compression.base.Compressor.decompress_batch`) producing the
same streams for a whole :class:`~repro.core.line.LineBatch` at once:

* :class:`PackedBits` -- the batched counterpart of
  :class:`~repro.compression.base.CompressedLine`: a zero-padded ``(n,
  width)`` bit matrix plus per-line stream lengths;
* fixed-width field packing/unpacking (:func:`unpack_fields`,
  :func:`pack_fields`) -- broadcasting shifts instead of per-bit loops;
* ragged compaction (:func:`compact_segments`) -- lay out per-line segments
  of varying widths (e.g. FPC's 16 prefix+payload fields) back to back,
  which is the one genuinely irregular step of variable-length compression;
* GF(2) matrix reduction (:func:`xor_reduce`) -- XOR of selected rows of a
  bit matrix, expressed as an integer matmul mod 2 (the BCH parity kernel).

Every kernel does its math in numpy and consults the active
:class:`~repro.compression.backend.ArrayBackend`'s ``compiled`` table for a
substituted compiled loop (see :func:`.backend.get_backend`).

Dtype discipline matters here: every intermediate carries an explicit
``uint64``/``int64``/``uint8`` dtype, because the compiled loops are typed
by their inputs and must see exactly the dtypes the numpy expressions use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..core.errors import CompressionError
from .backend import get_backend, kernel_timer

__all__ = [
    "PackedBits",
    "unpack_fields",
    "pack_fields",
    "compact_segments",
    "hstack_bits",
    "xor_reduce",
    "single_line_batch",
    "single_stream",
]


@dataclass(frozen=True)
class PackedBits:
    """Batched bit-exact compressed streams (one row per memory line).

    Attributes
    ----------
    bits:
        ``(n, width)`` ``uint8`` array of bit values (0/1), LSB of the stream
        first.  Rows are zero-padded past their stream length; ``width`` is
        at least ``lengths.max()``.
    lengths:
        ``(n,)`` ``int64`` array of per-line stream lengths in bits.
    compressor:
        Name of the compressor that produced the streams.
    """

    bits: np.ndarray
    lengths: np.ndarray
    compressor: str

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        if bits.ndim != 2 or lengths.ndim != 1 or bits.shape[0] != lengths.shape[0]:
            raise CompressionError(
                f"PackedBits needs (n, width) bits and (n,) lengths, got "
                f"{bits.shape} and {lengths.shape}"
            )
        if lengths.size and int(lengths.max(initial=0)) > bits.shape[1]:
            raise CompressionError("PackedBits lengths exceed the bit matrix width")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "lengths", lengths)

    def __len__(self) -> int:
        return int(self.bits.shape[0])

    def line(self, index: int):
        """The ``index``-th stream as a scalar :class:`CompressedLine`."""
        from .base import CompressedLine

        return CompressedLine(
            bits=self.bits[index, : int(self.lengths[index])].copy(),
            compressor=self.compressor,
        )

    def lines(self) -> Iterator:
        """Iterate over the scalar :class:`CompressedLine` views."""
        for index in range(len(self)):
            yield self.line(index)

    @classmethod
    def from_streams(cls, streams: Sequence[np.ndarray], compressor: str) -> "PackedBits":
        """Pack a list of 1-D bit arrays into one zero-padded matrix."""
        lengths = np.array([int(np.asarray(s).shape[0]) for s in streams], dtype=np.int64)
        width = int(lengths.max(initial=0))
        bits = np.zeros((len(lengths), width), dtype=np.uint8)
        for row, stream in enumerate(streams):
            bits[row, : lengths[row]] = np.asarray(stream, dtype=np.uint8)
        return cls(bits=bits, lengths=lengths, compressor=compressor)


def single_line_batch(words: np.ndarray):
    """Wrap one ``(8,)`` line as a 1-line batch (the scalar-over-batch adapter).

    The scalar ``compress_line``/``decompress_line`` methods of every
    compressor are thin wrappers that route one line through the batch
    kernels; this and :func:`single_stream` are the two adapters they use.
    """
    from ..core.line import LineBatch

    return LineBatch(np.asarray(words, dtype=np.uint64).reshape(1, -1))


def single_stream(compressed, name: str) -> PackedBits:
    """Wrap one scalar compressed stream as a 1-line packed batch."""
    bits = np.asarray(compressed.bits, dtype=np.uint8).reshape(1, -1)
    return PackedBits(bits=bits, lengths=np.array([bits.shape[1]]), compressor=name)


def unpack_fields(values, width: int):
    """Unpack integers into their ``width`` least-significant bits, LSB first.

    ``values`` of shape ``(...,)`` becomes a ``uint8`` array of shape
    ``(..., width)``; consecutive fields of a line are meant to be unpacked
    separately and concatenated (or reshaped) along the last axis.
    """
    b = get_backend()
    values = np.asarray(values, dtype=np.uint64)
    with kernel_timer(b.name, "unpack_fields"):
        kernel = b.compiled.get("unpack_fields")
        if kernel is not None:
            return kernel(np.ascontiguousarray(values), width)
        shifts = np.arange(width, dtype=np.uint64)
        return ((values[..., None] >> shifts) & np.uint64(1)).astype(np.uint8)


def pack_fields(bits):
    """Pack LSB-first bits along the last axis back into ``uint64`` integers."""
    b = get_backend()
    # Explicit uint64 up-front: letting `<<` promote uint8 operands would
    # produce int64 intermediates.
    bits = np.asarray(bits, dtype=np.uint64)
    if bits.shape[-1] > 64:
        raise CompressionError("cannot pack more than 64 bits into one field")
    with kernel_timer(b.name, "pack_fields"):
        kernel = b.compiled.get("pack_fields")
        if kernel is not None:
            return kernel(np.ascontiguousarray(bits))
        shifts = np.arange(bits.shape[-1], dtype=np.uint64)
        return (bits << shifts).sum(axis=-1, dtype=np.uint64)


def compact_segments(seg_bits, seg_widths, compressor: str) -> PackedBits:
    """Concatenate per-line variable-width segments into dense streams.

    Parameters
    ----------
    seg_bits:
        ``(n, segments, max_width)`` ``uint8`` array; segment ``s`` of line
        ``i`` contributes its first ``seg_widths[i, s]`` bits.
    seg_widths:
        ``(n, segments)`` integer array of per-segment bit counts.

    Returns
    -------
    PackedBits
        The per-line concatenation of every segment's bits, in segment
        order -- exactly what a scalar cursor loop would build.
    """
    b = get_backend()
    seg_bits = np.asarray(seg_bits, dtype=np.uint8)
    seg_widths = np.asarray(seg_widths, dtype=np.int64)
    n, segments, max_width = seg_bits.shape
    if seg_widths.shape != (n, segments):
        raise CompressionError("segment widths must align with the segment bits")
    if seg_widths.size and int(seg_widths.max(initial=0)) > max_width:
        raise CompressionError("segment widths exceed the segment bit capacity")
    lengths = seg_widths.sum(axis=1, dtype=np.int64)
    if n == 0:
        return PackedBits(np.zeros((0, 0), dtype=np.uint8), lengths, compressor)
    width = int(lengths.max())
    with kernel_timer(b.name, "compact_fill"):
        kernel = b.compiled.get("compact_fill")
        if kernel is not None:
            out = np.zeros((n, width), dtype=np.uint8)
            kernel(
                np.ascontiguousarray(seg_bits),
                np.ascontiguousarray(seg_widths),
                out,
            )
            return PackedBits(out, lengths, compressor)
        # Row-major selection of the valid bits yields them already ordered by
        # (line, segment, bit); only the destination columns need computing.
        valid = np.arange(max_width, dtype=np.int64) < seg_widths[..., None]
        flat = seg_bits[valid]
        out = np.zeros((n, width), dtype=np.uint8)
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths, dtype=np.int64)[:-1]]
        )
        cols = np.arange(flat.shape[0], dtype=np.int64) - np.repeat(starts, lengths)
        out[rows, cols] = flat
        return PackedBits(out, lengths, compressor)


def hstack_bits(parts: Sequence[PackedBits], compressor: str) -> PackedBits:
    """Concatenate several packed-bit blocks line-wise (ragged-aware)."""
    if not parts:
        raise CompressionError("hstack_bits needs at least one part")
    n = len(parts[0])
    widths = [part.bits.shape[1] for part in parts]
    seg_bits = np.zeros((n, len(parts), max(widths) if widths else 0), dtype=np.uint8)
    seg_widths = np.zeros((n, len(parts)), dtype=np.int64)
    for index, part in enumerate(parts):
        if len(part) != n:
            raise CompressionError("hstack_bits parts must have equal line counts")
        seg_bits[:, index, : part.bits.shape[1]] = part.bits
        seg_widths[:, index] = part.lengths
    return compact_segments(seg_bits, seg_widths, compressor)


def xor_reduce(bits, matrix):
    """GF(2) reduction: XOR together ``matrix`` rows selected by set ``bits``.

    ``bits`` is ``(n, k)`` with 0/1 entries, ``matrix`` is ``(k, r)``; the
    result is the ``(n, r)`` ``uint8`` matrix whose row ``i`` is the XOR of
    every ``matrix[j]`` with ``bits[i, j] == 1`` -- i.e. the bit-matrix
    product over GF(2), computed as an integer matmul with the parity taken
    mod 2.  This is the vectorised form of a polynomial remainder over GF(2)
    with a precomputed shifted-remainder table (see
    :meth:`repro.ecc.bch.BCHCode.parity_batch`).
    """
    b = get_backend()
    bits = np.asarray(bits, dtype=np.uint8)
    matrix = np.asarray(matrix, dtype=np.uint8)
    if bits.ndim != 2 or matrix.ndim != 2 or bits.shape[1] != matrix.shape[0]:
        raise CompressionError(
            f"xor_reduce needs (n, k) bits and (k, r) matrix, got "
            f"{bits.shape} and {matrix.shape}"
        )
    # Empty-batch guard: an (0, k) @ (k, r) matmul is well-defined, but the
    # compiled kernels reject zero-sized views -- short-circuit to the empty
    # answer instead.
    if bits.shape[0] == 0:
        return np.zeros((0, matrix.shape[1]), dtype=np.uint8)
    with kernel_timer(b.name, "xor_reduce"):
        kernel = b.compiled.get("xor_reduce")
        if kernel is not None:
            return kernel(np.ascontiguousarray(bits), np.ascontiguousarray(matrix))
        # uint64 accumulators: popcounts along k can reach k (> 255), so the
        # matmul must not run in the uint8 input dtype.
        products = bits.astype(np.uint64) @ matrix.astype(np.uint64)
        return (products & np.uint64(1)).astype(np.uint8)
