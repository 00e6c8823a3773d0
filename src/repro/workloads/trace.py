"""Write-trace container, file format, and the chunk-source abstraction.

A *write trace* is the input the paper's trace-driven simulator consumes: a
sequence of memory write transactions, each carrying both the value to be
written and the value being overwritten (so that differential write can be
evaluated without replaying the whole history).  :class:`WriteTrace` stores
the two sides as :class:`~repro.core.line.LineBatch` objects plus optional
per-request addresses (recorded by the external-trace ingest of
:mod:`repro.traces.ingest`) and a metadata dictionary.

Traces can be saved to and loaded from two formats, dispatched on the file
suffix: compressed ``.npz`` archives (the historical format) and the raw
``.wtrc`` corpus format of :mod:`repro.traces.store`, which loads through
:class:`numpy.memmap` so a corpus-backed trace never materialises in RAM.

The evaluation stack does not actually require a materialised trace -- only
an iterator of fixed-size chunks.  :class:`ChunkSource` names that contract:
anything with a ``name`` and a re-iterable ``chunks(chunk_size)`` method can
be evaluated (serially or on the parallel engine) with memory bounded by the
chunk size.  :class:`WriteTrace` itself satisfies it (slicing views), and
:class:`repro.traces.ingest.IngestChunkSource` streams chunks straight out of
an on-disk ASCII trace that never fits in RAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..core.errors import TraceError
from ..core.line import LineBatch

try:  # Protocol is typing-only; keep a graceful path for very old 3.7 envs
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls


@runtime_checkable
class ChunkSource(Protocol):
    """Anything the evaluation stack can consume chunk by chunk.

    The contract:

    * ``name`` labels the trace in results and reports;
    * ``chunks(chunk_size)`` yields consecutive :class:`WriteTrace` chunks of
      exactly ``chunk_size`` requests (the last may be shorter), and must be
      **re-iterable**: every call restarts from the first request, so several
      work units (e.g. different encoders) can evaluate one source.

    The chunk boundaries must not depend on who is iterating -- the parallel
    engine relies on chunk ``c`` of any iteration being identical to chunk
    ``c`` of the serial run to keep results bit-identical for any ``n_jobs``.
    """

    name: str

    def chunks(self, chunk_size: int) -> Iterator["WriteTrace"]: ...


@dataclass
class WriteTrace:
    """A sequence of (old value, new value) memory-line write transactions."""

    old: LineBatch
    new: LineBatch
    addresses: Optional[np.ndarray] = None
    name: str = "trace"
    metadata: Dict[str, str] = field(default_factory=dict)
    #: Set by the corpus loader when the arrays are memory-mapped views of a
    #: ``.wtrc`` file; the parallel engine's transport uses it to hand workers
    #: an ``(path, offset, length)`` descriptor instead of the data.  Slicing
    #: drops it (a slice no longer matches the file layout).
    mmap_path: Optional[Path] = field(default=None, compare=False, repr=False)
    #: ``(st_mtime_ns, st_size)`` of the mapped file at load time.  The
    #: transport compares it against the file's current stat before building
    #: an mmap descriptor: if the path was overwritten since the load, the
    #: trace's views still read the old inode, so shipping the path to
    #: workers would silently evaluate different data.
    mmap_stat: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.old) != len(self.new):
            raise TraceError("old and new batches must have the same length")
        if self.addresses is not None:
            self.addresses = np.asarray(self.addresses, dtype=np.uint64)
            if self.addresses.shape != (len(self.new),):
                raise TraceError("addresses must be a 1-D array aligned with the trace")

    def __len__(self) -> int:
        return len(self.new)

    def __getitem__(self, index: Union[int, slice]) -> "WriteTrace":
        if isinstance(index, int):
            index = slice(index, index + 1)
        addresses = self.addresses[index] if self.addresses is not None else None
        return WriteTrace(
            old=self.old[index],
            new=self.new[index],
            addresses=addresses,
            name=self.name,
            metadata=dict(self.metadata),
        )

    def chunks(self, chunk_size: int) -> Iterator["WriteTrace"]:
        """Iterate over the trace in chunks of at most ``chunk_size`` requests."""
        if chunk_size <= 0:
            raise TraceError("chunk_size must be positive")
        for start in range(0, len(self), chunk_size):
            yield self[start:start + chunk_size]

    @classmethod
    def concat(
        cls,
        traces: Sequence["WriteTrace"],
        name: Optional[str] = None,
        metadata: Optional[Dict[str, str]] = None,
    ) -> "WriteTrace":
        """Concatenate consecutive traces/chunks into one trace.

        Addresses are kept only when every part carries them.  ``name`` and
        ``metadata`` default to the first part's.
        """
        traces = list(traces)
        if not traces:
            return cls(old=LineBatch.zeros(0), new=LineBatch.zeros(0), name=name or "trace")
        if len(traces) == 1:
            first = traces[0]
            return cls(
                old=first.old,
                new=first.new,
                addresses=first.addresses,
                name=name or first.name,
                metadata=dict(metadata if metadata is not None else first.metadata),
            )
        addresses = None
        if all(t.addresses is not None for t in traces):
            addresses = np.concatenate([t.addresses for t in traces])
        return cls(
            old=LineBatch(np.concatenate([t.old.words for t in traces])),
            new=LineBatch(np.concatenate([t.new.words for t in traces])),
            addresses=addresses,
            name=name or traces[0].name,
            metadata=dict(metadata if metadata is not None else traces[0].metadata),
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Save the trace and return the path actually written.

        ``.wtrc`` selects the raw corpus format (header + little-endian
        ``uint64`` arrays, memory-mappable; see :mod:`repro.traces.store`);
        anything else is saved as a compressed ``.npz`` archive -- numpy
        appends the ``.npz`` suffix when missing, and the returned path
        reflects that.
        """
        path = Path(path)
        if path.suffix == ".wtrc":
            from ..traces.store import save_trace

            return save_trace(self, path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        payload = {
            "old": self.old.words,
            "new": self.new.words,
            "name": np.array(self.name),
        }
        if self.addresses is not None:
            payload["addresses"] = self.addresses
        for key, value in self.metadata.items():
            payload[f"meta_{key}"] = np.array(str(value))
        np.savez_compressed(path, **payload)
        return path

    @classmethod
    def load(cls, path: Union[str, Path], mmap: bool = True) -> "WriteTrace":
        """Load a trace previously written by :meth:`save`.

        The format is sniffed from the file itself: raw ``.wtrc`` traces are
        memory-mapped (unless ``mmap=False``), ``.npz`` archives are
        decompressed into RAM as before.
        """
        path = Path(path)
        if not path.exists():
            raise TraceError(f"trace file not found: {path}")
        from ..traces.store import is_wtrc_file, load_trace

        if is_wtrc_file(path):
            return load_trace(path, mmap=mmap)
        try:
            archive = np.load(path, allow_pickle=False)
        except Exception as exc:  # zipfile/pickle/EOF errors for garbage input
            raise TraceError(f"{path} is not a write-trace file: {exc}") from exc
        if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare .npy array
            raise TraceError(f"{path} is not a write-trace file (expected .npz or .wtrc)")
        with archive as data:
            if "old" not in data or "new" not in data:
                raise TraceError(f"{path} is not a write-trace file")
            metadata = {
                key[len("meta_"):]: str(data[key])
                for key in data.files
                if key.startswith("meta_")
            }
            addresses = data["addresses"] if "addresses" in data.files else None
            return cls(
                old=LineBatch(data["old"]),
                new=LineBatch(data["new"]),
                addresses=addresses,
                name=str(data["name"]) if "name" in data.files else path.stem,
                metadata=metadata,
            )

    # ------------------------------------------------------------------ #
    # Convenience statistics
    # ------------------------------------------------------------------ #
    def changed_bit_fraction(self) -> float:
        """Average fraction of line bits that differ between old and new values.

        Computed in bounded-size chunks so it stays cheap on memory-mapped
        corpus traces (unpackbits over a whole 200M-line trace would
        materialise hundreds of gigabytes).
        """
        if len(self) == 0:
            return 0.0
        changed_bits = 0
        block = 1 << 16
        for start in range(0, len(self), block):
            stop = start + block
            diff = self.old.words[start:stop] ^ self.new.words[start:stop]
            changed_bits += int(np.unpackbits(diff.view(np.uint8), axis=-1).sum())
        return float(changed_bits) / (len(self) * 512)

    def symbol_histogram(self) -> np.ndarray:
        """Histogram (length 4) of the 2-bit symbols of the new data values."""
        symbols = self.new.symbols()
        return np.bincount(symbols.reshape(-1), minlength=4).astype(np.int64)


def rechunk_traces(
    pieces: Iterable[WriteTrace], chunk_size: int
) -> Iterator[WriteTrace]:
    """Re-slice a stream of trace pieces into exactly ``chunk_size``-line chunks.

    The pieces a producer emits (e.g. the synthesis quantum of the streaming
    ingest) rarely match the evaluation chunk size; this adapter restores the
    exact chunk boundaries the serial runner would use on the materialised
    trace, holding at most one producer piece plus one output chunk in memory.
    The final chunk may be shorter.
    """
    if chunk_size <= 0:
        raise TraceError("chunk_size must be positive")
    pending: List[WriteTrace] = []
    buffered = 0
    for piece in pieces:
        if len(piece) == 0:
            continue
        pending.append(piece)
        buffered += len(piece)
        while buffered >= chunk_size:
            merged = pending[0] if len(pending) == 1 else WriteTrace.concat(pending)
            yield merged[:chunk_size]
            rest = merged[chunk_size:]
            pending = [rest] if len(rest) else []
            buffered = len(rest)
    if pending:
        yield pending[0] if len(pending) == 1 else WriteTrace.concat(pending)
