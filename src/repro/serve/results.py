"""Content-addressed result store: the memoisation layer behind ``repro serve``.

:class:`TraceCorpus` (PR 2) content-addresses *traces*; this module extends
the same idea to evaluation *results*.  A :class:`ResultStore` maps a
canonical digest of

``(trace content hash, scheme + its parameters, output-affecting
EvaluationConfig fields, GENERATOR_VERSION)``

to the eight raw accumulator fields of a
:class:`~repro.core.metrics.WriteMetrics`.  Identical evaluation requests --
the common case in CI's sharded bench matrix and in repeated figure runs --
become one JSON read instead of a full encode pass.

Cache-key semantics (see ``docs/serving.md`` for the rationale):

* the **trace** participates through a SHA-256 over its old/new line words
  (addresses, name and metadata are excluded: the evaluation metrics depend
  on line contents only);
* the **scheme** participates through its name *plus* its
  :class:`~repro.core.energy.EnergyModel` -- ``encoder.name`` alone is not
  unique (the figure-14 sensitivity sweep evaluates one scheme name under
  many energy models) -- and the :class:`~repro.core.disturbance
  .DisturbanceModel` rates;
* of :class:`~repro.core.config.EvaluationConfig`, only ``chunk_size`` and
  ``sample_disturbance`` always participate.  ``seed`` and the unit index
  join the key only when ``sample_disturbance`` is on (the deterministic
  expected-value path never draws from the RNG streams).  ``n_jobs``, pool
  backend, array backend, super-batching, fused tiling, transport and trace
  cache budgets are deliberately *excluded*: the engine proves results
  bit-identical across all of them, so entries written under one
  parallelisation serve every other;
* :data:`~repro.workloads.generator.GENERATOR_VERSION` folds in so that a
  generator change -- which redefines what a ``(profile, length, seed)``
  request means -- cannot resurrect stale results even for callers that
  address traces by specification rather than by content.

On-disk layout mirrors the trace corpus: ``index.json`` plus one
``results/<digest>.json`` record per entry, written with the same
flock-serialised read-modify-write and unique-temp-then-``os.replace``
atomicity, so concurrent CI shards can share one store directory.  Floats
round-trip through JSON via ``repr`` exactly, which is what makes store hits
*bit*-identical to fresh computation, not merely close.

:class:`MemoryResultStore` is the same store without the disk: one dict per
process, keyed by the same digest.  The experiment drivers bind it whenever
no ``--results-dir`` is given, so work units shared between figures are
evaluated once per run.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..coding.base import WriteEncoder
from ..core.config import EvaluationConfig
from ..core.disturbance import DEFAULT_DISTURBANCE_MODEL, DisturbanceModel
from ..core.errors import ReproError
from ..core.metrics import WriteMetrics
from ..faults import corrupt_file as _corrupt_file
from ..faults import take as _take_fault
from ..obs import count
from ..traces.store import _atomic_write
from ..workloads.trace import WriteTrace

logger = logging.getLogger(__name__)

try:  # POSIX advisory locking for concurrent store writers (CI shards)
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    _fcntl = None

#: Version of the key derivation *and* the record layout.  Bump on any change
#: to either; old entries then miss instead of being misread.
RESULT_STORE_VERSION = 1

#: Name of the store index file.
RESULT_INDEX_NAME = "index.json"

#: Lines hashed per block when digesting a (possibly memory-mapped) trace,
#: so multi-GB corpus traces digest without materialising in RAM.
_DIGEST_BLOCK_LINES = 1 << 16


class ResultStoreError(ReproError):
    """A result-store record or index is unusable."""


# ---------------------------------------------------------------------- #
# Key derivation
# ---------------------------------------------------------------------- #
def trace_content_digest(trace: WriteTrace) -> str:
    """SHA-256 over the trace's old/new line words.

    Addresses, the trace name and metadata are excluded on purpose: the
    evaluation metrics are a pure function of line contents, so traces that
    differ only in labelling share results.  The digest is memoised on the
    trace instance -- slicing produces a new instance, which is exactly when
    the content changes.
    """
    cached = getattr(trace, "_content_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(b"wtrc-content-v1")
    digest.update(len(trace).to_bytes(8, "little"))
    for words in (trace.old.words, trace.new.words):
        for start in range(0, len(words), _DIGEST_BLOCK_LINES):
            block = words[start : start + _DIGEST_BLOCK_LINES]
            digest.update(block.astype("<u8", copy=False).tobytes())
    value = digest.hexdigest()
    trace._content_digest = value  # memoised; WriteTrace is not frozen
    return value


def scheme_cache_key(encoder: WriteEncoder) -> Dict[str, Any]:
    """The scheme's contribution to the result key.

    ``encoder.name`` is canonical for every registry scheme (it already
    encodes granularity, coset counts and the endurance threshold), but it
    does *not* encode the energy model -- the figure-14 sensitivity sweep
    evaluates the same name under several -- so the model's pJ figures ride
    along explicitly.
    """
    key: Dict[str, Any] = {"scheme": encoder.name}
    model = getattr(encoder, "energy_model", None)
    if model is not None:
        key["energy"] = [model.reset_energy_pj, *model.set_energy_pj]
    return key


def result_cache_key(
    encoder: WriteEncoder,
    trace: WriteTrace,
    config: EvaluationConfig,
    disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
    unit_index: int = 0,
) -> "ResultKey":
    """Canonical key of one ``(scheme, trace, config)`` evaluation.

    Only output-affecting inputs participate -- see the module docstring for
    the full inclusion/exclusion rationale.
    """
    from ..workloads.generator import GENERATOR_VERSION

    payload: Dict[str, Any] = {
        "store_version": RESULT_STORE_VERSION,
        "generator_version": GENERATOR_VERSION,
        "trace": trace_content_digest(trace),
        "scheme": scheme_cache_key(encoder),
        "disturbance": list(disturbance_model.rates),
        "chunk_size": int(config.chunk_size),
        "sample_disturbance": bool(config.sample_disturbance),
    }
    if config.sample_disturbance:
        # Sampled error counts draw from SeedSequence streams spawned from
        # (seed, unit_index, chunk_index); both therefore shape the output.
        payload["seed"] = int(config.seed)
        payload["unit_index"] = int(unit_index)
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return ResultKey(hashlib.sha256(blob).hexdigest(), payload)


def unit_cache_key(unit: Any, unit_index: int = 0) -> Optional["ResultKey"]:
    """The key of a :class:`~repro.evaluation.parallel.WorkUnit`.

    Streaming units (a :class:`~repro.workloads.trace.ChunkSource` instead
    of a materialised trace) return ``None``: hashing them would require a
    full extra pass over a possibly larger-than-RAM stream, so they always
    evaluate fresh.
    """
    if not isinstance(unit.trace, WriteTrace):
        return None
    return result_cache_key(
        unit.encoder, unit.trace, unit.config, unit.disturbance_model, unit_index
    )


@dataclass(frozen=True)
class ResultKey:
    """A derived store key: the digest plus the payload it hashes.

    The payload is persisted inside the record for debuggability (``repro``'s
    answer to "why did this miss?") and verified on read, so a hash collision
    or a hand-edited record cannot silently serve the wrong metrics.
    """

    digest: str
    payload: Dict[str, Any]


# ---------------------------------------------------------------------- #
# Metrics (de)serialisation
# ---------------------------------------------------------------------- #
_METRIC_FIELDS = (
    "requests",
    "data_energy_pj",
    "aux_energy_pj",
    "updated_data_cells",
    "updated_aux_cells",
    "disturbance_errors",
    "compressed_lines",
    "encoded_lines",
)
_INT_METRIC_FIELDS = {"requests", "compressed_lines", "encoded_lines"}


def metrics_to_payload(metrics: WriteMetrics) -> Dict[str, Union[int, float]]:
    """The eight raw accumulator fields, JSON-serialisable and exact."""
    return {name: getattr(metrics, name) for name in _METRIC_FIELDS}


def metrics_from_payload(payload: Dict[str, Any]) -> WriteMetrics:
    """Rebuild a :class:`WriteMetrics` bit-identically from its payload."""
    kwargs: Dict[str, Union[int, float]] = {}
    for name in _METRIC_FIELDS:
        if name not in payload:
            raise ResultStoreError(f"result record missing metric field {name!r}")
        value = payload[name]
        kwargs[name] = int(value) if name in _INT_METRIC_FIELDS else float(value)
    return WriteMetrics(**kwargs)


# ---------------------------------------------------------------------- #
# The store
# ---------------------------------------------------------------------- #
class ResultStore:
    """A directory of memoised evaluation results.

    Layout::

        <root>/index.json              digest -> record file, sizes, labels
        <root>/results/<digest>.json   {"key": ..., "metrics": ...}

    :meth:`get` is lock-free (one file read keyed directly by digest);
    :meth:`put` and :meth:`gc` serialise index updates behind an flock, so
    any number of processes -- CI shards, a long-lived ``repro serve``, ad
    hoc CLI runs -- can share one store.  ``max_bytes`` turns on LRU
    eviction after every write; recency is ``max(atime, mtime)``, with
    :meth:`get` advancing the atime on each hit.
    """

    def __init__(self, root: Union[str, Path], max_bytes: Optional[int] = None):
        self.root = Path(root)
        if max_bytes is not None and max_bytes < 0:
            raise ResultStoreError("max_bytes must be non-negative")
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.corrupted = 0

    # ------------------------------------------------------------------ #
    # Paths and locking
    # ------------------------------------------------------------------ #
    @property
    def index_path(self) -> Path:
        return self.root / RESULT_INDEX_NAME

    def results_dir(self) -> Path:
        return self.root / "results"

    def corrupt_dir(self) -> Path:
        """Where quarantined (unparseable) records are moved for diagnosis."""
        return self.root / "corrupt"

    def _record_path(self, digest: str) -> Path:
        return self.results_dir() / f"{digest}.json"

    def _quarantine(self, digest: str, path: Path, reason: str) -> None:
        """Move an unparseable record aside and drop it from the index.

        Counts as a miss (the caller re-evaluates and rewrites the entry),
        but unlike a plain miss the event is loud -- ``result_store_corrupt``
        counter, warning log -- and the damaged bytes are preserved under
        :meth:`corrupt_dir` instead of being re-read (and re-failed) on
        every subsequent request.
        """
        target = self.corrupt_dir() / path.name
        try:
            self.corrupt_dir().mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced with gc/another reader
            with contextlib.suppress(OSError):
                path.unlink()
        logger.warning(
            "quarantined corrupt result record %s -> %s (%s)", path, target, reason
        )
        self.corrupted += 1
        self.misses += 1
        count("result_store_corrupt")
        count("result_store", result="miss")
        with self._index_lock():
            entries = self._read_index()
            if entries.pop(digest, None) is not None:
                self._write_index(entries)

    @contextlib.contextmanager
    def _index_lock(self):
        """Exclusive advisory lock serialising index read-modify-write."""
        if _fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / ".index.lock", "w") as lock:
            _fcntl.flock(lock, _fcntl.LOCK_EX)
            try:
                yield
            finally:
                _fcntl.flock(lock, _fcntl.LOCK_UN)

    def _read_index(self) -> Dict[str, Dict[str, Any]]:
        if not self.index_path.exists():
            return {}
        try:
            raw = json.loads(self.index_path.read_text())
        except json.JSONDecodeError as exc:
            raise ResultStoreError(
                f"corrupt result-store index {self.index_path}: {exc}"
            ) from exc
        return dict(raw.get("results", {}))

    def _write_index(self, entries: Dict[str, Dict[str, Any]]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            self.index_path,
            "w",
            lambda fh: json.dump(
                {"version": RESULT_STORE_VERSION, "results": entries},
                fh,
                indent=2,
                sort_keys=True,
            ),
        )

    # ------------------------------------------------------------------ #
    # Key helpers
    # ------------------------------------------------------------------ #
    def key_for(
        self,
        encoder: WriteEncoder,
        trace: WriteTrace,
        config: EvaluationConfig,
        disturbance_model: DisturbanceModel = DEFAULT_DISTURBANCE_MODEL,
        unit_index: int = 0,
    ) -> ResultKey:
        return result_cache_key(encoder, trace, config, disturbance_model, unit_index)

    def unit_key(self, unit: Any, unit_index: int = 0) -> Optional[ResultKey]:
        """The key of a work unit (``None`` for streaming units), see
        :func:`unit_cache_key`."""
        return unit_cache_key(unit, unit_index)

    # ------------------------------------------------------------------ #
    # get / put / gc
    # ------------------------------------------------------------------ #
    def get(self, key: ResultKey) -> Optional[WriteMetrics]:
        """The memoised metrics for ``key``, or ``None`` on a miss.

        A hit advances the record's atime (the LRU recency signal) and
        verifies the stored key payload against the requested one, so a
        digest collision serves a miss rather than wrong numbers.  A record
        that exists but cannot be parsed is *quarantined* -- moved to
        ``<root>/corrupt/`` and dropped from the index, with a
        ``result_store_corrupt`` counter and a logged warning -- instead of
        silently missing forever: the next evaluation rewrites the entry,
        and the damaged bytes stay on disk for diagnosis.
        """
        path = self._record_path(key.digest)
        action = _take_fault("get")
        if action is not None and action.kind == "store-corrupt":
            _corrupt_file(path)
        try:
            record = json.loads(path.read_text())
        except OSError:
            self.misses += 1
            count("result_store", result="miss")
            return None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._quarantine(key.digest, path, f"invalid JSON: {exc}")
            return None
        if record.get("key") != key.payload:
            # A different key's record under this digest: a collision (or a
            # hand-edited payload), not corruption -- serve a plain miss.
            self.misses += 1
            count("result_store", result="miss")
            return None
        try:
            metrics = metrics_from_payload(record.get("metrics", {}))
        except ResultStoreError as exc:
            self._quarantine(key.digest, path, str(exc))
            return None
        try:
            stat = path.stat()
            os.utime(path, ns=(max(stat.st_atime_ns, stat.st_mtime_ns), stat.st_mtime_ns))
        except OSError:  # pragma: no cover - raced with concurrent gc
            pass
        self.hits += 1
        count("result_store", result="hit")
        return metrics

    def put(self, key: ResultKey, metrics: WriteMetrics) -> Path:
        """Persist ``metrics`` under ``key``; returns the record path.

        Idempotent: concurrent writers of the same key race benignly (both
        write identical bytes; whichever ``os.replace`` lands last wins).
        """
        path = self._record_path(key.digest)
        self.results_dir().mkdir(parents=True, exist_ok=True)
        record = {
            "version": RESULT_STORE_VERSION,
            "key": key.payload,
            "metrics": metrics_to_payload(metrics),
        }
        _atomic_write(
            path, "w", lambda fh: json.dump(record, fh, indent=2, sort_keys=True)
        )
        action = _take_fault("put")
        if action is not None and action.kind == "store-corrupt":
            _corrupt_file(path)
        entry = {
            "file": str(path.relative_to(self.root)),
            "bytes": path.stat().st_size,
            "scheme": key.payload["scheme"]["scheme"],
            "trace": key.payload["trace"],
        }
        with self._index_lock():
            entries = self._read_index()
            entries[key.digest] = entry
            self._write_index(entries)
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        return path

    def gc(
        self, max_bytes: Optional[int] = None, dry_run: bool = False
    ) -> Dict[str, Any]:
        """Evict least-recently-used records until the store fits.

        Same contract as :meth:`TraceCorpus.gc`: recency is
        ``max(atime, mtime)`` (hits touch the atime), eviction is oldest
        first, and the returned report carries ``budget_bytes``, ``removed``
        (digests, oldest first), ``freed_bytes``, ``kept_bytes`` and
        ``dry_run``.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            raise ResultStoreError(
                "result-store gc needs a byte budget (constructor max_bytes "
                "or the max_bytes argument)"
            )
        if budget < 0:
            raise ResultStoreError("gc max_bytes must be non-negative")
        with self._index_lock():
            files = []
            if self.results_dir().is_dir():
                for path in self.results_dir().glob("*.json"):
                    try:
                        stat = path.stat()
                    except OSError:  # raced with a concurrent eviction
                        continue
                    recency = max(stat.st_atime_ns, stat.st_mtime_ns)
                    files.append((recency, path.stem, path, stat.st_size))
            files.sort()
            total = sum(size for _, _, _, size in files)
            removed: List[str] = []
            freed = 0
            for _, digest, path, size in files:
                if total <= budget:
                    break
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:  # pragma: no cover - concurrent eviction
                        continue
                removed.append(digest)
                total -= size
                freed += size
            if not dry_run and removed:
                entries = self._read_index()
                kept = {
                    digest: entry
                    for digest, entry in entries.items()
                    if digest not in removed
                }
                if kept != entries:
                    self._write_index(kept)
        return {
            "budget_bytes": int(budget),
            "removed": removed,
            "freed_bytes": int(freed),
            "kept_bytes": int(total),
            "dry_run": bool(dry_run),
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if not self.results_dir().is_dir():
            return 0
        return sum(1 for _ in self.results_dir().glob("*.json"))

    def stats(self) -> Dict[str, int]:
        """Hit/miss/corruption counters of this store instance (process-local)."""
        return {"hits": self.hits, "misses": self.misses, "corrupted": self.corrupted}


class MemoryResultStore:
    """An in-process result store: the experiment drivers' unit memo.

    Speaks the protocol :meth:`~repro.evaluation.parallel.ParallelRunner
    .map` uses (``unit_key`` / ``get`` / ``put`` / ``hits`` / ``misses``)
    and derives keys with the same :func:`result_cache_key`, so a digest
    here names exactly the evaluation a :class:`ResultStore` record would.
    Entries are :class:`WriteMetrics` held in a dict keyed by digest; both
    :meth:`put` and :meth:`get` copy, so a caller mutating a returned
    object (``WriteMetrics.merge`` accumulates in place) cannot poison a
    later hit.  Hits return the accumulators a miss computed, so they are
    bit-identical to fresh computation without any serialisation.

    The ``get``/``put`` fault sites are *not* consulted: they model on-disk
    corruption, and leaving them to :class:`ResultStore` keeps every
    ``--inject-faults`` plan firing at the same operations.  Lookups count
    ``result_store{result=hit|miss,tier=memory}``.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, WriteMetrics] = {}
        self.hits = 0
        self.misses = 0

    def unit_key(self, unit: Any, unit_index: int = 0) -> Optional[ResultKey]:
        return unit_cache_key(unit, unit_index)

    def get(self, key: ResultKey) -> Optional[WriteMetrics]:
        metrics = self._entries.get(key.digest)
        if metrics is None:
            self.misses += 1
            count("result_store", result="miss", tier="memory")
            return None
        self.hits += 1
        count("result_store", result="hit", tier="memory")
        return copy.copy(metrics)

    def put(self, key: ResultKey, metrics: WriteMetrics) -> None:
        self._entries[key.digest] = copy.copy(metrics)

    def __len__(self) -> int:
        return len(self._entries)
