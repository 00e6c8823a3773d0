"""The four benchmark workloads.

Every workload builds its inputs from the seed alone, leaves every program
knob (pool backend, super-batching, fused tiles, transport) at its default,
and runs in *rounds*: one round is one complete job, timed from trace build
to reduced results.  A round returns one digest per operation (a driver call,
an evaluated unit or an HTTP request), so a wrong result is pinned to the
operation that produced it.

Why these four (each stresses one set of layers and barely touches others):

* ``figures`` -- every paper driver once, fresh experiment cache: many small
  units, about a quarter of them duplicates, so dispatch and memoisation
  dominate.
* ``schemes-long`` -- the eight Figure-8 schemes on one HMI and one LMI trace
  several chunks long: few large units, no duplicates, so the coding and
  compression kernels do nearly all the work.
* ``serve-mixed`` -- a closed loop of clients against an in-process
  ``EvaluationService``: store misses, exact repeats that hit the store, and
  trace uploads followed by evaluate-by-digest.
* ``stream-ingest`` -- a seeded ramulator2 address trace converted with
  ``stream_ingest_to_wtrc`` and evaluated as an ``IngestChunkSource`` through
  the streaming dispatch path.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .layers import SCHEMES
from .spans import Patcher, SpanTable


def digest(value: Any) -> str:
    """SHA-256 of a JSON-serialisable value (floats by exact ``repr``)."""
    blob = json.dumps(value, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Round:
    """What one round produced."""

    wall_s: float
    #: Scheme-lines the round's drivers requested.
    lines: int
    #: Operation id -> digest of its output.
    ops: Dict[str, str]
    #: Operations whose output failed a check made inside the round.
    bad: Set[str] = field(default_factory=set)
    #: Workload-specific measurements (latencies, service counters).
    details: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """One workload: ``start`` a pool or server, ``prepare`` inputs, run rounds."""

    name = ""
    #: Schemes whose encoded lines the decode check samples.
    schemes: Sequence[str] = SCHEMES
    #: Whether the traced pass also runs a serial (``n_jobs=1``) round.
    batch = True

    def __init__(self, seed: int, workdir: Path, n_jobs: int):
        self.seed = seed
        self.workdir = workdir
        self.n_jobs = n_jobs

    def start(self) -> None:
        """Start the worker pool (or server) the rounds use."""
        from repro.evaluation.parallel import WorkUnit, shared_runner
        from repro.coding import make_scheme
        from repro.core.config import EvaluationConfig
        from repro.workloads.generator import generate_random_trace

        # Two 64-line chunks, so the runner dispatches to the pool and the
        # workers exist before the first timed round.
        trace = generate_random_trace(128, seed=0)
        unit = WorkUnit("warm-up", make_scheme("baseline"), trace, EvaluationConfig(chunk_size=64))
        shared_runner(self.n_jobs).run([unit])

    def stop(self) -> None:
        from repro.evaluation.parallel import shutdown_shared_runners

        shutdown_shared_runners()

    def prepare(self) -> None:
        """Generate the workload's inputs (part of set-up)."""

    def run_round(self, n_jobs: Optional[int] = None, spans: Optional[SpanTable] = None) -> Round:
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# figures
# ---------------------------------------------------------------------- #
def _drivers() -> List[Tuple[str, Callable]]:
    from repro import evaluation as ev

    return [
        ("figure1-random", lambda cfg: ev.figure1("random", cfg)),
        ("figure1-biased", lambda cfg: ev.figure1("biased", cfg)),
        ("figure2", ev.figure2),
        ("figure3", ev.figure3),
        ("figure4", ev.figure4),
        ("figure5", ev.figure5),
        ("figure8", ev.figure8),
        ("figure9", ev.figure9),
        ("figure10", ev.figure10),
        ("figure11", ev.figure11),
        ("figure12", ev.figure12),
        ("figure13", ev.figure13),
        ("figure14", ev.figure14),
        ("section8d", ev.section8d_multiobjective),
        ("table1", lambda cfg: ev.table1()),
    ]


class _RequestedLines:
    """Sums the trace lines of every unit handed to ``ParallelRunner.map``."""

    def __init__(self) -> None:
        self.lines = 0
        self._patcher = Patcher()

    def __enter__(self) -> "_RequestedLines":
        from repro.evaluation.parallel import ParallelRunner

        original = ParallelRunner.map

        def counted_map(runner, units):
            units = list(units)
            self.lines += sum(len(unit.trace) for unit in units)
            return original(runner, units)

        self._patcher.set(ParallelRunner, "map", counted_map)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()


class Figures(Workload):
    """Every paper driver once per round, fresh experiment cache."""

    name = "figures"
    TRACE_LENGTH = 100
    RANDOM_LINES = 200

    def config(self, n_jobs: int):
        from repro.evaluation import ExperimentConfig

        return ExperimentConfig(
            trace_length=self.TRACE_LENGTH,
            random_lines=self.RANDOM_LINES,
            seed=self.seed,
            n_jobs=n_jobs,
        )

    def run_round(self, n_jobs=None, spans=None) -> Round:
        from repro.evaluation import clear_cache

        config = self.config(self.n_jobs if n_jobs is None else n_jobs)
        clear_cache()
        outputs = {}
        with _RequestedLines() as requested:
            start = time.perf_counter()
            for name, driver in _drivers():
                # A driver's own code (unit building, table reduction) is the
                # evaluation layer's reduce step.
                with spans.span("evaluation.reduce") if spans else nullcontext():
                    outputs[name] = driver(config)
            wall = time.perf_counter() - start
        clear_cache()
        bad = set()
        average = outputs["figure8"]
        if not average["wlcrc-16"]["Ave."] < average["baseline"]["Ave."]:
            bad.add("figure8")
        return Round(
            wall_s=wall,
            lines=requested.lines,
            ops={name: digest(value) for name, value in outputs.items()},
            bad=bad,
        )


# ---------------------------------------------------------------------- #
# schemes-long
# ---------------------------------------------------------------------- #
class SchemesLong(Workload):
    """The eight Figure-8 schemes on one HMI and one LMI trace, several chunks long."""

    name = "schemes-long"
    PROFILES = ("gcc", "mcf")
    #: Three 2048-line evaluation chunks per unit.
    TRACE_LENGTH = 6144

    def run_round(self, n_jobs=None, spans=None) -> Round:
        from repro.coding import make_scheme
        from repro.core.config import EvaluationConfig
        from repro.evaluation.parallel import WorkUnit, shared_runner
        from repro.serve.results import metrics_to_payload
        from repro.workloads.generator import generate_benchmark_trace

        start = time.perf_counter()
        traces = {
            profile: generate_benchmark_trace(profile, self.TRACE_LENGTH, seed=self.seed)
            for profile in self.PROFILES
        }
        encoders = {scheme: make_scheme(scheme) for scheme in SCHEMES}
        units = [
            WorkUnit((scheme, profile), encoders[scheme], trace, EvaluationConfig())
            for scheme in SCHEMES
            for profile, trace in traces.items()
        ]
        reduced = shared_runner(self.n_jobs if n_jobs is None else n_jobs).run(units)
        wall = time.perf_counter() - start
        return Round(
            wall_s=wall,
            lines=self.TRACE_LENGTH * len(units),
            ops={
                f"{scheme}@{profile}": digest(metrics_to_payload(metrics))
                for (scheme, profile), metrics in reduced.items()
            },
        )


# ---------------------------------------------------------------------- #
# stream-ingest
# ---------------------------------------------------------------------- #
def ramulator_trace(seed: int, write_lines: int) -> Tuple[str, int]:
    """A seeded ramulator2 ``R|W 0xADDR 0xSIZE`` trace and its written line count.

    Segments alternate between the three access patterns of the ramulator2
    and tracehm trace generators: a sequential stream, random accesses of
    64/128/256 bytes, and a pointer chase over a shuffled cycle of lines.
    Reads are mixed in and dropped by ingest.  Every address is 64-byte
    aligned, so an access of ``size`` bytes writes exactly ``size // 64``
    lines.
    """
    rng = np.random.default_rng(seed)
    out: List[str] = []
    written = 0
    stream_addr = 0x10000000
    chase_nodes = 4096
    chase = rng.permutation(chase_nodes)
    chase_at = 0
    pattern = 0
    while written < write_lines:
        segment = int(rng.integers(64, 512))
        for _ in range(segment):
            if written >= write_lines:
                break
            if pattern == 0:
                address, size = stream_addr, 64
                stream_addr += 64
            elif pattern == 1:
                size = int(rng.choice((64, 128, 256), p=(0.7, 0.2, 0.1)))
                address = 0x40000000 + int(rng.integers(0, 1 << 20)) * 64
            else:
                chase_at = int(chase[chase_at])
                address, size = 0x80000000 + chase_at * 64, 64
            size = min(size, (write_lines - written) * 64)
            if rng.random() < 0.3:
                out.append(f"R 0x{address:X} 0x{size:X}")
            else:
                out.append(f"W 0x{address:X} 0x{size:X}")
                written += size // 64
        pattern = (pattern + 1) % 3
    return "\n".join(out) + "\n", written


class StreamIngest(Workload):
    """Convert a seeded ramulator2 trace and evaluate it as a streaming source."""

    name = "stream-ingest"
    WRITE_LINES = 24_000
    schemes = ("baseline", "din", "wlcrc-16")

    def prepare(self) -> None:
        text, self.written = ramulator_trace(self.seed, self.WRITE_LINES)
        self.source = self.workdir / "stream-ingest.trace"
        self.source.write_text(text)

    def run_round(self, n_jobs=None, spans=None) -> Round:
        from repro.coding import make_scheme
        from repro.core.config import EvaluationConfig
        from repro.evaluation.parallel import WorkUnit, shared_runner
        from repro.serve.results import metrics_to_payload
        from repro.traces import IngestChunkSource, read_trace_header, stream_ingest_to_wtrc

        converted = self.workdir / "stream-ingest.wtrc"
        start = time.perf_counter()
        stream_ingest_to_wtrc(self.source, converted, fmt="ramulator2")
        units = [
            WorkUnit(
                scheme,
                make_scheme(scheme),
                IngestChunkSource(self.source, fmt="ramulator2"),
                EvaluationConfig(),
            )
            for scheme in self.schemes
        ]
        reduced = shared_runner(self.n_jobs if n_jobs is None else n_jobs).run(units)
        wall = time.perf_counter() - start
        ops = {"convert": hashlib.sha256(converted.read_bytes()).hexdigest()}
        bad = set()
        if read_trace_header(converted).n_lines != self.written:
            bad.add("convert")
        converted.unlink()
        for scheme, metrics in reduced.items():
            ops[scheme] = digest(metrics_to_payload(metrics))
            if metrics.requests != self.written:
                bad.add(scheme)
        return Round(wall_s=wall, lines=self.written * len(units), ops=ops, bad=bad)


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #
@dataclass
class Request:
    """One planned HTTP request; ``after`` names the request it depends on."""

    kind: str  # "miss", "repeat", "upload" or "by-digest"
    scheme: str = ""
    spec: Optional[Dict[str, Any]] = None
    upload: int = -1
    after: Optional[int] = None


#: A request still unanswered after this long fails the run instead of hanging it.
REQUEST_TIMEOUT_S = 60.0

#: Schemes the evaluate-by-digest requests use (one per upload, dealt in turn).
UPLOAD_SCHEMES = ("wlcrc-16", "baseline", "coc+4cosets", "6cosets")


def serve_plan(seed: int, trace_length: int, uploads: int) -> Tuple[List[Request], List[Dict]]:
    """The seeded request mix and the upload specs.

    Every Figure-8 scheme misses once on an HMI and once on an LMI profile
    and is repeated twice after that; each upload is followed by an
    evaluate-by-digest request.  The seed shuffles which scheme meets which
    profile, the trace seeds and the order, but not the mix's composition, so
    every seed asks for the same amount of work.  The order is a random
    topological one: a repeat always follows its miss and a by-digest request
    its upload.
    """
    from repro.workloads.profiles import HMI_BENCHMARKS, LMI_BENCHMARKS

    rng = np.random.default_rng(seed)

    def spec(profile: str) -> Dict[str, Any]:
        return {"profile": profile, "length": trace_length, "seed": int(rng.integers(1 << 30))}

    def dealt(group: Sequence[str], count: int) -> List[str]:
        return [str(p) for p in rng.permutation([group[i % len(group)] for i in range(count)])]

    pool: List[Request] = []
    for group in (HMI_BENCHMARKS, LMI_BENCHMARKS):
        for scheme, profile in zip(SCHEMES, dealt(group, len(SCHEMES))):
            pool.append(Request("miss", scheme, spec(profile)))
    upload_specs = [spec(profile) for profile in dealt(HMI_BENCHMARKS + LMI_BENCHMARKS, uploads)]
    digest_schemes = dealt(UPLOAD_SCHEMES, uploads)
    # Dependents refer to their prerequisite by position in ``pool`` first.
    for index in range(len(pool)):
        for _ in range(2):
            pool.append(Request("repeat", pool[index].scheme, pool[index].spec, after=index))
    for number in range(uploads):
        pool.append(Request("upload", upload=number))
        pool.append(Request("by-digest", digest_schemes[number], upload=number, after=len(pool) - 1))
    placed: List[int] = []
    position: Dict[int, int] = {}
    waiting = list(range(len(pool)))
    while waiting:
        ready = [i for i in waiting if pool[i].after is None or pool[i].after in position]
        pick = ready[int(rng.integers(len(ready)))]
        waiting.remove(pick)
        position[pick] = len(placed)
        placed.append(pick)
    plan = []
    for index in placed:
        request = pool[index]
        after = None if request.after is None else position[request.after]
        plan.append(Request(request.kind, request.scheme, request.spec, request.upload, after))
    return plan, upload_specs


class _Server:
    """An ``EvaluationService`` on an ephemeral port, in its own event-loop thread."""

    def __init__(self, store) -> None:
        from repro.serve.service import EvaluationService

        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="serve-loop")
        self.thread.start()
        self.service = EvaluationService(store)
        self._call(self.service.start("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.service.port}"

    def _call(self, coroutine, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout)

    def close(self) -> None:
        try:
            self._call(self.service.stop())
            self._call(self.loop.shutdown_default_executor())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(60)
            self.loop.close()


class ServeMixed(Workload):
    """A closed loop of clients against an in-process ``EvaluationService``."""

    name = "serve-mixed"
    batch = False
    TRACE_LENGTH = 1500
    UPLOADS = 4

    def __init__(self, seed, workdir, n_jobs):
        super().__init__(seed, workdir, n_jobs)
        self.server: Optional[_Server] = None
        self.rounds = 0

    def _store(self):
        from repro.serve.results import ResultStore

        self.rounds += 1
        return ResultStore(self.workdir / f"store-{self.rounds}")

    def start(self) -> None:
        self.server = _Server(self._store())

    def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            shutil.rmtree(self.server.service.store.root, ignore_errors=True)
            self.server = None

    def prepare(self) -> None:
        from repro.serve.results import trace_content_digest
        from repro.serve.service import save_upload_body
        from repro.workloads.generator import generate_benchmark_trace

        self.plan, specs = serve_plan(self.seed, self.TRACE_LENGTH, self.UPLOADS)
        traces = [generate_benchmark_trace(s["profile"], s["length"], seed=s["seed"]) for s in specs]
        self.upload_bodies = [save_upload_body(trace) for trace in traces]
        self.upload_digests = [trace_content_digest(trace) for trace in traces]

    def run_round(self, n_jobs=None, spans=None) -> Round:
        from repro.serve.service import submit_request

        assert self.server is not None
        service = self.server.service
        old_root = service.store.root
        service.store = self._store()
        shutil.rmtree(old_root, ignore_errors=True)
        counters_before = (service.rejected, service.expired, service.evaluations)

        plan = self.plan
        done = [threading.Event() for _ in plan]
        results: List[Optional[Tuple[int, Dict, float]]] = [None] * len(plan)
        next_index = [0]
        lock = threading.Lock()
        url = self.server.url

        def client() -> None:
            while True:
                with lock:
                    index = next_index[0]
                    next_index[0] += 1
                if index >= len(plan):
                    return
                request = plan[index]
                try:
                    if request.after is not None:
                        done[request.after].wait(REQUEST_TIMEOUT_S)
                    if request.kind == "upload":
                        sent = time.perf_counter()
                        status, body = submit_request(
                            url,
                            "/traces",
                            body=self.upload_bodies[request.upload],
                            timeout=REQUEST_TIMEOUT_S,
                        )
                    else:
                        if request.kind == "by-digest":
                            upload = results[request.after]
                            trace = {"digest": upload[1].get("digest") if upload else None}
                        else:
                            trace = request.spec
                        sent = time.perf_counter()
                        status, body = submit_request(
                            url,
                            "/evaluate",
                            payload={"scheme": request.scheme, "trace": trace},
                            timeout=REQUEST_TIMEOUT_S,
                        )
                    results[index] = (status, body, time.perf_counter() - sent)
                finally:
                    done[index].set()

        start = time.perf_counter()
        clients = [threading.Thread(target=client) for _ in range(self.n_jobs)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        wall = time.perf_counter() - start

        ops: Dict[str, str] = {}
        bad: Set[str] = set()
        latency: Dict[str, List[float]] = {"hit": [], "miss": [], "upload": [], "all": []}
        pre_eval: List[float] = []
        lines = 0
        for index, (request, result) in enumerate(zip(plan, results)):
            op = f"{index:03d}-{request.kind}"
            if result is None:
                bad.add(op)
                ops[op] = "missing"
                continue
            status, body, seconds = result
            answer = {k: v for k, v in body.items() if k != "elapsed_s"}
            ops[op] = digest([status, answer])
            latency["all"].append(seconds)
            if status != 200:
                bad.add(op)
                continue
            if request.kind == "upload":
                latency["upload"].append(seconds)
                if body.get("digest") != self.upload_digests[request.upload]:
                    bad.add(op)
                continue
            lines += int(body.get("requests", 0))
            pre_eval.append(seconds - float(body.get("elapsed_s", 0.0)))
            if request.kind == "repeat":
                # A hit must be byte-identical to its miss, apart from the
                # cache flag and the server-side timing.
                latency["hit"].append(seconds)
                original = results[request.after]
                first = original[1] if original else {}
                same = json.dumps(
                    {k: v for k, v in first.items() if k not in ("elapsed_s", "cached")},
                    sort_keys=True,
                ) == json.dumps({k: v for k, v in answer.items() if k != "cached"}, sort_keys=True)
                if not body.get("cached") or not same:
                    bad.add(op)
            else:
                latency["miss"].append(seconds)
                if body.get("cached"):
                    bad.add(op)
        evaluate_requests = sum(1 for request in plan if request.kind != "upload")
        rejected, expired, evaluations = counters_before
        details = {
            "latency": latency,
            "pre_eval": pre_eval,
            "requests": len(plan),
            "repeat_share": sum(r.kind == "repeat" for r in plan) / evaluate_requests,
            "rejected": service.rejected - rejected,
            "expired": service.expired - expired,
            # The round's store is fresh, so its hits are this round's.
            "coalesced": evaluate_requests
            - (service.evaluations - evaluations)
            - service.store.hits,
        }
        return Round(wall_s=wall, lines=lines, ops=ops, bad=bad, details=details)


WORKLOADS = {cls.name: cls for cls in (Figures, SchemesLong, ServeMixed, StreamIngest)}
