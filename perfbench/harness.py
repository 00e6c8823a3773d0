"""Set-up, timed rounds, the traced pass, output checks and the result line."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from .jobs import WORKLOADS, Round, Workload
from .layers import SCHEMES, Trace, instrument, scheme_metric
from .machine import fingerprint, peak_rss_mb

#: Seed the stored reference digests were recorded at.
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
REFERENCE_PATH = Path(__file__).with_name("reference.json")

END_TO_END = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.gen_s": "s",
    "workloads.lines_generated": "count",
    "traces.export_s": "s",
    "traces.exports": "count",
    "traces.ingest_s": "s",
    "traces.ingest_lines_per_s": "lines/s",
    "traces.load_s": "s",
    "traces.upload_ms": "ms",
    "traces.shm_close_errors": "count",
    "compression.compress_s": "s",
    "compression.lines": "count",
    "compression.compressed_share": "ratio",
    "coding.encode_s": "s",
    "coding.lines_encoded": "count",
    "coding.candidate_cost_s": "s",
    "coding.selection_s": "s",
    "coding.unattributed_s": "s",
    "coding.construct_s": "s",
    **{scheme_metric(scheme): "lines/s" for scheme in SCHEMES},
    "evaluation.dispatch_s": "s",
    "evaluation.parallel_efficiency": "ratio",
    "evaluation.units": "count",
    "evaluation.duplicate_unit_share": "ratio",
    "evaluation.metrics_s": "s",
    "evaluation.reduce_s": "s",
    "evaluation.pool_start_s": "s",
    "evaluation.pool_rebuilds": "count",
    "evaluation.tasks_retried": "count",
    "serve.req_per_s": "1/s",
    "serve.hit_p50_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.latency_p90_ms": "ms",
    "serve.store_get_s": "s",
    "serve.store_put_s": "s",
    "serve.hit_ratio": "ratio",
    "serve.repeat_share": "ratio",
    "serve.pre_eval_ms": "ms",
    "serve.coalesced": "count",
    "serve.rejected": "count",
    "serve.expired": "count",
    "trace.attributed_share": "ratio",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #
def failing_ops(
    ops: Mapping[str, str],
    bad: Set[str],
    first: Mapping[str, str],
    reference: Optional[Mapping[str, str]],
) -> List[str]:
    """Operations of a round whose output is wrong.

    Wrong means: a check inside the round failed, the digest differs from the
    run's first round, or (at the default seed) from the stored reference.
    An operation the expected set has but the round lacks is wrong too.
    """
    expected = set(first) | set(reference or ())
    failing = []
    for op in sorted(expected | set(ops)):
        digest = ops.get(op)
        if (
            digest is None
            or op in bad
            or first.get(op) != digest
            or (reference is not None and reference.get(op) != digest)
        ):
            failing.append(op)
    return failing


class Checker:
    """Counts attempted and failed operations over every round of a run."""

    def __init__(self, reference: Optional[Mapping[str, str]]):
        self.reference = reference
        self.first: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, result: Round) -> Round:
        if self.first is None:
            self.first = dict(result.ops)
        failing = failing_ops(result.ops, result.bad, self.first, self.reference)
        self.attempted += max(len(result.ops), len(self.first))
        self.failed += len(failing)
        self.failures.extend(failing)
        return result

    def count(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def decode_check(schemes: Sequence[str], seed: int, checker: Checker) -> None:
    """A seeded sample of encoded lines must decode back to the written data."""
    from repro.coding import make_scheme
    from repro.workloads.generator import generate_benchmark_trace
    from repro.workloads.profiles import ALL_BENCHMARKS

    rng = np.random.default_rng(seed)
    for scheme in schemes:
        trace = generate_benchmark_trace(str(rng.choice(ALL_BENCHMARKS)), 512, seed=seed)
        start = int(rng.integers(0, 512 - 64))
        sample = trace[start : start + 64]
        encoder = make_scheme(scheme)
        encoded = encoder.encode_batch(sample.new, sample.old)
        decoded = encoder.decode_states(encoded.states)
        checker.count(f"decode:{scheme}", np.array_equal(decoded.words, sample.new.words))


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if seed != DEFAULT_SEED or not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #
class ShmCloseErrors:
    """Counts the ``BufferError`` reports of ``SharedMemory.__del__``.

    Most of them come from pool workers, whose memory the benchmark cannot
    read, so standard error itself (inherited by every worker) is routed
    through a pipe: each line is counted and passed on unchanged, so nothing
    is suppressed.
    """

    REPORT = b"BufferError: cannot close exported pointers exist"

    def __init__(self) -> None:
        self.count = 0
        self._saved = -1
        self._pump: Optional[threading.Thread] = None

    def _forward(self, read_end: int) -> None:
        with os.fdopen(read_end, "rb") as source:
            for line in source:
                if line.startswith(self.REPORT):
                    self.count += 1
                os.write(self._saved, line)

    def __enter__(self) -> "ShmCloseErrors":
        sys.stderr.flush()
        self._saved = os.dup(2)
        read_end, write_end = os.pipe()
        os.dup2(write_end, 2)
        os.close(write_end)
        self._pump = threading.Thread(target=self._forward, args=(read_end,), daemon=True)
        self._pump.start()
        return self

    def __exit__(self, *exc) -> None:
        # Every process holding the pipe has ended by now (pool shut down,
        # resource tracker stopped), so restoring fd 2 closes the last
        # writer and the pump drains to end of file.
        sys.stderr.flush()
        os.dup2(self._saved, 2)
        self._pump.join(30)
        os.close(self._saved)


def stop_resource_tracker() -> None:
    """End the helper process shared memory made ``multiprocessing`` start.

    The tracker otherwise outlives the run by a moment; stopping it here
    waits for it and lets it unlink any segment the program leaked (it
    names them on standard error).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def import_seconds(root: Path) -> float:
    """Time to import the program in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
        "import repro.evaluation, repro.serve, repro.traces; "
        "print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(root / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], percent: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[percent - 1])


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    workload: Workload,
    untraced: Round,
    traced: Round,
    spans: Trace,
    parallel: Optional[Round],
    parallel_spans: Optional[Trace],
    pool_start_s: float,
    encoder_names: Mapping[str, str],
) -> Dict[str, float]:
    """Per-layer metrics of one traced set (busy times from ``spans``).

    ``encoder_names`` maps each Figure-8 scheme to the name its encoder
    reports (``fnw`` encodes as ``fnw-128``).
    """
    table = spans.table
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(spans.layer_self_times())
    values["workloads.lines_generated"] = table.counters["workloads.lines"]
    values["traces.ingest_lines_per_s"] = _share(
        table.counters["traces.ingest_lines"], values["traces.ingest_s"]
    )
    values["compression.lines"] = table.counters["compression.lines"]
    values["compression.compressed_share"] = _share(
        table.counters["coding.compressed_lines"], table.counters["coding.lines"]
    )
    values["coding.encode_s"] = table.outer_total["coding.encode"]
    values["coding.lines_encoded"] = spans.counter("lines_encoded")
    for scheme in SCHEMES:
        name = encoder_names[scheme]
        values[scheme_metric(scheme)] = _share(
            spans.counter("lines_encoded", scheme=name), table.counters["coding.time." + name]
        )
    values["evaluation.units"] = spans.ledger.units
    values["evaluation.duplicate_unit_share"] = _share(spans.ledger.duplicates, spans.ledger.units)
    values["trace.attributed_share"] = table.total_self() / traced.wall_s
    values["trace.overhead"] = traced.wall_s / untraced.wall_s
    for trace in (spans, parallel_spans):
        if trace is not None:
            values["evaluation.pool_rebuilds"] += trace.counter("pool_rebuilds")
            values["evaluation.tasks_retried"] += trace.counter("tasks_retried")
    if parallel is not None and parallel_spans is not None:
        # Dispatch and export only happen for real on the worker pool.
        pooled = parallel_spans.layer_self_times()
        values["evaluation.dispatch_s"] = pooled["evaluation.dispatch_s"]
        values["traces.export_s"] = pooled["traces.export_s"]
        values["traces.exports"] = parallel_spans.counter("trace_export")
        values["evaluation.parallel_efficiency"] = untraced.wall_s / (
            workload.n_jobs * parallel.wall_s
        )
        values["evaluation.pool_start_s"] = pool_start_s
    if not workload.batch:
        details = untraced.details
        hits = spans.counter("result_store", result="hit")
        values["serve.hit_ratio"] = _share(hits, hits + spans.counter("result_store", result="miss"))
        values["serve.repeat_share"] = details["repeat_share"]
        values["serve.pre_eval_ms"] = median(details["pre_eval"]) * 1000
        values["traces.upload_ms"] = median(details["latency"]["upload"]) * 1000
        for name in ("coalesced", "rejected", "expired"):
            values["serve." + name] = details[name]
    return values


def _serve_latencies(rounds: Sequence[Round]) -> Dict[str, float]:
    """Request rate and latency quantiles pooled over untraced rounds."""
    pooled: Dict[str, List[float]] = {"hit": [], "miss": [], "all": []}
    for result in rounds:
        for kind in pooled:
            pooled[kind].extend(result.details["latency"][kind])
    return {
        "serve.req_per_s": median([r.details["requests"] / r.wall_s for r in rounds]),
        "serve.hit_p50_ms": median(pooled["hit"]) * 1000,
        "serve.miss_p50_ms": median(pooled["miss"]) * 1000,
        # p90 keeps at least ten samples beyond it at the traced run's size.
        "serve.latency_p90_ms": quantile(pooled["all"], 90) * 1000,
    }


def traced_pass(
    workload: Workload, checker: Checker, deadline: float, pool_start_s: float
) -> List[Dict[str, float]]:
    """Traced sets, repeated while another fits before ``deadline``.

    A batch workload's set is an untraced and a traced serial round (busy
    times, attribution, overhead) plus a traced round on the worker pool
    (dispatch, export, parallel efficiency); the service's set is an
    untraced and a traced round at its defaults.
    """
    from repro.coding import make_scheme

    encoder_names = {scheme: make_scheme(scheme).name for scheme in SCHEMES}
    sets: List[Dict[str, float]] = []
    untraced_rounds: List[Round] = []
    while True:
        began = time.perf_counter()
        parallel = parallel_spans = None
        if workload.batch:
            untraced = checker.check(workload.run_round(n_jobs=1))
            with instrument() as spans:
                traced = checker.check(workload.run_round(n_jobs=1, spans=spans.table))
            with instrument() as parallel_spans:
                parallel = checker.check(workload.run_round(spans=parallel_spans.table))
        else:
            untraced = checker.check(workload.run_round())
            with instrument() as spans:
                traced = checker.check(workload.run_round(spans=spans.table))
        untraced_rounds.append(untraced)
        sets.append(
            layer_metrics(
                workload,
                untraced,
                traced,
                spans,
                parallel,
                parallel_spans,
                pool_start_s,
                encoder_names,
            )
        )
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break
    if not workload.batch:
        latencies = _serve_latencies(untraced_rounds)
        for values in sets:
            values.update(latencies)
    return sets


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path
) -> Dict[str, Any]:
    """One benchmark run; returns the result object the last output line carries."""
    import repro.evaluation  # noqa: F401 - imported before timing, like any caller
    import repro.serve  # noqa: F401
    import repro.traces  # noqa: F401

    n_jobs = os.cpu_count() or 1
    workload = WORKLOADS[workload_name](seed, workdir, n_jobs)
    checker = Checker(load_reference(workload_name, seed))
    setups: List[float] = []
    starts: List[float] = []
    rounds: List[Round] = []
    with ShmCloseErrors() as shm:
        try:
            for repeat in range(SETUP_REPEATS):
                imported = import_seconds(root)
                if repeat:
                    workload.stop()
                began = time.perf_counter()
                workload.start()
                starts.append(time.perf_counter() - began)
                workload.prepare()
                setups.append(imported + time.perf_counter() - began)
            deadline = time.perf_counter() + seconds
            errors_before = shm.count
            if trace:
                sets = traced_pass(workload, checker, deadline, median(starts))
            else:
                while True:
                    rounds.append(checker.check(workload.run_round()))
                    if time.perf_counter() >= deadline:
                        break
                values = {
                    "setup_s": median(setups),
                    "lines_per_s": median([r.lines / r.wall_s for r in rounds]),
                    "peak_rss_mb": peak_rss_mb(),
                }
        finally:
            workload.stop()
            stop_resource_tracker()
    if trace:
        values = {name: median([values[name] for values in sets]) for name in PER_LAYER}
        # Workers report a segment's BufferError when their attachment cache
        # drops it, often rounds after its use or at pool shutdown, so the
        # reports are counted over the whole measured phase and shared out
        # over its worker-pool rounds.
        if workload.batch:
            values["traces.shm_close_errors"] = (shm.count - errors_before) / len(sets)
    decode_check(workload.schemes, seed, checker)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "fingerprint": fingerprint(root),
        "setup_samples_s": setups,
        "round_wall_s": [r.wall_s for r in rounds],
        "failed_share": checker.failed / checker.attempted,
        "shm_close_errors": shm.count,
        "failures": checker.failures[:20],
    }
    return {
        "record": record,
        "ops": checker.first,
        "result": {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
            },
        },
    }


def write_reference(workload: str, seed: int, outcome: Dict[str, Any]) -> None:
    """Store a correct run's first-round digests as the workload's reference."""
    if seed != DEFAULT_SEED or not outcome["result"]["correct"]:
        raise SystemExit("perfbench: a reference needs a correct run at the default seed")
    stored = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
    stored[workload] = outcome["ops"]
    REFERENCE_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def render(outcome: Dict[str, Any]) -> str:
    """The human-readable report: fingerprint, checks and every metric."""
    record, result = outcome["record"], outcome["result"]
    lines = [f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}"]
    lines += [f"  {key:<14} {value}" for key, value in record["fingerprint"].items()]
    lines.append(
        f"  checks: attempted={result['attempted']} failed={result['failed']}"
        f" failed_share={record['failed_share']:.4f} correct={result['correct']}"
    )
    if record["failures"]:
        lines.append("  failing operations: " + ", ".join(record["failures"]))
    if record["round_wall_s"]:
        lines.append(
            f"  rounds={len(record['round_wall_s'])} wall_s="
            + " ".join(f"{wall:.3f}" for wall in record["round_wall_s"])
        )
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    return "\n".join(lines)
