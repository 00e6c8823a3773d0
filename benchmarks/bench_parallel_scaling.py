"""Wall-clock benchmark of the parallel engine's scaling and backends.

``bench_parallel_scaling`` runs the Figure 11-style granularity sweep once
on the serial path (``n_jobs=1``), once on the process-pool path and once on
the thread-pool path (``n_jobs`` = all cores), records the wall-clock times
and speedups to ``benchmarks/results/``, and asserts the engine's core
contract: all three runs produce *identical* metrics.

No minimum speedup is asserted -- on a single-core machine a pool can only
add overhead; the recorded tables are the artefact of interest.  The
transport comparison that used to live here moved to
``bench_trace_transport.py`` when it gained its own perf baseline.
"""

import os
import time

from repro.bench import BenchSpec, run_once, write_json, write_result
from repro.coding import make_scheme
from repro.evaluation import format_series_table
from repro.evaluation.experiments import benchmark_traces
from repro.evaluation.sweeps import granularity_sweep

BENCHMARK = BenchSpec(
    figure="parallel",
    title="Parallel-engine scaling: serial vs process pool vs thread pool",
    cost=3.6,
    perf_artifacts=(
        "parallel_scaling.txt",
        "BENCH_parallel_scaling.json",
    ),
    env=(
        "REPRO_BENCH_TRACE_LEN",
        "REPRO_BENCH_SEED",
    ),
)

GRANULARITIES = (8, 16, 32, 64)


def _timed_sweep(traces, config, n_jobs, backend="process"):
    from repro.evaluation.parallel import ParallelRunner

    runner = ParallelRunner(n_jobs, backend=backend)
    start = time.perf_counter()
    sweep = granularity_sweep(
        lambda g, em: make_scheme(f"6cosets-{g}", em),
        GRANULARITIES,
        traces,
        config.evaluation,
        runner=runner,
    )
    return sweep, time.perf_counter() - start


def bench_parallel_scaling(benchmark, experiment_config):
    traces = benchmark_traces(experiment_config)
    all_cores = os.cpu_count() or 1

    def measure():
        serial, serial_s = _timed_sweep(traces, experiment_config, n_jobs=1)
        process, process_s = _timed_sweep(traces, experiment_config, n_jobs=all_cores)
        thread, thread_s = _timed_sweep(
            traces, experiment_config, n_jobs=all_cores, backend="thread"
        )
        return serial, serial_s, process, process_s, thread, thread_s

    serial, serial_s, process, process_s, thread, thread_s = run_once(benchmark, measure)

    rows = {
        "serial (n_jobs=1)": {"wall_clock_s": serial_s, "workers": 1},
        f"process pool (n_jobs={all_cores})": {"wall_clock_s": process_s, "workers": all_cores},
        f"thread pool (n_jobs={all_cores})": {"wall_clock_s": thread_s, "workers": all_cores},
        "process speedup": {
            "wall_clock_s": serial_s / process_s if process_s else 0.0,
            "workers": all_cores,
        },
        "thread speedup": {
            "wall_clock_s": serial_s / thread_s if thread_s else 0.0,
            "workers": all_cores,
        },
    }
    table = format_series_table(
        rows,
        title=f"Parallel scaling: granularity sweep {GRANULARITIES}, "
        f"{len(traces)} traces, {all_cores} cores",
        row_header="run",
    )
    write_result("parallel_scaling", table)

    # The engine's contract: identical metrics for any worker count and for
    # either executor backend.
    assert list(serial) == list(GRANULARITIES)
    for granularity in GRANULARITIES:
        assert serial[granularity] == process[granularity]
        assert serial[granularity] == thread[granularity]

    write_json(
        "parallel_scaling",
        {
            "granularities": list(GRANULARITIES),
            "traces": len(traces),
            "workers": all_cores,
            "serial_s": serial_s,
            "parallel_s": process_s,
            "thread_s": thread_s,
            "speedup": serial_s / process_s if process_s else 0.0,
            "thread_speedup": serial_s / thread_s if thread_s else 0.0,
        },
    )
