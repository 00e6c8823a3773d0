#!/usr/bin/env python
"""Endurance study: updated cells, lifetime projection and the multi-objective mode.

Figure 9 of the paper uses *updated cells per write request* as its endurance
proxy; Section VIII-D shows that WLCRC can trade a negligible amount of energy
for substantially fewer updated cells by switching its coset-family choice to
a flip-count comparison whenever the two families are within a threshold ``T``
of each other.

This example reproduces that trade-off on synthetic traces and converts the
endurance proxy into a relative lifetime estimate using the
:mod:`repro.pcm.endurance` helpers.

Run with::

    python examples/endurance_lifetime.py [trace_length_per_benchmark]
"""

import sys

from repro import evaluate_trace, make_scheme
from repro.core.metrics import WriteMetrics
from repro.evaluation import format_series_table
from repro.pcm import estimate_lifetime, relative_lifetime
from repro.workloads import HMI_BENCHMARKS, LMI_BENCHMARKS, generate_benchmark_trace


def main() -> None:
    trace_length = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    benchmarks = HMI_BENCHMARKS[:3] + LMI_BENCHMARKS[:2]

    schemes = {
        "baseline": make_scheme("baseline"),
        "fnw": make_scheme("fnw"),
        "wlcrc-16": make_scheme("wlcrc-16"),
        "wlcrc-16 multi-objective (T=1%)": make_scheme("wlcrc-16-mo0.01"),
    }

    print(f"Evaluating {len(schemes)} schemes on {len(benchmarks)} benchmarks "
          f"({trace_length} writes each)...\n")
    totals = {name: WriteMetrics() for name in schemes}
    for benchmark in benchmarks:
        trace = generate_benchmark_trace(benchmark, trace_length, seed=2018)
        for name, scheme in schemes.items():
            totals[name].merge(evaluate_trace(scheme, trace))

    baseline_cells = totals["baseline"].avg_updated_cells
    rows = {}
    for name, metrics in totals.items():
        lifetime = estimate_lifetime(metrics.avg_updated_cells, writes_per_second=1e6)
        rows[name] = {
            "energy (pJ)": metrics.avg_energy_pj,
            "updated cells": metrics.avg_updated_cells,
            "vs baseline": relative_lifetime(baseline_cells, metrics.avg_updated_cells),
            "line writes to failure (M)": lifetime.line_writes_to_failure / 1e6,
        }

    print(format_series_table(rows, precision=2, title="Endurance comparison", row_header="scheme"))

    plain = totals["wlcrc-16"]
    multi = totals["wlcrc-16 multi-objective (T=1%)"]
    delta_cells = 100 * (plain.avg_updated_cells - multi.avg_updated_cells) / plain.avg_updated_cells
    delta_energy = 100 * (multi.avg_energy_pj - plain.avg_energy_pj) / plain.avg_energy_pj
    print(
        f"\nThe multi-objective mode rewrites {delta_cells:.1f}% fewer cells than plain "
        f"WLCRC-16 at the cost of {delta_energy:+.2f}% write energy "
        "(the paper reports 19% fewer cells for +1.6% energy)."
    )


if __name__ == "__main__":
    main()
