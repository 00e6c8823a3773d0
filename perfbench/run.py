"""Run one benchmark workload and print its result as the last output line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced pass and reports the per-layer metrics.  A human-readable
report (every metric with its unit, the machine fingerprint and the output
checks) goes to standard error; standard output ends with one JSON object
holding ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the same checkout and nowhere else;
without it the benchmark exits with an error before measuring anything.
Scratch files live in ``.perfbench_tmp/`` inside the checkout and are removed
on exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("figures", "schemes-long", "serve-mixed", "stream-ingest")
#: glibc's ``mallopt`` parameter for the arena limit.
M_ARENA_MAX = -8


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's first-round digests as the reference (default seed only)",
    )
    return parser.parse_args(argv)


def one_malloc_arena() -> None:
    """Limit glibc to one malloc arena for this process and its workers.

    With one arena per thread, the service's peak memory depended on which
    executor thread happened to run which request (80-110 MB between
    identical runs); with one arena it reflects what the program allocates.
    Throughput is unchanged within noise.  A C library without ``mallopt``
    keeps its default.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    one_malloc_arena()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # Import the program and this package from the checkout only.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        from perfbench.harness import render, run, write_reference

        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir)
        if args.write_reference:
            write_reference(args.workload, args.seed, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(render(outcome), file=sys.stderr)
    print(json.dumps({"perfbench": outcome["record"]}, sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
