"""Tests of the benchmark itself: inputs, metric names and the output checks.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import (  # noqa: E402
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    REFERENCE_PATH,
    Checker,
    failing_ops,
)
from perfbench.jobs import WORKLOADS, Round, ramulator_trace, serve_plan  # noqa: E402
from perfbench.spans import SpanTable  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metric_names_and_units_are_valid_and_match_the_harness():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[group]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
            names.append(metric["name"])
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25


def test_inputs_are_deterministic_for_a_seed():
    assert ramulator_trace(5, 3000) == ramulator_trace(5, 3000)
    assert ramulator_trace(5, 3000)[0] != ramulator_trace(6, 3000)[0]
    text, written = ramulator_trace(5, 3000)
    assert written == 3000
    assert sum(
        int(size, 16) // 64 for op, _, size in (line.split() for line in text.splitlines()) if op == "W"
    ) == 3000

    first, uploads = serve_plan(5, 100, 4)
    again, uploads_again = serve_plan(5, 100, 4)
    assert first == again and uploads == uploads_again
    other, _ = serve_plan(6, 100, 4)
    assert first != other


def test_serve_plan_orders_every_dependent_after_its_prerequisite():
    plan, _ = serve_plan(9, 100, 4)
    kinds = [request.kind for request in plan]
    assert kinds.count("miss") == 16 and kinds.count("repeat") == 32
    assert kinds.count("upload") == kinds.count("by-digest") == 4
    for index, request in enumerate(plan):
        if request.kind in ("repeat", "by-digest"):
            assert request.after is not None and request.after < index
            prerequisite = plan[request.after]
            assert prerequisite.kind == ("miss" if request.kind == "repeat" else "upload")
            if request.kind == "repeat":
                assert (prerequisite.scheme, prerequisite.spec) == (request.scheme, request.spec)


def test_a_perturbed_result_is_counted_as_a_failure():
    ops = {"figure8": "a", "figure9": "b"}
    assert failing_ops(ops, set(), ops, ops) == []
    assert failing_ops({"figure8": "a", "figure9": "x"}, set(), ops, None) == ["figure9"]
    assert failing_ops(ops, set(), ops, {"figure8": "a", "figure9": "x"}) == ["figure9"]
    assert failing_ops({"figure8": "a"}, set(), ops, None) == ["figure9"]
    assert failing_ops(ops, {"figure8"}, ops, None) == ["figure8"]

    checker = Checker(reference=None)
    checker.check(Round(wall_s=1.0, lines=1, ops=ops))
    checker.check(Round(wall_s=1.0, lines=1, ops={"figure8": "a", "figure9": "changed"}))
    assert (checker.attempted, checker.failed, checker.failures) == (4, 1, ["figure9"])


def test_reference_digests_exist_for_every_workload_at_the_default_seed():
    stored = json.loads(REFERENCE_PATH.read_text())
    assert set(stored) == set(WORKLOADS)
    assert all(stored[name] for name in stored)
    assert DEFAULT_SEED == 1


def test_self_time_excludes_child_spans():
    table = SpanTable()
    with table.span("outer"):
        with table.span("inner"):
            sum(range(20000))
    assert set(table.self_time) == {"outer", "inner"}
    assert table.self_time["outer"] < table.outer_total["outer"]
    total = table.self_time["outer"] + table.self_time["inner"]
    assert total == pytest.approx(table.outer_total["outer"])


def test_exits_with_an_error_and_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_traced_pass_attributes_layers_and_restores_the_program():
    from repro.coding import registry
    from repro.coding.base import WriteEncoder
    from repro.core.config import EvaluationConfig
    from repro.evaluation import experiments
    from repro.evaluation.parallel import ParallelRunner, WorkUnit

    from perfbench.layers import instrument

    originals = (WriteEncoder.encode_batch, experiments.generate_benchmark_trace)
    with instrument() as trace:
        lines = experiments.generate_benchmark_trace("gcc", 256, seed=3)
        encoder = registry.make_scheme("wlcrc-16")
        unit = WorkUnit("unit", encoder, lines, EvaluationConfig(chunk_size=128))
        ParallelRunner(1).run([unit, unit])
    assert (WriteEncoder.encode_batch, experiments.generate_benchmark_trace) == originals
    times = trace.layer_self_times()
    for metric in (
        "workloads.gen_s",
        "compression.compress_s",
        "coding.unattributed_s",
        "coding.construct_s",
        "evaluation.metrics_s",
        "evaluation.dispatch_s",
        "evaluation.reduce_s",
    ):
        assert times[metric] > 0, metric
    assert (trace.ledger.units, trace.ledger.duplicates) == (2, 1)
    assert trace.counter("lines_encoded") == trace.table.counters["coding.lines"] == 512
