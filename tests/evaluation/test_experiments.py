"""Tests of the per-figure experiment drivers (small configurations)."""

import copy
import dataclasses

import pytest

from repro.coding import make_scheme
from repro.evaluation import experiments
from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.parallel import ParallelRunner, WorkUnit
from repro.obs import observation

#: A deliberately tiny configuration so the experiment drivers stay fast.
TINY = ExperimentConfig(trace_length=60, random_lines=80, seed=3, benchmarks=("gcc", "libq"))
#: Schemes kept cheap for the figure 8-10 driver tests.
FAST_SCHEMES = ("baseline", "fnw", "wlcrc-16")


@pytest.fixture(autouse=True, scope="module")
def _clear_cache():
    experiments.clear_cache()
    yield
    experiments.clear_cache()


class TestTraceConstruction:
    def test_benchmark_traces_cached(self):
        first = experiments.benchmark_traces(TINY)
        second = experiments.benchmark_traces(TINY)
        assert first is second
        assert set(first) == {"gcc", "libq"}
        assert len(first["gcc"]) == 60

    def test_random_trace_length(self):
        assert len(experiments.random_trace(TINY)) == 80


class TestMotivationFigures:
    def test_figure1_shapes(self):
        result = experiments.figure1("random", TINY)
        assert set(result) == set(experiments.FIGURE1_GRANULARITIES)
        for row in result.values():
            assert set(row) == {"blk", "aux", "total"}
            assert row["total"] == pytest.approx(row["blk"] + row["aux"])

    def test_figure1_rejects_unknown_workload(self):
        with pytest.raises(ValueError):
            experiments.figure1("bogus", TINY)

    def test_figure2_and_3_have_both_schemes(self):
        for driver in (experiments.figure2, experiments.figure3):
            result = driver(TINY)
            assert set(result) == {"6cosets", "4cosets"}
            assert set(result["6cosets"]) == set(experiments.FIGURE2_GRANULARITIES)

    def test_figure4_rows(self):
        result = experiments.figure4(TINY)
        assert "ave." in result and "gcc" in result

    def test_figure5_includes_restricted(self):
        result = experiments.figure5(TINY)
        assert set(result) == {"4cosets", "3cosets", "3-r-cosets"}

    def test_table1_matches_paper(self):
        table = experiments.table1()
        assert table["S1"]["C1"] == "00"
        assert table["S1"]["C2"] == "11"
        assert table["S4"]["C1"] == "01"
        assert table["S2"]["C3"] == "01"


class TestComparisonFigures:
    def test_figure8_rows_and_averages(self):
        result = experiments.figure8(TINY, FAST_SCHEMES)
        assert set(result) == set(FAST_SCHEMES)
        row = result["baseline"]
        assert {"gcc", "libq", "HMI Ave.", "LMI Ave.", "Ave."} <= set(row)
        assert row["HMI Ave."] == pytest.approx(row["gcc"])
        assert row["LMI Ave."] == pytest.approx(row["libq"])

    def test_wlcrc_beats_baseline_in_figure8(self):
        result = experiments.figure8(TINY, FAST_SCHEMES)
        assert result["wlcrc-16"]["Ave."] < result["baseline"]["Ave."]

    def test_figure9_and_10_share_the_same_evaluation(self):
        energy = experiments.figure8(TINY, FAST_SCHEMES)
        cells = experiments.figure9(TINY, FAST_SCHEMES)
        disturbance = experiments.figure10(TINY, FAST_SCHEMES)
        assert set(energy) == set(cells) == set(disturbance)
        assert all(value >= 0 for row in disturbance.values() for value in row.values())

    def test_section8d_rows(self):
        result = experiments.section8d_multiobjective(TINY)
        assert "Ave." in result
        assert {"energy_plain", "energy_multi", "cells_plain", "cells_multi"} <= set(result["gcc"])


class TestGranularityAndSensitivity:
    def test_figure11_to_13_families(self):
        for driver in (experiments.figure11, experiments.figure12, experiments.figure13):
            result = driver(TINY)
            assert set(result) == {"4cosets", "3cosets", "WLCRC"}
            assert set(result["WLCRC"]) == {8, 16, 32, 64}

    def test_figure14_levels(self):
        result = experiments.figure14(TINY)
        assert len(result) == 4
        for values in result.values():
            assert values["improvement_pct"] <= 100.0


# ---------------------------------------------------------------------- #
# The in-memory unit tier behind the drivers
# ---------------------------------------------------------------------- #
#: Every driver that fans work units out, in the order a figure run calls them.
DRIVERS = (
    ("figure1-random", lambda: experiments.figure1("random", TINY)),
    ("figure1-biased", lambda: experiments.figure1("biased", TINY)),
    ("figure2", lambda: experiments.figure2(TINY)),
    ("figure3", lambda: experiments.figure3(TINY)),
    ("figure4", lambda: experiments.figure4(TINY)),
    ("figure5", lambda: experiments.figure5(TINY)),
    ("figure8", lambda: experiments.figure8(TINY)),
    ("figure9", lambda: experiments.figure9(TINY)),
    ("figure10", lambda: experiments.figure10(TINY)),
    ("figure11", lambda: experiments.figure11(TINY)),
    ("figure12", lambda: experiments.figure12(TINY)),
    ("figure13", lambda: experiments.figure13(TINY)),
    ("figure14", lambda: experiments.figure14(TINY)),
    ("section8d", lambda: experiments.section8d_multiobjective(TINY)),
)
DRIVER = dict(DRIVERS)


def _lines_encoded(call):
    """Lines the encoders processed while ``call()`` ran (obs counter)."""
    with observation("test") as session:
        call()
        snapshot = session.metrics.snapshot()
    return sum(
        entry["value"] for name, entry in snapshot.items() if name.startswith("lines_encoded")
    )


class TestUnitTier:
    def test_warm_outputs_equal_cold_outputs(self):
        experiments.clear_cache()
        warm = {name: driver() for name, driver in DRIVERS}
        for name, driver in DRIVERS:
            experiments.clear_cache()
            assert driver() == warm[name], name

    @pytest.mark.parametrize(
        "first, second",
        [
            ("figure8", "figure9"),
            ("figure1-biased", "figure3"),
            ("figure3", "figure5"),
            ("figure8", "section8d"),
        ],
    )
    def test_a_shared_unit_is_encoded_once(self, first, second):
        experiments.clear_cache()
        cold = _lines_encoded(DRIVER[second])
        experiments.clear_cache()
        DRIVER[first]()
        warm = _lines_encoded(DRIVER[second])
        assert cold > 0
        assert warm < cold

    def test_clear_cache_empties_the_tier(self):
        experiments.clear_cache()
        cold = _lines_encoded(DRIVER["figure3"])
        # figure3 has no driver-level memo: a repeat is served by the tier.
        assert _lines_encoded(DRIVER["figure3"]) == 0
        experiments.clear_cache()
        assert _lines_encoded(DRIVER["figure3"]) == cold

    def test_lookups_are_counted_per_tier(self, tmp_path):
        def store_counters(config):
            experiments.clear_cache()
            with observation("test") as session:
                experiments.figure3(config)
                experiments.figure3(config)
                snapshot = session.metrics.snapshot()
            return {
                name: entry["value"]
                for name, entry in snapshot.items()
                if name.startswith("result_store")
            }

        units = 2 * len(experiments.FIGURE2_GRANULARITIES) * len(TINY.benchmarks)
        assert store_counters(TINY) == {
            "result_store{result=miss,tier=memory}": units,
            "result_store{result=hit,tier=memory}": units,
        }
        # With a results_dir only the on-disk store is bound.
        on_disk = dataclasses.replace(TINY, results_dir=str(tmp_path))
        assert store_counters(on_disk) == {
            "result_store{result=miss}": units,
            "result_store{result=hit}": units,
        }

    def test_mutating_a_returned_metrics_does_not_poison_a_hit(self):
        experiments.clear_cache()
        trace = experiments.benchmark_traces(TINY)["gcc"]
        unit = WorkUnit("u", make_scheme("wlcrc-16"), trace, TINY.evaluation)
        runner = experiments._runner(TINY)
        store = runner.results_store
        computed = runner.map([unit])[0]
        expected = copy.copy(computed)
        computed.merge(expected)
        hits = store.hits
        served = runner.map([unit])[0]
        assert store.hits == hits + 1
        assert served == expected
        served.requests += 1_000
        assert runner.map([unit])[0] == expected

    def test_sampled_units_at_different_indices_never_share_an_entry(self):
        experiments.clear_cache()
        trace = experiments.benchmark_traces(TINY)["gcc"]
        config = dataclasses.replace(TINY.evaluation, sample_disturbance=True)
        units = [WorkUnit("u", make_scheme("wlcrc-16"), trace, config)] * 3
        runner = experiments._runner(TINY)
        store = runner.results_store
        assert len({store.unit_key(unit, index).digest for index, unit in enumerate(units)}) == 3
        first = runner.map(units)
        assert len(store) == 3
        hits = store.hits
        assert runner.map(units) == first
        assert store.hits == hits + 3
        assert first == ParallelRunner(1).map(units)
