"""Tests of the sweep helpers (granularity, energy levels, compression coverage)."""

from repro.coding import make_scheme
from repro.coding.baseline import BaselineEncoder
from repro.core.config import EvaluationConfig
from repro.core.energy import figure14_energy_models
from repro.evaluation.sweeps import compression_coverage, energy_level_sweep, granularity_sweep

CONFIG = EvaluationConfig(chunk_size=256)


class TestGranularitySweep:
    def test_sweep_keys_and_trend(self, gcc_trace):
        traces = {"gcc": gcc_trace[:96]}
        sweep = granularity_sweep(
            lambda g, em: make_scheme(f"6cosets-{g}", em), (16, 512), traces, CONFIG
        )
        assert set(sweep) == {16, 512}
        # Figure 1 trend: finer granularity lowers the data-symbol energy.
        assert sweep[16].avg_data_energy_pj <= sweep[512].avg_data_energy_pj
        assert sweep[16].avg_aux_energy_pj >= sweep[512].avg_aux_energy_pj


class TestEnergyLevelSweep:
    def test_four_levels_and_positive_improvement(self, gcc_trace):
        traces = {"gcc": gcc_trace[:96]}
        sweep = energy_level_sweep(
            factory=lambda em: make_scheme("wlcrc-16", em),
            baseline_factory=lambda em: BaselineEncoder(em),
            traces=traces,
            config=CONFIG,
        )
        assert len(sweep) == 4
        for values in sweep.values():
            assert values["scheme_energy_pj"] <= values["baseline_energy_pj"]
            assert values["improvement_pct"] >= 0

    def test_improvement_shrinks_with_cheaper_intermediate_states(self, gcc_trace):
        """Figure 14: cheaper S3/S4 reduce (but do not erase) WLCRC's advantage."""
        traces = {"gcc": gcc_trace[:96]}
        sweep = energy_level_sweep(
            factory=lambda em: make_scheme("wlcrc-16", em),
            baseline_factory=lambda em: BaselineEncoder(em),
            traces=traces,
            config=CONFIG,
        )
        ordered = [sweep[(m.set_energy_pj[2], m.set_energy_pj[3])]["improvement_pct"]
                   for m in figure14_energy_models()]
        assert ordered[-1] <= ordered[0]


class TestCompressionCoverage:
    def test_columns_and_average_row(self, gcc_trace, libq_trace):
        coverage = compression_coverage({"gcc": gcc_trace[:96], "libq": libq_trace[:96]})
        assert "ave." in coverage
        row = coverage["gcc"]
        assert set(row) == {"4-MSBs", "5-MSBs", "6-MSBs", "7-MSBs", "8-MSBs", "9-MSBs", "COC", "FPC+BDI"}
        for value in row.values():
            assert 0.0 <= value <= 100.0

    def test_wlc_coverage_monotone_in_k(self, gcc_trace):
        coverage = compression_coverage({"gcc": gcc_trace[:96]})["gcc"]
        assert coverage["4-MSBs"] >= coverage["6-MSBs"] >= coverage["9-MSBs"]

    def test_empty_input(self):
        assert compression_coverage({}) == {}
