"""Tests of the evaluation configuration objects."""

from repro.core.config import (
    EvaluationConfig,
    GRANULARITIES_FULL,
    GRANULARITIES_WLC,
)


class TestEvaluationConfig:
    def test_with_trace_length(self):
        config = EvaluationConfig(trace_length=100, seed=9)
        longer = config.with_trace_length(5000)
        assert longer.trace_length == 5000
        assert longer.seed == 9
        assert config.trace_length == 100


class TestGranularities:
    def test_full_range(self):
        assert GRANULARITIES_FULL == (8, 16, 32, 64, 128, 256, 512)

    def test_wlc_subset(self):
        assert set(GRANULARITIES_WLC) <= set(GRANULARITIES_FULL)
        assert GRANULARITIES_WLC == (8, 16, 32, 64)
