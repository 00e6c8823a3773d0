"""Key-adequacy oracle for the result-store key the experiment drivers memoise on.

Every driver fan-out without ``results_dir`` goes through the in-memory unit
tier, so an equal :func:`~repro.serve.results.result_cache_key` digest means
"serve the first unit's metrics for the second".  That is only sound if the
key captures everything the evaluation depends on.  This oracle runs every
figure driver at a small size, records each unit handed to
:meth:`ParallelRunner.map` together with an independent snapshot of its full
identity, and asserts that units sharing a digest share that identity:

* encoder class and every scalar or ndarray attribute (descending into
  helper objects such as compressors and aux codecs);
* the energy model and the disturbance rates;
* the trace content (raw old/new words, not the key's own content digest);
* ``chunk_size`` and ``sample_disturbance``, plus ``seed`` and the unit
  index when disturbance is sampled.
"""

import dataclasses

import numpy as np
import pytest

from repro.evaluation import experiments
from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.parallel import ParallelRunner
from repro.serve.results import result_cache_key

CONFIG = ExperimentConfig(
    trace_length=60, random_lines=80, seed=5, benchmarks=("gcc", "libq", "mcf")
)

DRIVERS = (
    lambda: experiments.figure1("random", CONFIG),
    lambda: experiments.figure1("biased", CONFIG),
    lambda: experiments.figure2(CONFIG),
    lambda: experiments.figure3(CONFIG),
    lambda: experiments.figure4(CONFIG),
    lambda: experiments.figure5(CONFIG),
    lambda: experiments.figure8(CONFIG),
    lambda: experiments.figure9(CONFIG),
    lambda: experiments.figure10(CONFIG),
    lambda: experiments.figure11(CONFIG),
    lambda: experiments.figure12(CONFIG),
    lambda: experiments.figure13(CONFIG),
    lambda: experiments.figure14(CONFIG),
    lambda: experiments.section8d_multiobjective(CONFIG),
)


def _state(value, depth=0):
    """A comparable snapshot of ``value``'s scalar and ndarray content."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if value is None or isinstance(value, (bool, int, float, str, np.generic)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_state(item, depth) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _state(v, depth)) for k, v in value.items()))
    if hasattr(value, "__dict__") and depth < 4:
        return (
            type(value).__qualname__,
            tuple(
                sorted((name, _state(item, depth + 1)) for name, item in vars(value).items())
            ),
        )
    return ("opaque", type(value).__qualname__)


def _identity(unit, unit_index):
    config = unit.config
    identity = {
        "encoder": (type(unit.encoder).__qualname__, _state(unit.encoder)),
        "energy": dataclasses.astuple(unit.encoder.energy_model),
        "disturbance": tuple(unit.disturbance_model.rates),
        "trace": (
            unit.trace.old.words.tobytes(),
            unit.trace.new.words.tobytes(),
        ),
        "chunk_size": config.chunk_size,
        "sample_disturbance": config.sample_disturbance,
    }
    if config.sample_disturbance:
        identity["seed"] = config.seed
        identity["unit_index"] = unit_index
    return identity


@pytest.fixture()
def recorded_units(monkeypatch):
    """``(digest, identity)`` of every unit every figure driver dispatches."""
    records = []
    original = ParallelRunner.map

    def recording_map(self, units):
        units = list(units)
        for index, unit in enumerate(units):
            digest = result_cache_key(
                unit.encoder, unit.trace, unit.config, unit.disturbance_model, index
            ).digest
            records.append((digest, _identity(unit, index)))
        return original(self, units)

    monkeypatch.setattr(ParallelRunner, "map", recording_map)
    experiments.clear_cache()
    try:
        for driver in DRIVERS:
            driver()
    finally:
        experiments.clear_cache()
    return records


def test_equal_digests_mean_equal_full_identity(recorded_units):
    first_seen = {}
    shared = 0
    for digest, identity in recorded_units:
        if digest in first_seen:
            shared += 1
            assert identity == first_seen[digest], digest
        else:
            first_seen[digest] = identity
    # The oracle only means something if the drivers really share units.
    assert shared > 0
    assert len(first_seen) < len(recorded_units)
