"""The benchmark's per-layer metrics name functions of this package; each
name must still be one the benchmark's tracer can wrap, or its metric
silently drops out of the report."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the argument each counter reads, by span
COUNTED_ARGUMENTS = {
    "checkpoint.save_checkpoint": "path",
    "checkpoint.load_checkpoint": "path",
    "data.write_features": "path",
    "data.read_features": "path",
    "experiments.predict": "samples",
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traceable(tracer):
    return {name: raw for name, _, _, raw in tracer.traceable()}


def test_every_named_span_is_traceable(tracer, traceable):
    named = [*tracer.FUNCTION_METRICS, *tracer.COUNTERS,
             tracer.CACHE_LOOKUP, tracer.CACHE_MISS]
    assert [name for name in named if name not in traceable] == []


def test_every_counted_argument_is_a_parameter_of_its_function(tracer, traceable, tmp_path):
    assert set(tracer.COUNTERS) <= set(COUNTED_ARGUMENTS)
    counted = tmp_path / "counted"
    counted.write_bytes(b"12345")
    for span, (_, amount) in tracer.COUNTERS.items():
        argument = COUNTED_ARGUMENTS[span]
        params = list(inspect.signature(traceable[span]).parameters)
        assert argument in params, span
        value = str(counted) if argument == "path" else [0, 0, 0, 0, 0]
        # passed by keyword, and in the position the function gives it
        positional = (None,) * params.index(argument) + (value,)
        assert amount((), {argument: value}) == amount(positional, {}) == 5, span
