"""Tests for the benchmark's own code: the tracer and the CTGF writer.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import tracer  # noqa: E402
import volumes  # noqa: E402
from slicegraph.data import read_features  # noqa: E402


def span(name, start, end, parent=-1, failed=False):
    return (name, start, end, parent, "run", failed)


def test_self_time_subtracts_child_spans():
    spans = [
        span("cli.main", 0.0, 10.0),             # 0
        span("train.train", 1.0, 9.0, 0),        # 1
        span("gradients.backward", 2.0, 4.0, 1),  # 2
        span("model.forward", 2.5, 3.5, 2),       # 3
        span("gradients.backward", 5.0, 6.0, 1),  # 4
        span("train.adamw_step", 8.0, 8.5, 1),    # 5
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 4.5, 1.0, 1.0, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a.f", 0.0, 10.0), span("a.g", 1.0, 5.0, 0), span("a.h", 3.0, 7.0, 0),
             span("a.k", 9.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarise_layers_functions_and_ratio():
    spans = [
        span("experiments.predict", 0.0, 4.0),
        span("model.GraphOperatorCache.get", 0.5, 1.5, 0),
        span("model.prepare_graph", 0.6, 1.4, 1),
        span("graph.build_adjacency", 0.7, 0.9, 2),
        span("model.GraphOperatorCache.get", 2.0, 2.1, 0),
        span("data.read_features", 5.0, 5.5, failed=True),
    ]
    wrapped = {s[0] for s in spans}
    out = tracer.summarise(spans, {"data.bytes_read": 7}, wrapped)
    assert out["model.self_s"] == pytest.approx(0.2 + 0.6 + 0.1)
    assert out["model.calls"] == 3
    assert out["experiments.self_s"] == pytest.approx(4.0 - 1.0 - 0.1)
    assert out["graph.build_adjacency.calls"] == 1
    assert out["data.errors"] == 1 and out["graph.errors"] == 0
    assert out["cli.calls"] == 0  # layer metrics exist even when never called
    assert out["model.graph_cache.lookups"] == 2
    assert out["model.graph_cache.hit_ratio"] == pytest.approx(0.5)
    assert out["data.bytes_read"] == 7
    assert "spectral.lambda_max.calls" not in out  # not wrapped: absent, not zero


def test_combine_adds_setup_to_median_iteration():
    setup = {"model.graph_cache.lookups": 10, "model.graph_cache.misses": 10, "a.calls": 1}
    iterations = [{"model.graph_cache.lookups": 30, "model.graph_cache.misses": 5, "a.calls": 4},
                  {"model.graph_cache.lookups": 30, "model.graph_cache.misses": 5, "a.calls": 4}]
    out = tracer.combine(setup, iterations)
    assert out["a.calls"] == 5
    assert out["model.graph_cache.hit_ratio"] == pytest.approx(1 - 15 / 40)


def _bindings():
    """Every function and method object reachable from the slicegraph namespaces."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "slicegraph" or name.startswith("slicegraph.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if inspect.isclass(value):
                for method, raw in vars(value).items():
                    out[(name, attr, method)] = raw
    return out


def _tiny_train(tmp_path):
    from slicegraph.data import SynthTaskConfig, generate_task
    from slicegraph.graph import GraphConfig
    from slicegraph.model import Variant
    from slicegraph.train import TrainConfig

    train_set, val_set, _ = generate_task(SynthTaskConfig(n_train=8, n_val=2, n_test=2))
    cfg = TrainConfig(batch_size=2, warmup_steps=1, total_steps=2)
    train_module = importlib.import_module("slicegraph.train")
    return train_module.train(train_set, val_set, GraphConfig(q=4), Variant.CHEB, cfg,
                              out_dir=tmp_path)


def test_call_through_another_modules_alias_is_recorded(tmp_path):
    train_module = importlib.import_module("slicegraph.train")
    gradients = importlib.import_module("slicegraph.gradients")
    aliases = [attr for attr, value in vars(train_module).items()
               if inspect.isfunction(value) and value.__module__ == gradients.__name__
               and attr in gradients.__all__]
    assert aliases, "slicegraph.train binds no function from slicegraph.gradients"

    with tracer.Tracer() as tr:
        _tiny_train(tmp_path)
    spans, counters = tr.take_spans()
    names = [s[0] for s in spans]
    for alias in aliases:
        recorded = [s for s in spans if s[0] == f"gradients.{alias}"]
        assert recorded, f"gradients.{alias} called via slicegraph.train was not recorded"
        assert all(names[s[3]] == "train.train" for s in recorded)
    assert counters["checkpoint.bytes_written"] > 0


def test_originals_are_restored(tmp_path):
    before = _bindings()
    with tracer.Tracer():
        assert _bindings() != before
        _tiny_train(tmp_path)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_failed_calls_count_as_errors(tmp_path):
    data = importlib.import_module("slicegraph.data")
    with tracer.Tracer() as tr:
        with pytest.raises(FileNotFoundError):
            data.read_features(tmp_path / "missing.ctgf")
    out = tracer.summarise(*tr.take_spans(), tr.wrapped)
    assert out["data.errors"] == 1 and out["data.read_features.calls"] == 1
    assert out["data.bytes_read"] == 0


def test_ctgf_writer_round_trips_through_read_features(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(5):
        features, labels, spacing = volumes.volume(rng, (16, 256), (0.625, 5.0))
        path = tmp_path / f"{i:05d}.ctgf"
        path.write_bytes(volumes.encode(features, labels, spacing))
        sample = read_features(path)
        assert 16 <= features.shape[0] <= 256 and spacing in (0.625, 5.0)
        assert sample.features.dtype == np.float32
        np.testing.assert_array_equal(sample.features, features)
        np.testing.assert_array_equal(sample.labels, labels)
        assert sample.spacing_z_mm == spacing


def test_written_dataset_depends_on_seed_only(tmp_path):
    shape = ({"train": 3, "val": 2, "test": 2}, (16, 256), (0.625, 1.25))
    volumes.write_dataset(tmp_path / "a", 5, *shape)
    volumes.write_dataset(tmp_path / "b", 5, *shape)
    volumes.write_dataset(tmp_path / "c", 6, *shape)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.ctgf"))
    assert len(files) == 7
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in files)
    assert any((tmp_path / "a" / f).read_bytes() != (tmp_path / "c" / f).read_bytes()
               for f in files)
