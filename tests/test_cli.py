"""The command-line interface: subcommands, config precedence, artifacts,
and exit codes (0 ok, 2 config, 3 numeric, 4 I/O)."""

import dataclasses
import importlib
import inspect
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicegraph
import slicegraph.cli
import slicegraph.data
import slicegraph.experiments
import slicegraph.graph
import slicegraph.model
import slicegraph.spectral

from slicegraph.checkpoint import load_checkpoint, save_checkpoint
from slicegraph.cli import build_settings, main
from slicegraph.data import Sample, SynthTaskConfig, read_dataset, write_dataset, write_features
from slicegraph.experiments import AblationGrid, run_robustness_experiment
from slicegraph.graph import GraphConfig, WeightFn
from slicegraph.model import ModelParams, Variant, init_params, prepare_graph
from slicegraph.train import TrainConfig

TINY = {
    "n_nodes": 6, "d": 4, "n_labels": 2,
    "local_labels": [0], "diffuse_labels": [1],
    "n_train": 12, "n_val": 6, "n_test": 6,
    "total_steps": 24, "warmup_steps": 4, "batch_size": 3,
    "log_every": 8, "max_lr": 0.01,
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def child_env(**overrides):
    """Environment for a child interpreter that imports this slicegraph."""
    src = str(Path(slicegraph.__file__).resolve().parents[1])
    return {**os.environ, **overrides,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


# (n_nodes, spacing_mm) of each split's volumes: every split shares some
# graphs with another and has one of its own
MIXED_KEYS = {
    "train": [(5, 1.0), (6, 1.0), (7, 2.0)],
    "val": [(5, 1.0), (6, 2.0), (8, 1.0)],
    "test": [(6, 2.0), (7, 2.0), (8, 2.0)],
}


def write_mixed_volumes(base):
    rng = np.random.default_rng(5)
    for split, keys in MIXED_KEYS.items():
        write_dataset(base / split, [
            Sample(rng.normal(size=(n, TINY["d"])).astype(np.float32),
                   np.array([i % 2, 1 - i % 2], dtype=np.uint8), spacing)
            for n, spacing in keys for i in range(3)])


SETTINGS = tuple(slicegraph.cli._SETTINGS.values())
CONFIG_COMMANDS = ("gen-data", "train", "eval", "robustness", "ablate")
REQUIRED_FLAGS = {"inspect-graph": ("--q", 1)}


def past_bound(setting):
    """(value, flag text, what is allowed) one step past a setting's ceiling
    or its non-empty rule; None for a setting with neither."""
    if setting.most is not None:
        return setting.most + 1, str(setting.most + 1), setting.kind.what + f" <= {setting.most}"
    if setting.kind.what.startswith("a non-empty list"):
        return [], "", setting.kind.what
    return None


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the settings were checked")


@pytest.fixture()
def prepared_graphs(monkeypatch):
    """Every (n_nodes, spacing) that `model.prepare_graph` builds."""
    calls = []
    original = slicegraph.model.prepare_graph

    def counting(graph_cfg, n_nodes, spacing_mm):
        spec = original(graph_cfg, n_nodes, spacing_mm)
        calls.append((spec.n_nodes, spec.spacing_z))
        return spec

    monkeypatch.setattr(slicegraph.model, "prepare_graph", counting)
    return calls


@pytest.fixture()
def built_adjacencies(monkeypatch):
    """Every (n_nodes, spacing) that `graph.build_adjacency` builds, under
    whichever module's name for it the caller uses."""
    calls = []
    original = slicegraph.graph.build_adjacency

    def counting(spec):
        calls.append((spec.n_nodes, spec.spacing_z))
        return original(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("slicegraph.") and getattr(module, "build_adjacency", None) is original:
            monkeypatch.setattr(module, "build_adjacency", counting)
    return calls


@pytest.fixture()
def lambda_max_calls(monkeypatch):
    """How often `spectral.lambda_max` runs: once per scaled Laplacian built."""
    calls = []
    original = slicegraph.spectral.lambda_max

    def counting(lap):
        calls.append(lap.shape[0])
        return original(lap)

    monkeypatch.setattr(slicegraph.spectral, "lambda_max", counting)
    return calls


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        probe = ("import slicegraph.cli, sys; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "[]"


class TestPublicNames:
    LAYERS = ("graph", "spectral", "model", "gradients", "train", "checkpoint",
              "data", "metrics", "experiments", "cli")

    @pytest.mark.parametrize("layer", LAYERS)
    def test_every_exported_name_exists(self, layer):
        # the benchmark's tracer wraps exactly `__all__` and skips a stale
        # name without a word, so a stale name would drop a metric silently
        module = importlib.import_module(f"slicegraph.{layer}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == []

    def test_package_root_exports_only_the_version(self):
        exported = [name for name, value in vars(slicegraph).items()
                    if not name.startswith("_") and not inspect.ismodule(value)]
        assert exported == []
        assert slicegraph.__version__ == "0.1.0"


class TestGenData:
    def test_writes_three_splits_and_config(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "data"
        assert run_cli("gen-data", "--config", tiny_config, "--out", out) == 0
        for split, expected in (("train", 12), ("val", 6), ("test", 6)):
            assert len(read_dataset(out / split)) == expected
        stored = json.loads((out / "config.json").read_text())
        assert stored["n_nodes"] == 6
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["n_train"] == 12

    def test_deterministic_bytes(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen-data", "--config", tiny_config, "--out", a)
        run_cli("gen-data", "--config", tiny_config, "--out", b)
        for sub in ("train", "val", "test"):
            for pa, pb in zip(sorted((a / sub).iterdir()),
                              sorted((b / sub).iterdir())):
                assert pa.read_bytes() == pb.read_bytes()

    def test_missing_out_is_config_error(self, tiny_config):
        assert run_cli("gen-data", "--config", tiny_config) == 2

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_task_without_labels_is_config_error_before_any_work(self, tmp_path, capsys,
                                                                 command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "n_labels": 0, "local_labels": [],
                                    "diffuse_labels": []}))
        out = tmp_path / "out"
        assert run_cli(command, "--config", path, "--out", out) == 2
        assert capsys.readouterr().err == "config error: n_labels must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("kept", ["train", "val", "test"])
    def test_directory_holding_data_is_io_error_before_writing(
            self, tmp_path, tiny_config, capsys, kept):
        # read_dataset would mix the old files in with a second set
        out = tmp_path / "data"
        assert run_cli("gen-data", "--config", tiny_config, "--out", out) == 0
        for split in {"train", "val", "test"} - {kept}:
            shutil.rmtree(out / split)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**TINY, "n_nodes": 8, "n_train": 5}))
        capsys.readouterr()
        assert run_cli("gen-data", "--config", other, "--seed", 3, "--out", out) == 4
        assert str(out / kept) in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


class TestTrain:
    def test_end_to_end_artifacts(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--config", tiny_config, "--out", out) == 0
        assert (out / "checkpoint.ctgc").exists()
        assert (out / "train_log.ndjson").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"per_label", "macro", "thresholds"}
        assert len(metrics["thresholds"]) == 2
        stored = json.loads((out / "config.json").read_text())
        assert stored["variant"] == "cheb"
        assert stored["total_steps"] == 24
        summary = json.loads(capsys.readouterr().out.strip())
        assert "final_loss" in summary

    def test_trains_from_generated_dataset_directory(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        out = tmp_path / "run"
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--out", out) == 0
        layout = load_checkpoint(out / "checkpoint.ctgc").layout
        assert layout.d == 4
        assert layout.n_labels == 2

    def test_config_of_a_data_run_leaves_out_the_task(self, tmp_path, tiny_config):
        # the data's own shape: 9 nodes, 12 training volumes at 2.5 mm
        task = tmp_path / "task.json"
        task.write_text(json.dumps({**TINY, "n_nodes": 9, "spacing_z_mm": 2.5}))
        data, first, second, third = (tmp_path / name for name in
                                      ("data", "first", "second", "third"))
        run_cli("gen-data", "--config", task, "--out", data)
        assert run_cli("train", "--config", tiny_config, "--seed", 3, "--data", data,
                       "--out", first) == 0
        written = json.loads((first / "config.json").read_text())
        assert written["seed"] == 3
        assert not set(written) & {f.name for f in dataclasses.fields(SynthTaskConfig)
                                   if f.name != "seed"}
        # the file reads back to the same run, and task keys stay accepted
        assert run_cli("train", "--config", first / "config.json", "--data", data,
                       "--out", second) == 0
        assert run_cli("train", "--config", task, "--seed", 3, "--data", data,
                       "--out", third) == 0
        for name in ("config.json", "checkpoint.ctgc", "metrics.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes()
            assert (third / name).read_bytes() == (first / name).read_bytes()

    def test_variant_flag_selects_graphconv(self, tmp_path, tiny_config):
        out = tmp_path / "run"
        assert run_cli("train", "--config", tiny_config, "--variant",
                       "graphconv", "--out", out) == 0
        assert load_checkpoint(out / "checkpoint.ctgc").layout.variant is Variant.GRAPHCONV

    def test_edgeless_graph_under_cheb_is_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "spacing_z_mm": 100000.0}))
        assert run_cli("train", "--config", path, "--weight-fn", "exp",
                       "--out", tmp_path / "run") == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_missing_data_directory_is_io_error(self, tmp_path, tiny_config):
        assert run_cli("train", "--config", tiny_config,
                       "--data", tmp_path / "nope", "--out", tmp_path / "r") == 4

    def test_mixed_feature_width_is_io_error_before_training(self, tmp_path, tiny_config):
        data, out = tmp_path / "data", tmp_path / "run"
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        narrow = Sample(np.zeros((TINY["n_nodes"], TINY["d"] - 1), dtype=np.float32),
                        np.zeros(TINY["n_labels"], dtype=np.uint8), 1.5)
        write_features(data / "train" / "00003.ctgf", narrow)
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--out", out) == 4
        assert not (out / "train_log.ndjson").exists()
        assert not list(out.glob("*.ctgc"))

    def test_split_wider_than_train_is_io_error_before_training(self, tmp_path):
        data, wide, out = tmp_path / "data", tmp_path / "wide", tmp_path / "run"
        for path, d in ((data, 4), (wide, 8)):
            config = tmp_path / f"config{d}.json"
            config.write_text(json.dumps({**TINY, "d": d}))
            run_cli("gen-data", "--config", config, "--out", path)
        shutil.rmtree(data / "val")
        shutil.move(wide / "val", data / "val")
        assert run_cli("train", "--config", tmp_path / "config4.json", "--data", data,
                       "--out", out) == 4
        assert not (out / "train_log.ndjson").exists()
        assert not list(out.glob("*.ctgc"))


    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_volume_under_two_nodes_is_io_error_before_training(
            self, tmp_path, tiny_config, n_nodes):
        data, out = tmp_path / "data", tmp_path / "run"
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        header = struct.pack("<4sIIIId", b"CTGF", 1, n_nodes, TINY["d"], TINY["n_labels"], 1.5)
        (data / "val" / "00002.ctgf").write_bytes(
            header + b"\x00" * (TINY["n_labels"] + 4 * n_nodes * TINY["d"]))
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--out", out) == 4
        assert not (out / "train_log.ndjson").exists()
        assert not list(out.glob("*.ctgc"))

    @pytest.mark.parametrize("d, n_labels", [(0, 2), (4, 0)])
    def test_volume_without_columns_or_labels_is_io_error_before_training(
            self, tmp_path, capsys, d, n_labels):
        # every split agrees on the shape, so only the file check can catch it
        data, out = tmp_path / "data", tmp_path / "run"
        header = struct.pack("<4sIIIId", b"CTGF", 1, 6, d, n_labels, 1.5)
        for split in ("train", "val", "test"):
            (data / split).mkdir(parents=True)
            for i in range(3):
                (data / split / f"{i:05d}.ctgf").write_bytes(
                    header + b"\x00" * (n_labels + 4 * 6 * d))
        assert run_cli("train", "--data", data, "--out", out) == 4
        assert str(data / "train" / "00000.ctgf") in capsys.readouterr().err
        assert not (out / "train_log.ndjson").exists()

    def test_infinite_spacing_is_io_error_naming_the_file(self, tmp_path, tiny_config,
                                                          capsys):
        data, out = tmp_path / "data", tmp_path / "run"
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        bad = data / "train" / "00003.ctgf"
        raw = bytearray(bad.read_bytes())
        raw[20:28] = struct.pack("<d", np.inf)  # spacing_z_mm
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--out", out) == 4
        assert str(bad) in capsys.readouterr().err
        assert not (out / "train_log.ndjson").exists()

    @pytest.mark.parametrize("variant", ["cheb", "graphconv"])
    def test_builds_a_laplacian_only_for_cheb(self, tmp_path, tiny_config, variant,
                                              lambda_max_calls):
        data = tmp_path / "data"
        write_mixed_volumes(data)
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--variant", variant, "--out", tmp_path / "run") == 0
        distinct = {key for keys in MIXED_KEYS.values() for key in keys}
        assert len(lambda_max_calls) == (len(distinct) if variant == "cheb" else 0)

    @pytest.mark.parametrize("variant", ["cheb", "graphconv"])
    def test_builds_an_adjacency_only_for_graphconv(self, tmp_path, tiny_config, variant,
                                                    built_adjacencies):
        data = tmp_path / "data"
        write_mixed_volumes(data)
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--variant", variant, "--out", tmp_path / "run") == 0
        distinct = {key for keys in MIXED_KEYS.values() for key in keys}
        assert len(built_adjacencies) == len(set(built_adjacencies)) == \
            (len(distinct) if variant == "graphconv" else 0)

    def test_prepares_each_graph_once(self, tmp_path, tiny_config, prepared_graphs):
        data = tmp_path / "data"
        write_mixed_volumes(data)
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--out", tmp_path / "run") == 0
        distinct = {key for keys in MIXED_KEYS.values() for key in keys}
        assert len(prepared_graphs) == len(set(prepared_graphs)) == len(distinct)

    def test_rerun_into_one_directory_leaves_only_its_own_files(self, tmp_path):
        # 8 steps write quarter checkpoints at steps 2, 4, 6 and 8; 12 steps
        # at 3, 6, 9 and 12
        configs = {}
        for steps in (8, 12):
            configs[steps] = tmp_path / f"steps{steps}.json"
            configs[steps].write_text(json.dumps({**TINY, "total_steps": steps}))
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run_cli("train", "--config", configs[8], "--out", out) == 0
        (out / "notes.txt").write_text("not the run's")
        assert run_cli("train", "--config", configs[12], "--out", out) == 0
        assert run_cli("train", "--config", configs[12], "--out", fresh) == 0
        files = {p.name: p.read_bytes() for p in fresh.iterdir()}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == \
            {**files, "notes.txt": b"not the run's"}

    def test_failed_rerun_leaves_none_of_the_earlier_run(self, tmp_path, tiny_config):
        out = tmp_path / "run"
        assert run_cli("train", "--config", tiny_config, "--out", out) == 0
        (out / "notes.txt").write_text("not the run's")
        assert run_cli("train", "--config", tiny_config, "--data", tmp_path / "nope",
                       "--out", out) == 4
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_numeric_failure_is_the_last_line_of_the_log(self, tmp_path):
        # the loss is NaN at step 2: the log holds steps 0 and 1, then why it stopped
        config = tmp_path / "blowup.json"
        config.write_text(json.dumps({**TINY, "max_lr": 1e300, "total_steps": 8,
                                      "warmup_steps": 1, "log_every": 1}))
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            assert run_cli("train", "--config", config, "--out", out) == 3

        def strict(token):
            raise ValueError(f"not strict JSON: {token}")

        *logged, failure = [json.loads(line, parse_constant=strict)
                            for line in (out / "train_log.ndjson").read_text().splitlines()]
        assert [entry["step"] for entry in logged] == [0, 1]
        assert failure["error"] == "NumericError"
        assert failure["step"] == 2
        assert 1e299 < failure["lr"] <= 1e300
        norms = failure["grad_norms"]
        assert len(norms) == len(init_params(TINY["d"], TINY["n_labels"]).layout.entries)
        assert set(norms) == {None}  # NaN norms, written as null
        # the step-2 checkpoint's parameters are finite, its scores are not
        with np.errstate(all="ignore"):
            assert run_cli("eval", "--config", config, "--out", tmp_path / "eval",
                           "--checkpoint", out / "checkpoint_step0000002.ctgc") == 3
        assert not (tmp_path / "eval" / "metrics.json").exists()


class TestBlasThreadCount:
    BATCH = {"total_steps": 6, "warmup_steps": 2, "batch_size": 32, "log_every": 2}

    def training_bytes(self, tmp_path, config, data, variant):
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "slicegraph.cli", "train", "--config", config,
                            "--data", data, "--variant", variant, "--out", out],
                           env=child_env(OPENBLAS_NUM_THREADS=threads), check=True,
                           capture_output=True, timeout=300)
            runs[threads] = [(out / name).read_bytes()
                             for name in ("checkpoint.ctgc", "train_log.ndjson")]
        return runs

    @pytest.mark.parametrize("variant", ["cheb", "graphconv"])
    def test_training_bytes_do_not_depend_on_blas_threads(self, tmp_path, variant):
        # passes of 32 desk-sized samples make matmuls large enough for
        # OpenBLAS to split them across threads
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            **TINY, **self.BATCH, "n_nodes": 20, "d": 16, "n_train": 64, "n_val": 8,
            "n_test": 8}))
        data = tmp_path / "data"
        assert run_cli("gen-data", "--config", config, "--out", data) == 0
        runs = self.training_bytes(tmp_path, config, data, variant)
        assert runs["1"] == runs["2"]

    @pytest.mark.parametrize("variant", ["cheb", "graphconv"])
    def test_mixed_volume_bytes_do_not_depend_on_blas_threads(self, tmp_path, variant):
        # one pass spans the graphs of every length and spacing in a step
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY, **self.BATCH, "d": 16}))
        rng = np.random.default_rng(8)
        data = tmp_path / "data"
        for split, count in (("train", 64), ("val", 8), ("test", 8)):
            write_dataset(data / split, [
                Sample(rng.normal(size=(int(rng.integers(16, 49)), 16)).astype(np.float32),
                       rng.integers(0, 2, size=TINY["n_labels"]).astype(np.uint8),
                       float(rng.choice([0.625, 1.25, 2.5, 5.0])))
                for _ in range(count)])
        runs = self.training_bytes(tmp_path, config, data, variant)
        assert runs["1"] == runs["2"]


class TestEval:
    def test_round_trip_from_checkpoint(self, tmp_path, tiny_config, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        run_cli("train", "--config", tiny_config, "--data", data, "--out", run)
        capsys.readouterr()
        out = tmp_path / "eval"
        assert run_cli("eval", "--config", tiny_config,
                       "--checkpoint", run / "checkpoint.ctgc",
                       "--data", data, "--out", out) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["checkpoint"].endswith("checkpoint.ctgc")
        assert (out / "metrics.json").exists()

    def test_prepares_each_scored_graph_once(self, tmp_path, tiny_config, prepared_graphs):
        data, run = tmp_path / "data", tmp_path / "run"
        write_mixed_volumes(data)
        assert run_cli("train", "--config", tiny_config, "--data", data, "--out", run) == 0
        prepared_graphs.clear()
        assert run_cli("eval", "--config", tiny_config, "--data", data,
                       "--checkpoint", run / "checkpoint.ctgc") == 0
        scored = set(MIXED_KEYS["val"] + MIXED_KEYS["test"])
        assert len(prepared_graphs) == len(set(prepared_graphs)) == len(scored)

    @pytest.mark.parametrize("variant", ["cheb", "graphconv"])
    def test_builds_a_laplacian_only_for_cheb(self, tmp_path, tiny_config, variant,
                                              lambda_max_calls):
        data, run = tmp_path / "data", tmp_path / "run"
        write_mixed_volumes(data)
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--variant", variant, "--out", run) == 0
        lambda_max_calls.clear()
        assert run_cli("eval", "--config", tiny_config, "--data", data,
                       "--checkpoint", run / "checkpoint.ctgc") == 0
        scored = set(MIXED_KEYS["val"] + MIXED_KEYS["test"])
        assert len(lambda_max_calls) == (len(scored) if variant == "cheb" else 0)

    @pytest.mark.parametrize("variant", ["cheb", "graphconv"])
    def test_builds_an_adjacency_only_for_graphconv(self, tmp_path, tiny_config, variant,
                                                    built_adjacencies):
        data, run = tmp_path / "data", tmp_path / "run"
        write_mixed_volumes(data)
        assert run_cli("train", "--config", tiny_config, "--data", data,
                       "--variant", variant, "--out", run) == 0
        built_adjacencies.clear()
        assert run_cli("eval", "--config", tiny_config, "--data", data,
                       "--checkpoint", run / "checkpoint.ctgc") == 0
        scored = set(MIXED_KEYS["val"] + MIXED_KEYS["test"])
        assert len(built_adjacencies) == len(set(built_adjacencies)) == \
            (len(scored) if variant == "graphconv" else 0)

    def test_failed_rerun_leaves_no_earlier_metrics(self, tmp_path, tiny_config):
        data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        run_cli("train", "--config", tiny_config, "--data", data, "--out", run)
        argv = ("eval", "--config", tiny_config, "--data", data,
                "--checkpoint", run / "checkpoint.ctgc", "--out", out)
        assert run_cli(*argv) == 0
        (out / "notes.txt").write_text("not the run's")
        shutil.rmtree(data / "test")
        assert run_cli(*argv) == 4
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_non_finite_logits_are_numeric_failure(self, tmp_path, tiny_config, capsys):
        run, out = tmp_path / "run", tmp_path / "eval"
        assert run_cli("train", "--config", tiny_config, "--out", run) == 0
        params = load_checkpoint(run / "checkpoint.ctgc")
        flat = params.flat.copy()
        flat[0] = np.nan
        save_checkpoint(run / "nan.ctgc", ModelParams(params.layout, flat))
        capsys.readouterr()
        assert run_cli("eval", "--config", tiny_config, "--checkpoint", run / "nan.ctgc",
                       "--out", out) == 3
        assert capsys.readouterr().err.startswith("numeric failure: ")
        assert not (out / "metrics.json").exists()

    def test_q_full_reads_no_train_split(self, tmp_path, tiny_config, monkeypatch):
        # train/ holds taller volumes (12 nodes) than val/ and test/ (6)
        tall = tmp_path / "tall.json"
        tall.write_text(json.dumps({**TINY, "n_nodes": 12}))
        data, other, run = tmp_path / "data", tmp_path / "other", tmp_path / "run"
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        run_cli("gen-data", "--config", tall, "--out", other)
        shutil.rmtree(data / "train")
        shutil.move(other / "train", data / "train")
        run_cli("train", "--config", tiny_config, "--data", data, "--out", run)
        argv = ("eval", "--config", tiny_config, "--data", data,
                "--checkpoint", run / "checkpoint.ctgc")
        read = []
        original = slicegraph.data.read_features
        monkeypatch.setattr(slicegraph.data, "read_features",
                            lambda path: read.append(Path(path).parent.name) or original(path))
        assert run_cli(*argv, "--q", "full", "--out", tmp_path / "q-full") == 0
        assert set(read) == {"val", "test"}
        # q=full is each scored volume's n_nodes - 1; a q of at least that
        # connects every pair of nodes, so a q of 11 scores the same bytes
        assert run_cli(*argv, "--q", 11, "--out", tmp_path / "q-11") == 0
        assert (tmp_path / "q-full" / "metrics.json").read_bytes() == \
            (tmp_path / "q-11" / "metrics.json").read_bytes()
        shutil.rmtree(data / "train")
        assert run_cli(*argv, "--q", "full", "--out", tmp_path / "without-train") == 0
        assert (tmp_path / "q-full" / "metrics.json").read_bytes() == \
            (tmp_path / "without-train" / "metrics.json").read_bytes()

    @pytest.mark.parametrize("odd, splits", [
        ({"d": 8}, ("train", "val", "test")),
        ({"n_labels": 3, "diffuse_labels": [1, 2]}, ("train", "val", "test")),
        ({"d": 8}, ("test",)),
    ], ids=["d", "n_labels", "d_test_only"])
    def test_split_unlike_checkpoint_is_io_error_before_scoring(
            self, tmp_path, tiny_config, monkeypatch, odd, splits):
        data, other, run = tmp_path / "data", tmp_path / "other", tmp_path / "run"
        other_config = tmp_path / "other.json"
        other_config.write_text(json.dumps({**TINY, **odd}))
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        run_cli("gen-data", "--config", other_config, "--out", other)
        run_cli("train", "--config", tiny_config, "--data", data, "--out", run)
        for split in splits:
            shutil.rmtree(data / split)
            shutil.move(other / split, data / split)
        scored = []
        monkeypatch.setattr(slicegraph.cli, "score", lambda *a, **k: scored.append(a))
        assert run_cli("eval", "--config", tiny_config, "--data", data,
                       "--checkpoint", run / "checkpoint.ctgc",
                       "--out", tmp_path / "eval") == 4
        assert not scored
        assert not (tmp_path / "eval" / "metrics.json").exists()

    @pytest.mark.parametrize("odd, shape", [
        ({"d": 6}, "d=6, n_labels=2"),
        ({"n_labels": 3, "diffuse_labels": [1, 2]}, "d=4, n_labels=3"),
    ], ids=["d", "n_labels"])
    def test_task_unlike_checkpoint_is_config_error_before_generating(
            self, tmp_path, tiny_config, monkeypatch, capsys, odd, shape):
        run = tmp_path / "run"
        assert run_cli("train", "--config", tiny_config, "--out", run) == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**TINY, **odd}))
        generated = []
        monkeypatch.setattr(slicegraph.cli, "generate_split",
                            lambda *a: generated.append(a))
        capsys.readouterr()
        assert run_cli("eval", "--config", other,
                       "--checkpoint", run / "checkpoint.ctgc") == 2
        err = capsys.readouterr().err
        assert f"the task: {shape}; {run / 'checkpoint.ctgc'} has d=4, n_labels=2" in err
        assert not generated

    def test_directory_named_like_a_feature_file_is_io_error(
            self, tmp_path, tiny_config, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        run_cli("gen-data", "--config", tiny_config, "--out", data)
        run_cli("train", "--config", tiny_config, "--data", data, "--out", run)
        (data / "test" / "d.ctgf").mkdir()
        capsys.readouterr()
        assert run_cli("eval", "--config", tiny_config, "--data", data,
                       "--checkpoint", run / "checkpoint.ctgc",
                       "--out", tmp_path / "eval") == 4
        assert "d.ctgf" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_corrupt_checkpoint_is_io_error(self, tmp_path, tiny_config):
        bogus = tmp_path / "bogus.ctgc"
        bogus.write_bytes(b"XXXX" + b"\x00" * 32)
        assert run_cli("eval", "--config", tiny_config,
                       "--checkpoint", bogus) == 4

    @pytest.mark.parametrize("index, bad_shape", [
        (4, (4, 3)),     # layer 2 ff_weight
        (3, (2, 4, 4)),  # layer 2 thetas with K=2 under a K=3 header
    ])
    def test_tensor_disagreeing_with_header_is_io_error(
            self, tmp_path, tiny_config, index, bad_shape):
        params = init_params(TINY["d"], TINY["n_labels"], Variant.CHEB, seed=0)
        tensors = list(params.layout.views(params.flat))
        tensors[index] = np.zeros(bad_shape)
        parts = [struct.pack("<4sIIIII", b"CTGC", 1, TINY["n_labels"], TINY["d"], 3, 3)]
        for t in tensors:
            parts.append(struct.pack(f"<{1 + t.ndim}I", t.ndim, *t.shape))
            parts.append(np.ascontiguousarray(t, dtype="<f8").tobytes())
        bad = tmp_path / "bad.ctgc"
        bad.write_bytes(b"".join(parts))
        assert run_cli("eval", "--config", tiny_config, "--checkpoint", bad) == 4


def _no_constant(name):
    raise AssertionError(f"strict JSON has no {name}")


class TestGradcheck:
    def test_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert run_cli("gradcheck", "--trials", 3, "--seed", 7,
                       "--out", out) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["passed"] is True
        assert payload["n_trials"] == 3
        stored = json.loads((out / "gradcheck.json").read_text())
        assert stored == payload

    def test_numeric_failure_exit_code(self, capsys):
        # a huge step size makes central differences useless on purpose
        assert run_cli("gradcheck", "--trials", 2, "--epsilon", 1.0) == 3
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["passed"] is False

    def test_nan_error_fails(self, tmp_path, capsys):
        # a step this large overflows every central difference to NaN,
        # which strict JSON writes as null
        out = tmp_path / "gc"
        with np.errstate(all="ignore"):
            assert run_cli("gradcheck", "--trials", 2, "--epsilon", 1e308,
                           "--out", out) == 3
        for text in (capsys.readouterr().out, (out / "gradcheck.json").read_text()):
            payload = json.loads(text, parse_constant=_no_constant)
            assert payload["passed"] is False
            assert payload["max_rel_error"] is None
            assert [trial["rel_error"] for trial in payload["trials"]] == [None, None]


class TestRobustness:
    def test_curves_and_control(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "rob"
        assert run_cli("robustness", "--config", tiny_config,
                       "--shifts", "0,1,2", "--out", out) == 0
        report = json.loads((out / "robustness.json").read_text())
        assert report["shifts"] == [0, 1, 2]
        assert set(report["variants"]) == {"cheb", "graphconv"}
        for block in report["variants"].values():
            assert [p["shift"] for p in block["curve"]] == [0, 1, 2]
            assert block["curve"][0]["macro_f1"] == block["baseline_macro_f1"]
        control = [p["macro_f1"] for p in report["control"]["curve"]]
        assert len(set(control)) == 1  # bit-stable under wrap on full graph
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["shifts"] == [0, 1, 2]

    def test_wrap_mode_flag(self, tmp_path, tiny_config):
        out = tmp_path / "rob"
        assert run_cli("robustness", "--config", tiny_config, "--mode", "wrap",
                       "--shifts", "0,2", "--out", out) == 0
        assert json.loads((out / "robustness.json").read_text())["mode"] == "wrap"

    @pytest.mark.parametrize("shifts", ["0,6", "0,-6"])
    def test_shift_out_of_range_is_config_error_before_training(
            self, tmp_path, tiny_config, monkeypatch, capsys, shifts):
        trained = []
        monkeypatch.setattr(slicegraph.experiments, "train",
                            lambda *a, **k: trained.append(a))
        out = tmp_path / "rob"
        assert run_cli("robustness", "--config", tiny_config, "--shifts", shifts,
                       "--out", out) == 2
        assert "|shift| must be < 6" in capsys.readouterr().err
        assert not trained
        assert not (out / "robustness.json").exists()

    def test_unknown_mode_is_rejected_before_training(self, tmp_path, monkeypatch, capsys):
        trained = []
        monkeypatch.setattr(slicegraph.experiments, "train",
                            lambda *a, **k: trained.append(a))
        with pytest.raises(ValueError, match="mode") as excinfo:
            run_robustness_experiment(SynthTaskConfig(n_nodes=6), GraphConfig(q=2),
                                      TrainConfig(), mode="zigzag")
        # the config check in front of every command allows the same modes,
        # and names the file and the key
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY, "shift_mode": "zigzag"}))
        capsys.readouterr()
        assert run_cli("robustness", "--config", config, "--out", tmp_path / "rob") == 2
        assert "'pad' or 'wrap', got 'zigzag'" in str(excinfo.value)
        assert capsys.readouterr().err == (f"config error: config {config}: shift_mode must be "
                                           "'pad' or 'wrap', got 'zigzag'\n")
        assert run_cli("robustness", "--mode", "zigzag") == 2
        assert not trained


class TestAblate:
    def test_single_cell_grid(self, tmp_path, capsys):
        cfg = dict(TINY)
        cfg.update({"variants": ["graphconv"], "qs": [2],
                    "weight_fns": ["inverse-dm"], "n_seeds": 2})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "abl"
        assert run_cli("ablate", "--config", path, "--out", out) == 0
        report = json.loads((out / "ablation.json").read_text())
        assert len(report["cells"]) == 1
        cell = report["cells"][0]
        assert cell["variant"] == "graphconv"
        assert cell["q"] == 2
        assert len(cell["runs"]) == 2
        assert "mean" in cell and "std" in cell
        text = (out / "ablation.txt").read_text()
        assert "+/-" in text
        timing = json.loads((out / "ablation_timing.json").read_text())
        assert [list(entry) for entry in timing] == [["variant", "q", "weight_fn", "seconds"]]
        captured = capsys.readouterr()
        assert captured.out.strip()
        (line,) = captured.err.splitlines()
        assert re.fullmatch(r"ablate: graphconv q=2 inverse-dm: auroc \d\.\d{4} \(\d+\.\d s\)",
                            line)
        assert f"{cell['mean']['auroc']:.4f}" in line

    def test_seeds_flag_overrides_config(self, tmp_path):
        cfg = dict(TINY)
        cfg.update({"variants": ["graphconv"], "qs": ["full"],
                    "weight_fns": ["exp"], "n_seeds": 3})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "abl"
        assert run_cli("ablate", "--config", path, "--seeds", 1,
                       "--out", out) == 0
        report = json.loads((out / "ablation.json").read_text())
        assert report["grid"]["n_seeds"] == 1
        assert report["cells"][0]["q"] == 5  # "full" on a 6-node graph


class TestInspectGraph:
    def test_structural_summary(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("inspect-graph", "--n-nodes", 3, "--q", 1,
                       "--weight-fn", "const", "--out", out) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["n_edges"] == 2
        assert payload["degree"] == {"min": 1.0, "max": 2.0,
                                     "mean": pytest.approx(4.0 / 3.0)}
        assert payload["scaled_spectrum"]["min"] == pytest.approx(-1.0)
        stored = json.loads((out / "graph.json").read_text())
        assert stored == payload

    def test_full_band_keyword(self, capsys):
        assert run_cli("inspect-graph", "--n-nodes", 5, "--q", "full",
                       "--weight-fn", "inverse-dm") == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["q"] == 4
        assert payload["fully_connected"] is True
        assert payload["n_edges"] == 10

    def test_edgeless_graph_is_numeric_failure(self, capsys):
        # exp weights at 100 m spacing underflow to zero: no edge, no spectrum
        assert run_cli("inspect-graph", "--n-nodes", 5, "--q", 1, "--weight-fn", "exp",
                       "--spacing-mm", 100000) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_infinite_spacing_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run_cli("inspect-graph", "--n-nodes", 5, "--q", 2, "--spacing-mm", "inf",
                       "--out", out) == 2
        assert "--spacing-mm must be a finite number, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_paper_scale_band(self, capsys):
        assert run_cli("inspect-graph", "--n-nodes", 80, "--q", 16,
                       "--weight-fn", "inverse-dm") == 0
        assert json.loads(capsys.readouterr().out.strip())["n_edges"] == 1144


class TestConfigHandling:
    def test_written_config_reads_back_to_the_same_run(self, tmp_path, tiny_config):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("train", "--config", tiny_config, "--seed", 3, "--q", "full",
                       "--variant", "graphconv", "--weight-fn", "exp", "--out", first) == 0
        assert run_cli("train", "--config", first / "config.json", "--out", second) == 0
        for name in ("config.json", "checkpoint.ctgc", "metrics.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_dataclass_settings_take_their_fields_defaults(self):
        # seed is the one run seed that gen-data, train and gradcheck share
        owned = {f.name for cls in (SynthTaskConfig, TrainConfig, AblationGrid)
                 for f in dataclasses.fields(cls)} - {"seed"}
        assert [s.key for s in SETTINGS if s.key in owned and s.default is not None] == []

    def test_training_keys_left_out_are_train_configs_defaults(self, tmp_path):
        recipe = dataclasses.asdict(TrainConfig())
        task = tmp_path / "task.json"
        task.write_text(json.dumps({key: value for key, value in TINY.items()
                                    if key not in recipe}))
        assert run_cli("train", "--config", task, "--out", tmp_path / "r") == 0
        written = json.loads((tmp_path / "r" / "config.json").read_text())
        assert {key: written[key] for key in recipe} == recipe

    def test_adam_eps_is_not_a_setting(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "adam_eps": 1e-6}))
        assert run_cli("train", "--config", path, "--out", tmp_path / "r") == 2

    def test_q_spelling_other_than_full_is_rejected(self, tmp_path, tiny_config, capsys):
        assert run_cli("train", "--config", tiny_config, "--q", "fc",
                       "--out", tmp_path / "r") == 2
        assert run_cli("inspect-graph", "--n-nodes", 5, "--q", "fc") == 2
        assert "'full'" in capsys.readouterr().err

    def test_readme_lists_exactly_the_accepted_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("Accepted keys:", 1)[1].lstrip("\n").split("\n\n", 1)[0]
        keys = {setting.key for setting in SETTINGS if setting.key}
        assert set(re.findall(r"`([a-z0-9_]+)`", section)) == keys
        assert {f.name for cls in (SynthTaskConfig, TrainConfig, AblationGrid)
                for f in dataclasses.fields(cls)} <= keys

    @pytest.mark.parametrize("setting, command", [
        pytest.param(setting, command and command.rstrip("!"),
                     id=f"{setting.key or setting.flag}-{(command or 'config').rstrip('!')}")
        for setting in SETTINGS if past_bound(setting)
        for command in ((None,) if setting.key else ()) + setting.commands])
    def test_first_value_past_a_bound_is_config_error_before_any_work(
            self, tmp_path, monkeypatch, capsys, setting, command):
        for work in ("generate_task", "run_ablation", "run_robustness_experiment",
                     "run_gradcheck", "prepare_graph"):
            monkeypatch.setattr(slicegraph.cli, work, _no_work)
        value, text, allowed = past_bound(setting)
        out = tmp_path / "out"
        if command is None:  # the config key, in a command that reads it
            path = tmp_path / "config.json"
            path.write_text(json.dumps({setting.key: value}))
            config_command = next((c for c in setting.commands if c in CONFIG_COMMANDS), "ablate")
            argv, where = (config_command, "--config", path), f"config {path}: {setting.key}"
        else:
            argv, where = (command, setting.flag, text, *REQUIRED_FLAGS.get(command, ())), setting.flag
        assert run_cli(*argv, "--out", out) == 2
        assert capsys.readouterr().err == f"config error: {where} must be {allowed}, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [None, [1], "abc"])
    def test_unparseable_seed_is_config_error(self, tmp_path, capsys, seed):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": seed}))
        assert run_cli("gen-data", "--config", path, "--out", tmp_path / "d") == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "d").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        assert run_cli("gen-data", "--config", path, "--out", tmp_path / "d") == 2
        assert capsys.readouterr().err == \
            f"config error: config {path}: unknown keys: learning_rate\n"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        assert run_cli("gen-data", "--config", path, "--out", tmp_path / "d") == 2

    @pytest.mark.parametrize("text", [
        '{"signal_scale": NaN}', '{"noise_std": Infinity}', '{"max_lr": 1e400}',
        '{"weight_decay": 1e999}', '{"weight_decay": NaN}', '{"max_lr": -Infinity}',
    ])
    def test_non_finite_number_is_config_error_before_any_work(
            self, tmp_path, monkeypatch, capsys, text):
        trained = []
        monkeypatch.setattr(slicegraph.cli, "train", lambda *a, **k: trained.append(a))
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "r"
        assert run_cli("train", "--config", path, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"config error: config {path}: ")
        assert not trained
        assert not out.exists()

    @pytest.mark.parametrize("key, text", [
        ("max_lr", "1" + "0" * 400), ("n_train", "8.5"), ("n_nodes", "20.5"),
        ("d", "16.0"), ("total_steps", "4.5"), ("batch_size", "2.5"), ("max_lr", "true"),
        ("label_rate", "false"), ("micro", '"no"'), ("q", "2.5"), ("seed", "1.5"),
        ("seed", "true"), ("shifts", "[0, 2.5]"), ("n_seeds", "2.7"),
        ("local_labels", "[0.0]"), ("qs", '[4, "all"]'), ("variants", '["cheb", 1]'),
        ("weight_fn", "NaN"), ("n_seeds", "1" + "0" * 400),
    ], ids=lambda value: value[:12])
    def test_value_of_the_wrong_type_is_config_error_before_any_work(
            self, tmp_path, monkeypatch, capsys, key, text):
        trained = []
        monkeypatch.setattr(slicegraph.cli, "train", lambda *a, **k: trained.append(a))
        path = tmp_path / "config.json"
        path.write_text(f'{{"{key}": {text}}}')
        out = tmp_path / "r"
        assert run_cli("train", "--config", path, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config {path}: {key} must be ")
        assert not trained
        assert not out.exists()

    def test_integer_in_a_float_setting_is_written_back_as_given(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "signal_scale": 2, "noise_std": 0.5}))
        assert run_cli("gen-data", "--config", path, "--out", tmp_path / "d") == 0
        written = (tmp_path / "d" / "config.json").read_text()
        assert '"signal_scale": 2,' in written
        assert '"noise_std": 0.5,' in written

    def test_negative_config_seed_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "seed": -2}))
        assert run_cli("train", "--config", path, "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -2\n"
        assert not (tmp_path / "r").exists()

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert run_cli("gen-data", "--config", path, "--out", tmp_path / "d") == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_invalid_flag_value_exits_two(self, tmp_path, capsys):
        assert run_cli("train", "--variant", "transformer",
                       "--out", tmp_path / "r") == 2
        capsys.readouterr()

    def test_flag_beats_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "q": 1, "variant": "graphconv",
                                    "seed": 3}))

        class Args:
            config = str(path)
            seed = None
            q = "2"
            weight_fn = None
            variant = None
            shifts = None
            mode = None
            seeds = None
            micro = False

        settings = build_settings(Args())
        assert settings.graph.q == 2  # flag wins
        assert settings.variant is Variant.GRAPHCONV  # config survives
        assert settings.task.seed == 3
        assert settings.train.seed == 3

    def test_q_full_resolves_per_volume(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "q": "full"}))

        class Args:
            config = str(path)
            seed = None
            q = None
            weight_fn = "exp"
            variant = None
            shifts = None
            mode = None
            seeds = None
            micro = False

        settings = build_settings(Args())
        assert settings.graph.q == "full"
        assert settings.graph.weight_fn is WeightFn.EXP_DECAY
        for n_nodes in (2, TINY["n_nodes"], 40):
            assert prepare_graph(settings.graph, n_nodes, 1.5).q == n_nodes - 1

    def test_q_full_is_written_back_and_resolved_per_loaded_volume(
            self, tmp_path, tiny_config, monkeypatch):
        data = tmp_path / "data"
        write_mixed_volumes(data)  # volumes of 5 to 8 nodes
        specs = []
        original = slicegraph.model.prepare_graph
        monkeypatch.setattr(slicegraph.model, "prepare_graph",
                            lambda *args: specs.append(original(*args)) or specs[-1])

        def train_and_eval(q):
            assert run_cli("train", "--config", tiny_config, "--q", q, "--data", data,
                           "--out", tmp_path / f"train-{q}") == 0
            assert run_cli("eval", "--config", tiny_config, "--q", q, "--data", data,
                           "--checkpoint", tmp_path / f"train-{q}" / "checkpoint.ctgc",
                           "--out", tmp_path / f"eval-{q}") == 0

        train_and_eval("full")
        assert {(spec.n_nodes, spec.q) for spec in specs} == {(n, n - 1) for n in (5, 6, 7, 8)}
        train_and_eval("7")
        assert json.loads((tmp_path / "train-full" / "config.json").read_text())["q"] == "full"
        # a q of at least each volume's n_nodes - 1 builds the same graphs
        for name in ("checkpoint.ctgc", "metrics.json"):
            assert (tmp_path / "train-full" / name).read_bytes() == \
                (tmp_path / "train-7" / name).read_bytes()
        full, seven = (json.loads((tmp_path / f"eval-{q}" / "metrics.json").read_text())
                       for q in ("full", "7"))
        assert {**full, "checkpoint": None} == {**seven, "checkpoint": None}

    def test_shifts_accept_list_in_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TINY, "shifts": [0, 3],
                                    "shift_mode": "wrap"}))

        class Args:
            config = str(path)
            seed = None
            q = None
            weight_fn = None
            variant = None
            shifts = None
            mode = None
            seeds = None
            micro = False

        settings = build_settings(Args())
        assert settings.shifts == (0, 3)
        assert settings.shift_mode == "wrap"


class TestExitCodes:
    def test_engine_error_is_not_a_config_error(self, tmp_path, tiny_config, monkeypatch):
        def broken(*args):
            raise ValueError("engine bug")

        monkeypatch.setattr(slicegraph.model, "per_graph", broken)
        with pytest.raises(ValueError, match="engine bug"):
            run_cli("train", "--config", tiny_config, "--out", tmp_path / "r")

    @pytest.mark.parametrize("argv, message", [
        (("gradcheck", "--trials", 0), "n_trials must be >= 1, got 0"),
        (("gradcheck", "--epsilon", 0), "epsilon must be positive and finite, got 0.0"),
        (("gradcheck", "--epsilon", "inf"), "--epsilon must be a finite number, got inf"),
        (("robustness", "--shifts", "0,25"), "|shift| must be < 20, got 25"),
        (("train", "--seed", -1), "seed must be >= 0, got -1"),
        (("gen-data", "--seed", -1), "seed must be >= 0, got -1"),
        (("gradcheck", "--seed", -1), "seed must be >= 0, got -1"),
        (("inspect-graph", "--n-nodes", 1, "--q", "full"), "need at least 2 nodes, got 1"),
    ])
    def test_bad_input_is_config_error_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                        argv, message):
        trained = []
        monkeypatch.setattr(slicegraph.experiments, "train",
                            lambda *a, **k: trained.append(a))
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not trained
        assert not out.exists() or not any(out.iterdir())
