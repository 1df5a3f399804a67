"""The command-line interface: subcommands, config precedence, artifacts,
and exit codes (0 ok, 2 config, 3 numeric, 4 I/O)."""

import json
import struct

import numpy as np
import pytest

from slicegraph.checkpoint import load_checkpoint
from slicegraph.cli import build_settings, main
from slicegraph.data import Sample, read_dataset, write_features
from slicegraph.graph import WeightFn
from slicegraph.model import Variant, init_params

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
        params = load_checkpoint(out / "checkpoint.ctgc")
        assert params.d == 4
        assert params.n_labels == 2

    def test_variant_flag_selects_graphconv(self, tmp_path, tiny_config):
        out = tmp_path / "run"
        assert run_cli("train", "--config", tiny_config, "--variant",
                       "graphconv", "--out", out) == 0
        assert load_checkpoint(out / "checkpoint.ctgc").variant is Variant.GRAPHCONV

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
        assert len(timing) == 1 and "seconds" in timing[0]
        assert capsys.readouterr().out.strip()

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

    def test_paper_scale_band(self, capsys):
        assert run_cli("inspect-graph", "--n-nodes", 80, "--q", 16,
                       "--weight-fn", "inverse-dm") == 0
        assert json.loads(capsys.readouterr().out.strip())["n_edges"] == 1144


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        assert run_cli("gen-data", "--config", path, "--out", tmp_path / "d") == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        assert run_cli("gen-data", "--config", path, "--out", tmp_path / "d") == 2

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

    def test_q_full_resolves_against_task_size(self, tmp_path):
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
        assert settings.graph.q == TINY["n_nodes"] - 1
        assert settings.graph.weight_fn is WeightFn.EXP_DECAY

    def test_q_full_resolves_against_loaded_data(self, tmp_path, tiny_config, capsys):
        tall = tmp_path / "tall.json"
        tall.write_text(json.dumps({**TINY, "n_nodes": 40}))
        data, run = tmp_path / "data", tmp_path / "run"
        run_cli("gen-data", "--config", tall, "--out", data)
        assert run_cli("train", "--config", tiny_config, "--q", "full",
                       "--data", data, "--out", run) == 0
        assert json.loads((run / "config.json").read_text())["q"] == 39
        # eval resolves "full" the same way
        for q in ("full", "39"):
            assert run_cli("eval", "--config", tiny_config, "--q", q, "--data", data,
                           "--checkpoint", run / "checkpoint.ctgc",
                           "--out", tmp_path / f"eval-{q}") == 0
        assert (tmp_path / "eval-full" / "metrics.json").read_bytes() == \
            (tmp_path / "eval-39" / "metrics.json").read_bytes()

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
