"""Acceptance gate: the shipped guarantees, each at its stated tolerance.

Every test prints exactly one line, `criterion NN PASS|FAIL <name> (...)`,
so a full run doubles as a checklist. Heavy runs (desk-scale training,
the ablation grid) are shared through module-scoped fixtures; the
determinism criterion repeats them from scratch and compares bytes.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from slicegraph.cli import main as cli_main
from slicegraph.data import SynthTaskConfig, read_features, write_features, Sample
from slicegraph.errors import (
    BadMagicError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from slicegraph.gradients import run_gradcheck
from slicegraph.graph import (
    GraphSpec,
    WeightFn,
    build_adjacency,
    edge_weight,
)
from slicegraph.metrics import (
    PredictionSet,
    auroc,
    binary_counts,
    evaluate,
    f1_recall_precision_accuracy,
    select_thresholds,
)
from slicegraph.model import (
    Variant,
    init_params,
    model_forward,
)
from slicegraph.checkpoint import load_checkpoint, save_checkpoint
from slicegraph.spectral import (
    cheb_apply,
    lambda_max,
    laplacian,
    scale_laplacian,
    scaled_laplacian_from_adjacency,
    spectral_filter_oracle,
)


class RelabelledGraph:
    """A graph given by its adjacency alone, as a node relabelling leaves a
    banded one; its L̂ comes from that adjacency."""

    def __init__(self, adjacency):
        self.adjacency = adjacency
        self.n_nodes = len(adjacency)
        self.lhat = scaled_laplacian_from_adjacency(adjacency)


@contextmanager
def criterion(number, name):
    """Print one pass/fail line no matter how the body exits."""
    info = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"criterion {number:02d} FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k}={v}" for k, v in info.items())
    suffix = f" ({detail}, {elapsed:.1f}s)" if detail else f" ({elapsed:.1f}s)"
    print(f"criterion {number:02d} PASS {name}{suffix}")


def random_spec(rng, n_max=16):
    n = int(rng.integers(2, n_max + 1))
    return GraphSpec(
        n_nodes=n,
        q=int(rng.integers(1, n)),
        spacing_z=float(rng.uniform(0.003, 0.05)),
        weight_fn=list(WeightFn)[int(rng.integers(len(WeightFn)))],
    )


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_training(tmp_path_factory):
    """One desk-scale spectral-variant training, as the command-line tool
    runs it, with artifacts on disk."""
    out = tmp_path_factory.mktemp("desk") / "run1"
    started = time.perf_counter()
    code = cli_main(["train", "--seed", "0", "--out", str(out)])
    elapsed = time.perf_counter() - started
    return {"out": out, "exit_code": code, "seconds": elapsed}


@pytest.fixture(scope="module")
def ablation_run(tmp_path_factory):
    """The full ablation grid, as the command-line tool runs it."""
    out = tmp_path_factory.mktemp("ablation") / "run1"
    started = time.perf_counter()
    code = cli_main(["ablate", "--seed", "0", "--out", str(out)])
    elapsed = time.perf_counter() - started
    return {"out": out, "exit_code": code, "seconds": elapsed}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_spectral_filter_matches_oracle():
    with criterion(1, "recurrence filter matches eigendecomposition oracle") as info:
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            spec = random_spec(rng)
            adj = build_adjacency(spec)
            d = int(rng.integers(1, 6))
            x = rng.normal(size=(spec.n_nodes, d))
            thetas = rng.normal(size=(3, d, d))
            fast = cheb_apply(scaled_laplacian_from_adjacency(adj), x, thetas)
            exact = spectral_filter_oracle(laplacian(adj), x, thetas)
            denom = max(np.linalg.norm(exact), 1e-30)
            worst = max(worst, np.linalg.norm(fast - exact) / denom)
        info["graphs"] = 200
        info["max_rel"] = f"{worst:.2e}"
        assert worst <= 1e-10


def test_02_laplacian_invariants():
    with criterion(2, "Laplacian symmetry, null row sums, spectrum bounds") as info:
        rng = np.random.default_rng(102)
        started = time.perf_counter()
        for _ in range(100):
            spec = random_spec(rng)
            lap = laplacian(build_adjacency(spec))
            np.testing.assert_array_equal(lap, lap.T)
            scale = max(np.abs(lap).max(), 1.0)
            assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * scale
            eigs = np.linalg.eigvalsh(lap)
            assert eigs[0] >= -1e-9
            lhat = scale_laplacian(lap, lambda_max(lap))
            scaled_eigs = np.linalg.eigvalsh(lhat.values)
            assert scaled_eigs[0] >= -1.0 - 1e-9
            assert scaled_eigs[-1] <= 1.0 + 1e-9
        info["specs"] = 100
        assert time.perf_counter() - started < 10.0


def test_03_gradients_match_finite_differences():
    with criterion(3, "analytic gradients vs central differences") as info:
        started = time.perf_counter()
        result = run_gradcheck(n_trials=20, seed=0, epsilon=1e-5)
        elapsed = time.perf_counter() - started
        info["trials"] = result["n_trials"]
        info["max_rel"] = f"{result['max_rel_error']:.2e}"
        assert result["passed"] is True
        assert result["max_rel_error"] <= 1e-5
        assert {t["variant"] for t in result["trials"]} == {"cheb", "graphconv"}
        assert elapsed < 60.0


def test_04_permutation_invariance_of_logits():
    with criterion(4, "pooled logits invariant to node relabelling") as info:
        rng = np.random.default_rng(104)
        worst = 0.0
        for variant in (Variant.CHEB, Variant.GRAPHCONV):
            graph = GraphSpec(10, 3, 0.015, WeightFn.INVERSE_DM)
            params = init_params(6, 4, variant, seed=7)
            h = rng.normal(size=(10, 6))
            base = model_forward(graph, h, params)
            for _ in range(50):
                perm = rng.permutation(10)
                permuted = RelabelledGraph(graph.adjacency[np.ix_(perm, perm)])
                out = model_forward(permuted, h[perm], params)
                worst = max(worst, np.abs(out - base).max())
        info["permutations"] = 100
        info["max_abs"] = f"{worst:.2e}"
        assert worst <= 1e-9


def test_05_edge_weight_formula():
    with criterion(5, "distance weights reproduce the closed forms") as info:
        rng = np.random.default_rng(105)
        worst = 0.0
        for _ in range(1000):
            gap = int(rng.integers(1, 40))
            s_z = float(rng.uniform(1e-3, 0.3))
            spec = GraphSpec(41, 40, s_z, WeightFn.INVERSE_DM)
            direct = 1.0 + 1.0 / (1.0 + 3.0 * gap * s_z)
            worst = max(worst, abs(edge_weight(0, gap, spec) - direct))
            spec = GraphSpec(41, 40, s_z, WeightFn.EXP_DECAY)
            direct = np.exp(-3.0 * gap * s_z)
            worst = max(worst, abs(edge_weight(0, gap, spec) - direct))
        info["pairs"] = 1000
        info["max_abs"] = f"{worst:.2e}"
        assert worst <= 1e-12
        worked = edge_weight(0, 1, GraphSpec(2, 1, 0.015, WeightFn.INVERSE_DM))
        assert worked == pytest.approx(1.956938, abs=1e-6)


def test_06_end_to_end_synthetic_learning(desk_training):
    with criterion(6, "desk-scale training reaches macro AUROC 0.95") as info:
        assert desk_training["exit_code"] == 0
        macro = json.loads((desk_training["out"] / "metrics.json").read_text())["macro"]
        info["macro_auroc"] = f"{macro['auroc']:.4f}"
        info["train_s"] = f"{desk_training['seconds']:.0f}"
        assert macro["auroc"] >= 0.95
        assert desk_training["seconds"] <= 300.0


def test_07_threshold_selection_beats_dense_grid():
    with criterion(7, "chosen thresholds never beaten by a 1001-point grid") as info:
        rng = np.random.default_rng(107)
        grid = np.linspace(0.0, 1.0, 1001)
        checked = 0
        for _ in range(100):
            m = int(rng.integers(2, 201))
            n_labels = int(rng.integers(1, 4))
            scores = rng.uniform(size=(m, n_labels))
            labels = rng.integers(0, 2, size=(m, n_labels))
            ps = PredictionSet(scores, labels)
            thresholds = select_thresholds(ps)
            for lab in range(n_labels):
                col_scores = scores[:, lab]
                col_labels = labels[:, lab]
                chosen = f1_recall_precision_accuracy(binary_counts(
                    col_scores, col_labels, thresholds[lab]))[0]
                best = max(
                    f1_recall_precision_accuracy(binary_counts(
                        col_scores, col_labels, t))[0]
                    for t in grid)
                assert chosen >= best
                checked += 1
        info["columns"] = checked


def test_08_auroc_oracle_and_null_distribution():
    with criterion(8, "rank AUROC equals pair counting; null sits near half") as info:
        rng = np.random.default_rng(108)
        for _ in range(100):
            m = int(rng.integers(2, 201))
            if rng.uniform() < 0.5:
                scores = rng.choice(np.linspace(0, 1, 7), size=m)  # heavy ties
            else:
                scores = rng.uniform(size=m)
            labels = rng.integers(0, 2, size=m)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            brute = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert auroc(scores, labels) == brute
        ps = PredictionSet(rng.uniform(size=(10_000, 4)),
                           rng.integers(0, 2, size=(10_000, 4)))
        report = evaluate(ps, np.full(4, 0.5))
        info["null_macro_auroc"] = f"{report.macro['auroc']:.4f}"
        assert 0.47 <= report.macro["auroc"] <= 0.53


def test_09_robustness_experiment_structure(tmp_path):
    with criterion(9, "shift sweep: exact baseline at zero, flat wrap control") as info:
        out = tmp_path / "robustness"
        started = time.perf_counter()
        code = cli_main(["robustness", "--seed", "0", "--shifts", "0,2,4,8,16",
                         "--out", str(out)])
        elapsed = time.perf_counter() - started
        assert code == 0
        report = json.loads((out / "robustness.json").read_text())
        assert report["shifts"] == [0, 2, 4, 8, 16]
        assert set(report["variants"]) == {"cheb", "graphconv"}
        for block in report["variants"].values():
            curve = block["curve"]
            assert [point["shift"] for point in curve] == [0, 2, 4, 8, 16]
            assert curve[0]["macro_f1"] == block["baseline_macro_f1"]
            assert curve[0]["per_label_f1"] == block["baseline_per_label_f1"]
        control = report["control"]["curve"]
        assert len({point["macro_f1"] for point in control}) == 1
        per_label = [tuple(point["per_label_f1"]) for point in control]
        assert len(set(per_label)) == 1
        info["wall_s"] = f"{elapsed:.0f}"
        assert elapsed <= 600.0


def test_10_ablation_grid_structure(ablation_run):
    with criterion(10, "full variant x band x weighting grid with seed stats") as info:
        assert ablation_run["exit_code"] == 0
        report = json.loads((ablation_run["out"] / "ablation.json").read_text())
        assert report["grid"]["variants"] == ["cheb", "graphconv"]
        assert report["grid"]["qs"] == [4, 16, 19]  # "full" on 20 nodes
        assert report["grid"]["weight_fns"] == ["inverse-dm", "exp", "const"]
        assert report["grid"]["n_seeds"] == 3
        cells = report["cells"]
        assert len(cells) == 18
        for cell in cells:
            assert "error" not in cell, cell
            assert len(cell["runs"]) == 3
            for key in ("f1", "recall", "precision", "accuracy", "auroc"):
                assert key in cell["mean"] and key in cell["std"]
                values = np.array([r[key] for r in cell["runs"]])
                np.testing.assert_allclose(cell["mean"][key], values.mean())
                np.testing.assert_allclose(cell["std"][key], values.std(ddof=1))
        tables = report["tables"]
        assert [row["connectivity"] for row in tables["connectivity_module"]] == [
            "fully-connected", "fully-connected", "banded(q=16)", "banded(q=16)"]
        assert [row["q"] for row in tables["neighbourhood_size"]] == [
            "4", "16", "19 (full)"]
        assert [row["weight_fn"] for row in tables["weight_function"]] == [
            "inverse-dm", "exp", "const"]
        text = (ablation_run["out"] / "ablation.txt").read_text()
        assert "+/-" in text
        info["cells"] = len(cells)
        info["wall_s"] = f"{ablation_run['seconds']:.0f}"
        assert ablation_run["seconds"] <= 2700.0


def test_11_determinism_of_training_and_ablation(desk_training, ablation_run,
                                                 tmp_path):
    with criterion(11, "identical seeds give byte-identical artifacts") as info:
        rerun_dir = tmp_path / "desk_repeat"
        assert cli_main(["train", "--seed", "0", "--out", str(rerun_dir)]) == 0
        first = desk_training["out"]
        repeated_names = sorted(p.name for p in rerun_dir.glob("*.ctgc"))
        assert repeated_names == sorted(p.name for p in first.glob("*.ctgc"))
        for name in (*repeated_names, "train_log.ndjson", "config.json", "metrics.json"):
            assert (rerun_dir / name).read_bytes() == (first / name).read_bytes()

        ablate_dir = tmp_path / "ablate_repeat"
        assert cli_main(["ablate", "--seed", "0", "--out", str(ablate_dir)]) == 0
        for name in ("ablation.json", "ablation.txt"):
            assert (ablate_dir / name).read_bytes() == \
                (ablation_run["out"] / name).read_bytes()
        info["checkpoints"] = len(repeated_names)


def test_12_serialization_round_trips_and_error_codes(tmp_path):
    with criterion(12, "bit-exact files; distinct corruption errors") as info:
        rng = np.random.default_rng(112)
        for i in range(100):
            sample = Sample(
                features=rng.normal(size=(int(rng.integers(2, 12)),
                                          int(rng.integers(1, 9)))).astype(np.float32),
                labels=rng.integers(0, 2, size=int(rng.integers(1, 6))).astype(np.uint8),
                spacing_z_mm=float(rng.uniform(0.5, 3.0)),
            )
            path = tmp_path / f"s{i}.ctgf"
            write_features(path, sample)
            first_bytes = path.read_bytes()
            loaded = read_features(path)
            write_features(path, loaded)
            assert path.read_bytes() == first_bytes

        params = init_params(5, 3, Variant.CHEB, seed=1)
        ck = tmp_path / "model.ctgc"
        save_checkpoint(ck, params)
        ck_bytes = ck.read_bytes()
        save_checkpoint(ck, load_checkpoint(ck))
        assert ck.read_bytes() == ck_bytes

        codes = set()
        for corrupt, expected in (
            (lambda b: b"XXXX" + b[4:], BadMagicError),
            (lambda b: b[:4] + b"\x63" + b[5:], VersionMismatchError),
            (lambda b: b[:-7], TruncatedPayloadError),
        ):
            bad = tmp_path / "bad.ctgf"
            bad.write_bytes(corrupt(first_bytes))
            with pytest.raises(expected) as excinfo:
                read_features(bad)
            codes.add(excinfo.value.code)
            bad_ck = tmp_path / "bad.ctgc"
            bad_ck.write_bytes(corrupt(ck_bytes))
            with pytest.raises(expected):
                load_checkpoint(bad_ck)
        assert codes == {"bad_magic", "version_mismatch", "truncated_payload"}
        info["samples"] = 100
