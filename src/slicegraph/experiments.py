"""The experiments: scoring, the axial-shift robustness sweep, and the
variant/connectivity/weighting ablation grid. Each returns its report;
the CLI writes the files.

Each runs at desk scale, a task and schedule small enough to train in
seconds on a laptop while keeping the full pipeline intact: the defaults
of `SynthTaskConfig` and `TrainConfig`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Sample, SynthTaskConfig, apply_z_shift, generate_task
from .errors import ConfigError, NumericError
from .graph import GraphConfig, WeightFn
from .metrics import MetricsReport, PredictionSet, evaluate, select_thresholds
from .model import GraphOperatorCache, ModelParams, Variant, graph_passes, pass_forward, sigmoid
from .train import TrainConfig, train

__all__ = [
    "predict",
    "score",
    "run_robustness_experiment",
    "AblationGrid",
    "run_ablation",
    "format_ablation_text",
    "DEFAULT_SHIFTS",
    "SHIFT_MODES",
]

DEFAULT_SHIFTS = (0, 2, 4, 8, 16)

# How `run_robustness_experiment` fills the rows a shift vacates.
SHIFT_MODES = ("pad", "wrap")


def predict(params: ModelParams, graphs: GraphOperatorCache,
            samples: list[Sample]) -> PredictionSet:
    """Sigmoid scores and true labels for a list of samples, in input order;
    one forward pass per pass from `graph_passes`, whatever the samples'
    (n_nodes, spacing). The graphs come from, and are added to, `graphs`,
    so every call of one command prepares each graph once. A logit that is
    not finite raises NumericError: it has no score."""
    scores = np.empty((len(samples), params.layout.n_labels))
    for positions, blocks in graph_passes(graphs.get(s) for s in samples):
        rows = np.concatenate([samples[i].features for i in positions])
        logits = pass_forward(blocks, rows, params)[0]
        if not np.isfinite(logits).all():
            raise NumericError("the model's logits are not finite")
        scores[positions] = sigmoid(logits)
    labels = np.stack([s.labels for s in samples])
    return PredictionSet(scores, labels)


def score(params: ModelParams, graphs: GraphOperatorCache, val_set: list[Sample],
          test_set: list[Sample], *, include_micro: bool = False
          ) -> tuple[np.ndarray, MetricsReport]:
    """Max-F1 thresholds picked on `val_set`, and the report on `test_set`
    at those thresholds."""
    thresholds = select_thresholds(predict(params, graphs, val_set))
    report = evaluate(predict(params, graphs, test_set), thresholds,
                      include_micro=include_micro)
    return thresholds, report


def _robustness_sweep(params: ModelParams, graphs: GraphOperatorCache,
                      samples: list[Sample], thresholds, shifts, *, wrap: bool) -> list[dict]:
    """F1 at each axial shift of the evaluation samples, at fixed
    thresholds. Vacated rows are zeros, the all-background row, unless
    `wrap` cycles the rows around."""
    curve = []
    for shift in shifts:
        shifted = [apply_z_shift(s, shift, wrap=wrap) for s in samples]
        report = evaluate(predict(params, graphs, shifted), thresholds)
        curve.append({
            "shift": int(shift),
            "macro_f1": report.macro["f1"],
            "per_label_f1": [lm.f1 for lm in report.per_label],
        })
    return curve


def run_robustness_experiment(task_cfg: SynthTaskConfig, graph_cfg: GraphConfig,
                              train_cfg: TrainConfig, *, shifts=DEFAULT_SHIFTS,
                              mode: str = "pad") -> dict:
    """Train both variants, sweep shifts, and add an invariance control.

    The control re-evaluates the spectral model under a fully connected
    constant-weight graph with wrap-around shifts. Wrapping is then a
    node permutation and that graph is permutation-symmetric, so its
    curve must be flat to the last bit; it anchors what "robust" means
    for the padded curves above it.

    `mode` is one of SHIFT_MODES; it and every shift are checked before
    anything trains.
    """
    if mode not in SHIFT_MODES:
        raise ValueError(
            f"shift mode must be {' or '.join(map(repr, SHIFT_MODES))}, got {mode!r}")
    n_nodes = task_cfg.n_nodes
    for shift in shifts:
        if abs(shift) >= n_nodes:
            raise ConfigError(f"|shift| must be < {n_nodes}, got {shift}")
    train_set, val_set, test_set = generate_task(task_cfg)
    out: dict = {
        "shifts": [int(s) for s in shifts],
        "mode": mode,
        "graph": {"q": graph_cfg.q, "weight_fn": graph_cfg.weight_fn.value},
        "variants": {},
    }
    trained: dict[Variant, ModelParams] = {}
    graphs = GraphOperatorCache(graph_cfg)
    for variant in (Variant.CHEB, Variant.GRAPHCONV):
        result = train(train_set, val_set, graphs, variant, train_cfg)
        trained[variant] = result.params
        thresholds, baseline = score(result.params, graphs, val_set, test_set)
        curve = _robustness_sweep(result.params, graphs, test_set, thresholds,
                                  shifts, wrap=mode == "wrap")
        out["variants"][variant.value] = {
            "baseline_macro_f1": baseline.macro["f1"],
            "baseline_per_label_f1": [lm.f1 for lm in baseline.per_label],
            "curve": curve,
        }

    control_graphs = GraphOperatorCache(GraphConfig(q=n_nodes - 1,
                                                    weight_fn=WeightFn.CONSTANT))
    control_params = trained[Variant.CHEB]
    control_thresholds = select_thresholds(predict(control_params, control_graphs, val_set))
    out["control"] = {
        "graph": {"q": n_nodes - 1, "weight_fn": WeightFn.CONSTANT.value},
        "mode": "wrap",
        "curve": _robustness_sweep(control_params, control_graphs, test_set,
                                   control_thresholds, shifts, wrap=True),
    }
    return out


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationGrid:
    """Cross product of model variant, neighbourhood size, and weighting.

    Each q is a `GraphConfig` q: "full" is n_nodes - 1, fully connected.
    Each cell trains `n_seeds` times with consecutive seeds on the same
    dataset.
    """

    variants: tuple[Variant, ...] = (Variant.CHEB, Variant.GRAPHCONV)
    qs: tuple = (4, 16, "full")
    weight_fns: tuple[WeightFn, ...] = (WeightFn.INVERSE_DM, WeightFn.EXP_DECAY,
                                        WeightFn.CONSTANT)
    n_seeds: int = 3

    def __post_init__(self) -> None:
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        object.__setattr__(self, "variants",
                           tuple(Variant(v) for v in self.variants))
        object.__setattr__(self, "weight_fns",
                           tuple(WeightFn(w) for w in self.weight_fns))
        for q in self.qs:
            GraphConfig(q)


_CELL_METRICS = ("f1", "recall", "precision", "accuracy", "auroc")


def _summarise(runs: list[dict]) -> tuple[dict, dict]:
    mean, std = {}, {}
    for key in _CELL_METRICS:
        values = np.array([r[key] for r in runs], dtype=float)
        mean[key] = float(values.mean())
        # sample std across seeds, matching mean +/- std run reporting
        std[key] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def run_ablation(task_cfg: SynthTaskConfig, train_cfg: TrainConfig,
                 grid: AblationGrid = AblationGrid(), *, progress=None) -> dict:
    """Train every grid cell `n_seeds` times and tabulate mean +/- std.

    All cells share one dataset (fixed by `task_cfg.seed`); only the
    training seed varies within a cell. A cell that raises is recorded
    with its error and the grid moves on. Each finished cell goes to
    `progress`, with its wall-clock `seconds`, which the report leaves
    out so that repeat runs match byte for byte.
    """
    train_set, val_set, test_set = generate_task(task_cfg)
    # every volume of the task has n_nodes nodes, so each cell reports an integer q
    qs = [task_cfg.n_nodes - 1 if q == "full" else q for q in grid.qs]
    cells = []
    for variant in grid.variants:
        for q in qs:
            for weight_fn in grid.weight_fns:
                graphs = GraphOperatorCache(GraphConfig(q=q, weight_fn=weight_fn))
                cell = {
                    "variant": variant.value,
                    "q": q,
                    "fully_connected": q >= task_cfg.n_nodes - 1,
                    "weight_fn": weight_fn.value,
                }
                started = time.perf_counter()
                try:
                    runs = []
                    for run_idx in range(grid.n_seeds):
                        cfg_run = replace(train_cfg, seed=train_cfg.seed + run_idx)
                        result = train(train_set, val_set, graphs, variant, cfg_run)
                        _, report = score(result.params, graphs, val_set, test_set)
                        runs.append({key: report.macro[key] for key in _CELL_METRICS})
                    cell["runs"] = runs
                    cell["mean"], cell["std"] = _summarise(runs)
                except Exception as exc:  # keep the grid going
                    cell["error"] = f"{type(exc).__name__}: {exc}"
                cells.append(cell)
                if progress is not None:
                    progress({**cell, "seconds": round(time.perf_counter() - started, 3)})

    return {
        "task": {"n_nodes": task_cfg.n_nodes, "d": task_cfg.d,
                 "n_labels": task_cfg.n_labels, "seed": task_cfg.seed},
        "train": {"total_steps": train_cfg.total_steps, "batch_size": train_cfg.batch_size,
                  "max_lr": train_cfg.max_lr, "base_seed": train_cfg.seed},
        "grid": {"variants": [v.value for v in grid.variants],
                 "qs": qs,
                 "weight_fns": [w.value for w in grid.weight_fns],
                 "n_seeds": grid.n_seeds},
        "cells": cells,
        "tables": _build_tables(cells, task_cfg.n_nodes),
    }


def _find_cell(cells, variant: str, q: int, weight_fn: str) -> dict | None:
    for cell in cells:
        if (cell["variant"], cell["q"], cell["weight_fn"]) == (variant, q, weight_fn):
            return cell
    return None


def _build_tables(cells: list[dict], n_nodes: int) -> dict:
    """Three standard views over the grid.

    connectivity_module: fully connected vs banded (q=16), per variant;
    neighbourhood_size: q sweep with the spatial module;
    weight_function: weighting sweep, spatial module on the full graph.
    """
    full_q = n_nodes - 1
    qs_present = sorted({cell["q"] for cell in cells})
    banded_q = 16 if any(c["q"] == 16 for c in cells) else (
        qs_present[0] if qs_present else None)

    connectivity = []
    for q, conn_name in ((full_q, "fully-connected"), (banded_q, f"banded(q={banded_q})")):
        for variant in ("graphconv", "cheb"):
            cell = _find_cell(cells, variant, q, WeightFn.INVERSE_DM.value) if q else None
            if cell is not None and "mean" in cell:
                connectivity.append({"connectivity": conn_name, "variant": variant,
                                     "mean": cell["mean"], "std": cell["std"]})

    neighbourhood = []
    for q in qs_present:
        cell = _find_cell(cells, "graphconv", q, WeightFn.INVERSE_DM.value)
        if cell is not None and "mean" in cell:
            label = f"{q} (full)" if q >= full_q else str(q)
            neighbourhood.append({"q": label, "mean": cell["mean"], "std": cell["std"]})

    weighting = []
    for weight_fn in (WeightFn.INVERSE_DM, WeightFn.EXP_DECAY, WeightFn.CONSTANT):
        cell = _find_cell(cells, "graphconv", full_q, weight_fn.value)
        if cell is not None and "mean" in cell:
            weighting.append({"weight_fn": weight_fn.value,
                              "mean": cell["mean"], "std": cell["std"]})

    return {"connectivity_module": connectivity,
            "neighbourhood_size": neighbourhood,
            "weight_function": weighting}


def _format_columns(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
              for i in range(len(headers))]
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _mean_std(mean: dict, std: dict, key: str) -> str:
    return f"{mean[key]:.4f} +/- {std[key]:.4f}"


def format_ablation_text(report: dict) -> str:
    """Plain-text tables with aligned columns. Each table is its title, its
    key in `report["tables"]`, its key columns as (row key, header), and
    its metric columns."""
    short = ("f1", "auroc", "accuracy")
    blocks = []
    for title, table, key_columns, metrics in (
            ("connectivity x module (weight_fn=inverse-dm)", "connectivity_module",
             (("connectivity", "connectivity"), ("variant", "module")), short),
            ("neighbourhood size q (graphconv, weight_fn=inverse-dm)", "neighbourhood_size",
             (("q", "q"),), ("f1", "recall", "precision", "auroc", "accuracy")),
            ("edge weighting (graphconv, fully connected)", "weight_function",
             (("weight_fn", "weight_fn"),), short)):
        rows = [[r[key] for key, _ in key_columns] +
                [_mean_std(r["mean"], r["std"], k) for k in metrics]
                for r in report["tables"][table]]
        headers = [header for _, header in key_columns] + list(metrics)
        blocks.append(f"{title}\n" + _format_columns(headers, rows))

    failed = [c for c in report["cells"] if "error" in c]
    if failed:
        lines = [f"  {c['variant']} q={c['q']} {c['weight_fn']}: {c['error']}"
                 for c in failed]
        blocks.append("failed cells\n" + "\n".join(lines))

    return "\n\n".join(blocks) + "\n"
