"""Command-line interface.

One executable, seven subcommands:

    slicegraph gen-data        write a synthetic dataset as feature files
    slicegraph train           train a model, write checkpoint + logs + metrics
    slicegraph eval            evaluate a checkpoint, write a metrics report
    slicegraph gradcheck       analytic vs numeric gradients on random configs
    slicegraph robustness      F1 vs axial shift for both variants + control
    slicegraph ablate          variant x connectivity x weighting grid
    slicegraph inspect-graph   structural/spectral summary of one graph

Settings come from defaults, then an optional JSON config file
(--config), then explicit flags, in that order of precedence. Exit
codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .data import SynthTaskConfig, generate_task, read_dataset, write_dataset
from .errors import BinaryFormatError, ConfigError, NumericError
from .experiments import (
    DEFAULT_SHIFTS,
    AblationGrid,
    desk_task_config,
    desk_train_config,
    format_ablation_text,
    predict,
    resolve_q,
    run_ablation,
    run_robustness_experiment,
)
from .gradients import run_gradcheck
from .graph import GraphConfig, GraphSpec, WeightFn, build_adjacency, build_edge_set, degree_vector
from .metrics import evaluate, select_thresholds
from .model import Variant
from .spectral import lambda_max, laplacian, scale_laplacian
from .train import TrainConfig, train

_TASK_KEYS = {
    "n_nodes", "d", "n_labels", "n_train", "n_val", "n_test",
    "local_labels", "diffuse_labels", "label_rate", "signal_scale",
    "noise_std", "spacing_z_mm",
}
_TRAIN_KEYS = {
    "batch_size", "max_lr", "warmup_steps", "total_steps",
    "weight_decay", "beta1", "beta2", "log_every",
}
_OTHER_KEYS = {
    "seed", "q", "weight_fn", "variant", "shifts", "shift_mode",
    "variants", "qs", "weight_fns", "n_seeds", "micro",
}
_ALL_KEYS = _TASK_KEYS | _TRAIN_KEYS | _OTHER_KEYS


@dataclass
class Settings:
    task: SynthTaskConfig
    train: TrainConfig
    graph: GraphConfig
    variant: Variant
    shifts: tuple[int, ...]
    shift_mode: str
    grid: AblationGrid
    micro: bool
    q_full: bool  # q resolves to the largest volume's n_nodes - 1


def _load_config(path) -> dict:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be a JSON object")
    return raw


def _pick(args, name: str, raw: dict, default):
    """CLI flag beats config file beats default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    return raw.get(name, default)


def build_settings(args) -> Settings:
    raw = _load_config(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(raw) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    seed = int(_pick(args, "seed", raw, 0))
    try:
        task_kwargs = {k: raw[k] for k in _TASK_KEYS if k in raw}
        for key in ("local_labels", "diffuse_labels"):
            if key in task_kwargs:
                task_kwargs[key] = tuple(task_kwargs[key])
        task = desk_task_config(seed=seed, **task_kwargs)

        train_kwargs = {k: raw[k] for k in _TRAIN_KEYS - {"beta1", "beta2"} if k in raw}
        train_cfg = desk_train_config(seed=seed, **train_kwargs)
        if "beta1" in raw or "beta2" in raw:
            beta1 = float(raw.get("beta1", train_cfg.betas[0]))
            beta2 = float(raw.get("beta2", train_cfg.betas[1]))
            train_cfg = replace(train_cfg, betas=(beta1, beta2))

        q_raw = _parse_q(_pick(args, "q", raw, 4))
        q = resolve_q(q_raw, task.n_nodes)
        weight_fn = WeightFn(_pick(args, "weight_fn", raw, WeightFn.INVERSE_DM))
        graph = GraphConfig(q=q, weight_fn=weight_fn)
        variant = Variant(_pick(args, "variant", raw, Variant.CHEB))

        shifts = _pick(args, "shifts", raw, DEFAULT_SHIFTS)
        if isinstance(shifts, str):
            shifts = tuple(int(part) for part in shifts.split(",") if part.strip())
        else:
            shifts = tuple(int(s) for s in shifts)
        shift_mode = _pick(args, "mode", raw, raw.get("shift_mode", "pad"))
        if shift_mode not in ("pad", "wrap"):
            raise ConfigError(f"shift mode must be 'pad' or 'wrap', got {shift_mode!r}")

        grid = AblationGrid(
            variants=tuple(Variant(v) for v in raw.get("variants",
                                                       (Variant.CHEB, Variant.GRAPHCONV))),
            qs=tuple(_parse_q(q) for q in raw.get("qs", (4, 16, "full"))),
            weight_fns=tuple(WeightFn(w) for w in raw.get(
                "weight_fns", (WeightFn.INVERSE_DM, WeightFn.EXP_DECAY, WeightFn.CONSTANT))),
            n_seeds=int(_pick(args, "seeds", raw, raw.get("n_seeds", 3))),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    micro = bool(getattr(args, "micro", False) or raw.get("micro", False))
    return Settings(task=task, train=train_cfg, graph=graph, variant=variant,
                    shifts=shifts, shift_mode=shift_mode, grid=grid, micro=micro,
                    q_full=q_raw == "full")


def _parse_q(value):
    if value in ("full", "fc"):
        return "full"
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"q must be a positive integer or 'full', got {value!r}")


def _task_as_dict(task: SynthTaskConfig) -> dict:
    out = {}
    for f in fields(task):
        value = getattr(task, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _resolved_config(settings: Settings) -> dict:
    out = _task_as_dict(settings.task)
    out.update({
        "batch_size": settings.train.batch_size,
        "max_lr": settings.train.max_lr,
        "warmup_steps": settings.train.warmup_steps,
        "total_steps": settings.train.total_steps,
        "weight_decay": settings.train.weight_decay,
        "beta1": settings.train.betas[0],
        "beta2": settings.train.betas[1],
        "log_every": settings.train.log_every,
        "q": settings.graph.q,
        "weight_fn": settings.graph.weight_fn.value,
        "variant": settings.variant.value,
    })
    return out


def _require_out(args) -> Path:
    if not getattr(args, "out", None):
        raise ConfigError("--out is required for this command")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_splits(settings: Settings, data_dir) -> tuple[Settings, list, list, list]:
    """The three splits of a gen-data directory, and the settings with
    `q=full` resolved against the largest volume loaded."""
    base = Path(data_dir)
    splits = (read_dataset(base / "train"),
              read_dataset(base / "val"),
              read_dataset(base / "test"))
    if settings.q_full:
        n_max = max(s.features.shape[0] for split in splits for s in split)
        settings = replace(settings, graph=replace(settings.graph, q=resolve_q("full", n_max)))
    return (settings, *splits)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    train_set, val_set, test_set = generate_task(settings.task)
    for name, samples in (("train", train_set), ("val", val_set), ("test", test_set)):
        write_dataset(out / name, samples)
    _write_json(out / "config.json", _task_as_dict(settings.task))
    print(json.dumps({"out": str(out), "n_train": len(train_set),
                      "n_val": len(val_set), "n_test": len(test_set)}))
    return 0


def cmd_train(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    if getattr(args, "data", None):
        settings, train_set, val_set, test_set = _load_splits(settings, args.data)
    else:
        train_set, val_set, test_set = generate_task(settings.task)

    result = train(train_set, val_set, settings.graph, settings.variant,
                   settings.train, out_dir=out)
    thresholds = select_thresholds(predict(result.params, settings.graph, val_set))
    report = evaluate(predict(result.params, settings.graph, test_set),
                      thresholds, include_micro=settings.micro)

    _write_json(out / "config.json", _resolved_config(settings))
    payload = report.to_dict()
    payload["thresholds"] = [float(t) for t in thresholds]
    _write_json(out / "metrics.json", payload)
    print(json.dumps({"out": str(out), "final_loss": result.loss_curve[-1]["loss"],
                      "macro": report.macro}))
    return 0


def cmd_eval(args) -> int:
    settings = build_settings(args)
    params = load_checkpoint(args.checkpoint)
    if getattr(args, "data", None):
        settings, _, val_set, test_set = _load_splits(settings, args.data)
    else:
        _, val_set, test_set = generate_task(settings.task)

    thresholds = select_thresholds(predict(params, settings.graph, val_set))
    report = evaluate(predict(params, settings.graph, test_set),
                      thresholds, include_micro=settings.micro)
    payload = report.to_dict()
    payload["thresholds"] = [float(t) for t in thresholds]
    payload["checkpoint"] = str(args.checkpoint)
    if getattr(args, "out", None):
        out = _require_out(args)
        _write_json(out / "metrics.json", payload)
    print(json.dumps(payload))
    return 0


def cmd_gradcheck(args) -> int:
    result = run_gradcheck(n_trials=args.trials, seed=args.seed or 0,
                           epsilon=args.epsilon)
    print(json.dumps(result))
    if getattr(args, "out", None):
        out = _require_out(args)
        _write_json(out / "gradcheck.json", result)
    return 0 if result["passed"] else 3


def cmd_robustness(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    report = run_robustness_experiment(settings.task, settings.graph, settings.train,
                                       shifts=settings.shifts, mode=settings.shift_mode,
                                       out_dir=out)
    summary = {variant: [point["macro_f1"] for point in block["curve"]]
               for variant, block in report["variants"].items()}
    summary["control"] = [point["macro_f1"] for point in report["control"]["curve"]]
    print(json.dumps({"out": str(out), "shifts": report["shifts"], "macro_f1": summary}))
    return 0


def cmd_ablate(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    report = run_ablation(settings.task, settings.train, settings.grid, out_dir=out)
    print(format_ablation_text(report))
    return 0


def cmd_inspect_graph(args) -> int:
    try:
        q = resolve_q(_parse_q(args.q), args.n_nodes)
        spec = GraphSpec.from_spacing_mm(args.n_nodes, q, args.spacing_mm,
                                         WeightFn(args.weight_fn))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    adjacency = build_adjacency(spec)
    degrees = degree_vector(adjacency)
    lap = laplacian(adjacency)
    lmax = lambda_max(lap)
    lhat = scale_laplacian(lap, lmax)
    lhat_eigs = np.linalg.eigvalsh(lhat.values)
    payload = {
        "n_nodes": spec.n_nodes,
        "q": spec.q,
        "fully_connected": spec.is_fully_connected,
        "weight_fn": spec.weight_fn.value,
        "spacing_z_mm": args.spacing_mm,
        "spacing_z_dm": spec.spacing_z,
        "n_edges": len(build_edge_set(spec)),
        "degree": {"min": float(degrees.min()), "max": float(degrees.max()),
                   "mean": float(degrees.mean())},
        "lambda_max": lmax,
        "scaled_spectrum": {"min": float(lhat_eigs[0]), "max": float(lhat_eigs[-1])},
    }
    print(json.dumps(payload, indent=2))
    if getattr(args, "out", None):
        out = _require_out(args)
        _write_json(out / "graph.json", payload)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicegraph",
        description="Banded slice-sequence graphs, spectral filtering, and the "
                    "synthetic multi-label benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(sp, out_help="output directory"):
        sp.add_argument("--config", help="JSON config file (flat key/value)")
        sp.add_argument("--seed", type=int, default=None, help="master seed")
        sp.add_argument("--out", help=out_help)

    sp = sub.add_parser("gen-data", help="write a synthetic dataset as feature files")
    common(sp)
    sp.set_defaults(handler=cmd_gen_data)

    sp = sub.add_parser("train", help="train a model and evaluate it")
    common(sp)
    sp.add_argument("--variant", choices=[v.value for v in Variant], default=None)
    sp.add_argument("--q", default=None, help="neighbourhood size, or 'full'")
    sp.add_argument("--weight-fn", dest="weight_fn",
                    choices=[w.value for w in WeightFn], default=None)
    sp.add_argument("--data", help="dataset directory from gen-data (otherwise synthesise)")
    sp.add_argument("--micro", action="store_true", help="also report micro averages")
    sp.set_defaults(handler=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--q", default=None, help="neighbourhood size, or 'full'")
    sp.add_argument("--weight-fn", dest="weight_fn",
                    choices=[w.value for w in WeightFn], default=None)
    sp.add_argument("--data", help="dataset directory from gen-data (otherwise synthesise)")
    sp.add_argument("--micro", action="store_true", help="also report micro averages")
    sp.set_defaults(handler=cmd_eval)

    sp = sub.add_parser("gradcheck", help="analytic vs numeric gradients")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--epsilon", type=float, default=1e-5)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_gradcheck)

    sp = sub.add_parser("robustness", help="F1 vs axial shift, both variants")
    common(sp)
    sp.add_argument("--shifts", default=None, help="comma-separated, e.g. 0,2,4,8,16")
    sp.add_argument("--mode", choices=["pad", "wrap"], default=None)
    sp.set_defaults(handler=cmd_robustness)

    sp = sub.add_parser("ablate", help="variant x connectivity x weighting grid")
    common(sp)
    sp.add_argument("--seeds", type=int, default=None, help="runs per cell")
    sp.set_defaults(handler=cmd_ablate)

    sp = sub.add_parser("inspect-graph", help="structural/spectral graph summary")
    sp.add_argument("--n-nodes", dest="n_nodes", type=int, required=True)
    sp.add_argument("--q", required=True, help="neighbourhood size, or 'full'")
    sp.add_argument("--weight-fn", dest="weight_fn",
                    choices=[w.value for w in WeightFn], default=WeightFn.INVERSE_DM.value)
    sp.add_argument("--spacing-mm", dest="spacing_mm", type=float, default=1.5)
    sp.add_argument("--out")
    sp.set_defaults(handler=cmd_inspect_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except BinaryFormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # validation errors from configs and dataclasses are config errors here
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
