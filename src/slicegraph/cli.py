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
codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error. Any
other failure is a bug: it exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .data import SynthTaskConfig, generate_split, generate_task, read_dataset, write_dataset
from .errors import BinaryFormatError, ConfigError, NumericError
from .experiments import (
    DEFAULT_SHIFTS,
    SHIFT_MODES,
    AblationGrid,
    check_shift_mode,
    desk_task_config,
    desk_train_config,
    format_ablation_text,
    resolve_q,
    run_ablation,
    run_robustness_experiment,
    score,
    write_json,
)
from .gradients import run_gradcheck
from .graph import GraphConfig, GraphSpec, WeightFn, build_edge_set, degree_vector
from .model import GraphOperatorCache, Variant, prepare_graph
from .train import TrainConfig, train


def _config_dict(cfg, skip=()) -> dict:
    """A config dataclass as config-file keys, in field order."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in skip}


_TRAIN_SKIP = ("seed",)  # one seed drives task and training
_TASK_KEYS = {f.name for f in fields(SynthTaskConfig)} - {"seed"}
_TRAIN_KEYS = set(_config_dict(TrainConfig(), _TRAIN_SKIP))


def _list_of(kind):
    test, what = kind
    return (lambda value: type(value) is list and all(map(test, value)),
            f"a list, each entry {what}")


# The JSON value each config key takes: its test, and how a message names it.
# A number must fit a float (NaN, Infinity and 1e400 do not), and a boolean is
# never a number.
_FLOAT = (lambda value: type(value) in (int, float) and abs(value) <= sys.float_info.max,
          "a finite number")
_INT = (lambda value: type(value) is int and _FLOAT[0](value), "an integer")
_Q = (lambda value: value == "full" or _INT[0](value), 'an integer or "full"')
_STR = (lambda value: type(value) is str, "a string")
_KEY_TYPES = {
    **{f.name: {"int": _INT, "float": _FLOAT, "tuple[int, ...]": _list_of(_INT)}[f.type]
       for cfg in (SynthTaskConfig, TrainConfig) for f in fields(cfg)},
    "q": _Q, "weight_fn": _STR, "variant": _STR, "shifts": _list_of(_INT),
    "shift_mode": _STR, "micro": (lambda value: type(value) is bool, "true or false"),
    "variants": _list_of(_STR), "qs": _list_of(_Q), "weight_fns": _list_of(_STR),
    "n_seeds": _INT,
}
_ALL_KEYS = _KEY_TYPES.keys()


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
    """The config file's settings, each value checked against its key's
    type; a JSON list becomes a tuple."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or text that is not UTF-8
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be a JSON object")
    unknown = sorted(set(raw) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f"config {path}: unknown keys: {', '.join(unknown)}")
    for key, value in raw.items():
        accepts, what = _KEY_TYPES[key]
        if not accepts(value):
            raise ConfigError(f"config {path}: {key} must be {what}, got {value!r}")
    return {key: tuple(value) if type(value) is list else value
            for key, value in raw.items()}


def _pick(args, name: str, raw: dict, default):
    """CLI flag beats config file beats default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    return raw.get(name, default)


def build_settings(args) -> Settings:
    raw = _load_config(args.config) if getattr(args, "config", None) else {}
    seed = _pick(args, "seed", raw, 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    try:
        task = desk_task_config(seed=seed, **{k: raw[k] for k in _TASK_KEYS if k in raw})
        train_cfg = desk_train_config(seed=seed,
                                      **{k: raw[k] for k in _TRAIN_KEYS if k in raw})

        q_raw = _parse_q(_pick(args, "q", raw, 4))
        q = resolve_q(q_raw, task.n_nodes)
        weight_fn = WeightFn(_pick(args, "weight_fn", raw, WeightFn.INVERSE_DM))
        graph = GraphConfig(q=q, weight_fn=weight_fn)
        variant = Variant(_pick(args, "variant", raw, Variant.CHEB))

        shifts = _pick(args, "shifts", raw, DEFAULT_SHIFTS)
        if isinstance(shifts, str):
            shifts = tuple(int(part) for part in shifts.split(",") if part.strip())
        shift_mode = _pick(args, "mode", raw, raw.get("shift_mode", "pad"))
        check_shift_mode(shift_mode)

        grid = AblationGrid(
            variants=raw.get("variants", AblationGrid.variants),
            qs=raw.get("qs", AblationGrid.qs),
            weight_fns=raw.get("weight_fns", AblationGrid.weight_fns),
            n_seeds=_pick(args, "seeds", raw, raw.get("n_seeds", AblationGrid.n_seeds)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    micro = getattr(args, "micro", False) or raw.get("micro", False)
    return Settings(task=task, train=train_cfg, graph=graph, variant=variant,
                    shifts=shifts, shift_mode=shift_mode, grid=grid, micro=micro,
                    q_full=q_raw == "full")


def _parse_q(value):
    """A q flag's text, or a config q, as an int or "full"."""
    try:
        return value if value == "full" else int(value)
    except ValueError:
        raise ValueError(f"q must be a positive integer or 'full', got {value!r}") from None


def _resolved_config(settings: Settings) -> dict:
    return {**_config_dict(settings.task), **_config_dict(settings.train, _TRAIN_SKIP),
            "q": settings.graph.q, "weight_fn": settings.graph.weight_fn.value,
            "variant": settings.variant.value}


def _require_out(args) -> Path:
    if not getattr(args, "out", None):
        raise ConfigError("--out is required for this command")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, name: str, payload, indent=None) -> None:
    """Write `payload` as `name` under --out, if given; then print it."""
    if getattr(args, "out", None):
        write_json(_require_out(args) / name, payload)
    print(json.dumps(payload, indent=indent, allow_nan=False))


def _unlike(what, shape, source, source_shape) -> str:
    """Names `what` and `source` and their differing (d, n_labels) shapes."""
    return (f"{what}: d={shape[0]}, n_labels={shape[1]}; "
            f"{source} has d={source_shape[0]}, n_labels={source_shape[1]}")


def _load_splits(settings: Settings, data_dir, names, shape=None, source=None):
    """The settings, then the named splits of a gen-data directory. Every
    split must have the (d, n_labels) `shape` that `source` has (default:
    the first split's), or BinaryFormatError is raised before anything
    runs. With `q=full`, q resolves against the largest volume loaded."""
    base = Path(data_dir)
    splits = [read_dataset(base / name) for name in names]
    shapes = [(name, split[0].features.shape[1], split[0].labels.size)
              for name, split in zip(names, splits)]
    if shape is None:
        shape, source = shapes[0][1:], base / names[0]
    n_nodes = [s.features.shape[0] for split in splits for s in split]
    for name, d, n_labels in shapes:
        if (d, n_labels) != shape:
            raise BinaryFormatError(_unlike(base / name, (d, n_labels), source, shape))
    if settings.q_full:
        settings = replace(settings, graph=replace(settings.graph,
                                                   q=resolve_q("full", max(n_nodes))))
    return (settings, *splits)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    for name in ("train", "val", "test"):
        # read_dataset would mix old files in with the new ones
        if any((out / name).glob("*.ctgf")):
            raise FileExistsError(f"{out / name} already holds feature files; "
                                  "gen-data writes only into a directory without them")
    train_set, val_set, test_set = generate_task(settings.task)
    for name, samples in (("train", train_set), ("val", val_set), ("test", test_set)):
        write_dataset(out / name, samples)
    write_json(out / "config.json", _config_dict(settings.task))
    print(json.dumps({"out": str(out), "n_train": len(train_set),
                      "n_val": len(val_set), "n_test": len(test_set)}, allow_nan=False))
    return 0


def cmd_train(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    if getattr(args, "data", None):
        settings, train_set, val_set, test_set = _load_splits(
            settings, args.data, ("train", "val", "test"))
    else:
        train_set, val_set, test_set = generate_task(settings.task)

    result = train(train_set, val_set, settings.graph, settings.variant,
                   settings.train, out_dir=out)
    thresholds, report = score(result.params, result.graphs, val_set, test_set,
                               include_micro=settings.micro)

    write_json(out / "config.json", _resolved_config(settings))
    payload = report.to_dict()
    payload["thresholds"] = [float(t) for t in thresholds]
    write_json(out / "metrics.json", payload)
    print(json.dumps({"out": str(out), "final_loss": result.loss_curve[-1]["loss"],
                      "macro": report.macro}, allow_nan=False))
    return 0


def cmd_eval(args) -> int:
    settings = build_settings(args)
    params = load_checkpoint(args.checkpoint)
    shape = (params.layout.d, params.layout.n_labels)
    if getattr(args, "data", None):
        settings, val_set, test_set = _load_splits(
            settings, args.data, ("val", "test"), shape, args.checkpoint)
    else:
        task = settings.task
        if (task.d, task.n_labels) != shape:
            raise ConfigError(_unlike("the task", (task.d, task.n_labels),
                                      args.checkpoint, shape))
        val_set, test_set = (generate_split(task, name) for name in ("val", "test"))

    thresholds, report = score(params, GraphOperatorCache(settings.graph), val_set, test_set,
                               include_micro=settings.micro)
    payload = report.to_dict()
    payload["thresholds"] = [float(t) for t in thresholds]
    payload["checkpoint"] = str(args.checkpoint)
    _emit(args, "metrics.json", payload)
    return 0


def cmd_gradcheck(args) -> int:
    result = run_gradcheck(n_trials=args.trials, seed=args.seed or 0,
                           epsilon=args.epsilon)
    # strict JSON has no NaN or infinity: a non-finite error is written as null
    report = json.loads(json.dumps(result), parse_constant=lambda _: None)
    _emit(args, "gradcheck.json", report)
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
    print(json.dumps({"out": str(out), "shifts": report["shifts"], "macro_f1": summary},
                     allow_nan=False))
    return 0


def _print_cell(cell: dict) -> None:
    result = f"auroc {cell['mean']['auroc']:.4f}" if "mean" in cell else cell["error"]
    print(f"ablate: {cell['variant']} q={cell['q']} {cell['weight_fn']}: {result} "
          f"({cell['seconds']:.1f} s)", file=sys.stderr)


def cmd_ablate(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    report = run_ablation(settings.task, settings.train, settings.grid, out_dir=out,
                          progress=_print_cell)
    print(format_ablation_text(report))
    return 0


def cmd_inspect_graph(args) -> int:
    try:
        q = resolve_q(_parse_q(args.q), args.n_nodes)
        spec = GraphSpec.from_spacing_mm(args.n_nodes, q, args.spacing_mm,
                                         WeightFn(args.weight_fn))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    graph = prepare_graph(spec)
    degrees = degree_vector(graph.adjacency)
    lhat_eigs = np.linalg.eigvalsh(graph.lhat.values)
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
        "lambda_max": graph.lhat.lambda_max_used,
        "scaled_spectrum": {"min": float(lhat_eigs[0]), "max": float(lhat_eigs[-1])},
    }
    _emit(args, "graph.json", payload, indent=2)
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
    sp.add_argument("--mode", choices=SHIFT_MODES, default=None)
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


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
