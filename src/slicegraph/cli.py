"""Command-line interface.

One executable, seven subcommands:

    slicegraph gen-data        write a synthetic dataset as feature files
    slicegraph train           train a model, write checkpoint + logs + metrics
    slicegraph eval            evaluate a checkpoint, write a metrics report
    slicegraph gradcheck       analytic vs numeric gradients on random configs
    slicegraph robustness      F1 vs axial shift for both variants + control
    slicegraph ablate          variant x connectivity x weighting grid
    slicegraph inspect-graph   structural/spectral summary of one graph

Every setting is one row of `_SETTINGS`: config key, flag and the commands
that take it, type, run default, choices and ceiling. A value comes from
the default, then an optional JSON config file (--config), then its flag,
and is checked by its row wherever it comes from. Each command writes its
own files, train and eval after deleting those of an earlier run from
--out; the experiment drivers only return their reports. Exit codes:
0 success, 2 config error, 3 numeric failure, 4 I/O error. Any other
failure is a bug: it exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .data import SynthTaskConfig, generate_split, generate_task, read_dataset, write_dataset
from .errors import BinaryFormatError, ConfigError, NumericError
from .experiments import (
    DEFAULT_SHIFTS,
    SHIFT_MODES,
    AblationGrid,
    format_ablation_text,
    run_ablation,
    run_robustness_experiment,
    score,
)
from .gradients import run_gradcheck
from .graph import GraphConfig, WeightFn
from .model import GraphOperatorCache, Variant, prepare_graph
from .train import TrainConfig, train


def write_json(path, payload) -> None:
    """`payload` as strict JSON: a NaN or an infinity raises ValueError."""
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _config_dict(cfg, skip=()) -> dict:
    """A config dataclass as config-file keys, in field order."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in skip}


@dataclass(frozen=True)
class _Kind:
    """The JSON values a setting takes: `accepts` tests one, `what` names
    them, `parse` reads one from a flag's text, `choices` lists them."""

    accepts: object
    what: str
    parse: object = str
    choices: tuple = ()


# A number must fit a float (NaN, Infinity and 1e400 do not), and a boolean is
# never a number.
_FLOAT = _Kind(lambda value: type(value) in (int, float) and abs(value) <= sys.float_info.max,
               "a finite number", float)
_INT = _Kind(lambda value: type(value) is int and _FLOAT.accepts(value), "an integer", int)
_Q = _Kind(lambda value: value == "full" or _INT.accepts(value), "an integer or 'full'",
           lambda text: text if text == "full" else int(text))
_BOOL = _Kind(lambda value: type(value) is bool, "true or false")


def _one_of(values) -> _Kind:
    choices = tuple(getattr(value, "value", value) for value in values)  # an Enum's values
    return _Kind(choices.__contains__, " or ".join(map(repr, choices)), str, choices)


def _list_of(kind, empty_ok=False) -> _Kind:
    """A JSON list of `kind`, or a flag's comma-separated text."""
    return _Kind(lambda value: type(value) is list and (empty_ok or value != [])
                 and all(map(kind.accepts, value)),
                 f"a {'' if empty_ok else 'non-empty '}list, each entry {kind.what}",
                 lambda text: [kind.parse(part) for part in text.split(",") if part.strip()])


@dataclass(frozen=True)
class _Setting:
    """One setting: its config key (None for a flag-only setting), its kind,
    its run default (None: its dataclass field's own), its flag and
    the commands that take it ("!" marks a required flag), and its ceiling."""

    key: str | None
    kind: _Kind
    default: object = None
    flag: str | None = None
    commands: tuple = ()
    most: int | None = None

    @property
    def dest(self) -> str:
        return self.key or self.flag[2:].replace("-", "_")

    @property
    def allows(self) -> str:
        return self.kind.what + ("" if self.most is None else f" <= {self.most}")

    def check(self, value, where: str):
        """`value` as the run takes it, or ConfigError naming `where`."""
        if not self.kind.accepts(value) or self.most is not None and value > self.most:
            raise ConfigError(f"{where} must be {self.allows}, got {value!r}")
        return tuple(value) if type(value) is list else value


_SEEDED = ("gen-data", "train", "eval", "gradcheck", "robustness", "ablate")
_GRAPH = ("train", "eval")
_SETTINGS = {setting.dest: setting for setting in (
    # the synthetic task; defaults in data.SynthTaskConfig
    _Setting("n_nodes", _INT, flag="--n-nodes", commands=("inspect-graph!",), most=4096),
    _Setting("d", _INT, most=4096),
    _Setting("n_labels", _INT),
    *(_Setting(key, _INT, most=1_000_000) for key in ("n_train", "n_val", "n_test")),
    *(_Setting(key, _list_of(_INT, empty_ok=True)) for key in ("local_labels", "diffuse_labels")),
    *(_Setting(key, _FLOAT)
      for key in ("label_rate", "signal_scale", "noise_std", "spacing_z_mm")),
    _Setting("seed", _INT, 0, "--seed", _SEEDED),
    # training; defaults in train.TrainConfig
    *(_Setting(key, _INT) for key in ("batch_size", "warmup_steps", "log_every")),
    _Setting("total_steps", _INT, most=10_000_000),
    *(_Setting(key, _FLOAT) for key in ("max_lr", "weight_decay", "beta1", "beta2")),
    # the graph and the model
    _Setting("q", _Q, 4, "--q", (*_GRAPH, "inspect-graph!")),
    _Setting("weight_fn", _one_of(WeightFn), "inverse-dm", "--weight-fn",
             (*_GRAPH, "inspect-graph")),
    _Setting("variant", _one_of(Variant), "cheb", "--variant", ("train",)),
    _Setting("micro", _BOOL, False, "--micro", _GRAPH),
    # the experiments
    _Setting("shifts", _list_of(_INT), DEFAULT_SHIFTS, "--shifts", ("robustness",)),
    _Setting("shift_mode", _one_of(SHIFT_MODES), "pad", "--mode", ("robustness",)),
    # the ablation grid; defaults in experiments.AblationGrid
    _Setting("variants", _list_of(_one_of(Variant))),
    _Setting("qs", _list_of(_Q)),
    _Setting("weight_fns", _list_of(_one_of(WeightFn))),
    _Setting("n_seeds", _INT, flag="--seeds", commands=("ablate",), most=100),
    # flags only
    _Setting(None, _INT, 20, "--trials", ("gradcheck",), most=10_000),
    _Setting(None, _FLOAT, 1e-5, "--epsilon", ("gradcheck",)),
    _Setting(None, _FLOAT, 1.5, "--spacing-mm", ("inspect-graph",)),
)}
_ALL_KEYS = frozenset(setting.key for setting in _SETTINGS.values() if setting.key)


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


def _values(args) -> dict:
    """Each setting's flag, else its config value, else its run default; one
    left to its dataclass field's default is absent. Each is checked."""
    path, values = getattr(args, "config", None), {}
    if path:
        try:
            raw = json.loads(Path(path).read_text())
        except ValueError as exc:  # a JSONDecodeError, or text that is not UTF-8
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path}: top level must be a JSON object")
        unknown = sorted(set(raw) - _ALL_KEYS)
        if unknown:
            raise ConfigError(f"config {path}: unknown keys: {', '.join(unknown)}")
        values = {key: _SETTINGS[key].check(value, f"config {path}: {key}")
                  for key, value in raw.items()}
    for setting in _SETTINGS.values():
        flag = getattr(args, setting.dest, None)
        if type(flag) is str:
            try:
                flag = setting.kind.parse(flag)
            except ValueError:
                pass  # the check names the text
        if flag is not None:
            values[setting.dest] = setting.check(flag, setting.flag)
        elif setting.default is not None:
            values.setdefault(setting.dest, setting.default)
    return values


def _fields_in(cls, values) -> dict:
    """The entries of `values` that name a field of the dataclass `cls`."""
    return {f.name: values[f.name] for f in fields(cls) if f.name in values}


def build_settings(args) -> Settings:
    values = _values(args)
    if values["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {values['seed']}")
    try:
        task = SynthTaskConfig(**_fields_in(SynthTaskConfig, values))
        train_cfg = TrainConfig(**_fields_in(TrainConfig, values))
        graph = GraphConfig(q=values["q"], weight_fn=values["weight_fn"])
        grid = AblationGrid(**_fields_in(AblationGrid, values))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Settings(task=task, train=train_cfg, graph=graph, variant=Variant(values["variant"]),
                    shifts=values["shifts"], shift_mode=values["shift_mode"], grid=grid,
                    micro=values["micro"])


def _require_out(args) -> Path:
    if not getattr(args, "out", None):
        raise ConfigError("--out is required for this command")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _remove_outputs(out: Path, *patterns) -> None:
    """Delete a command's own files from `out` before it runs, so that a run
    that fails leaves no earlier run's files standing as its own."""
    for path in [path for pattern in patterns for path in out.glob(pattern)]:
        path.unlink()


def _emit(args, name: str, payload, indent=None) -> None:
    """Write `payload` as `name` under --out, if given; then print it."""
    if getattr(args, "out", None):
        write_json(_require_out(args) / name, payload)
    print(json.dumps(payload, indent=indent, allow_nan=False))


def _unlike(what, shape, source, source_shape) -> str:
    """Names `what` and `source` and their differing (d, n_labels) shapes."""
    return (f"{what}: d={shape[0]}, n_labels={shape[1]}; "
            f"{source} has d={source_shape[0]}, n_labels={source_shape[1]}")


def _load_splits(data_dir, names, shape=None, source=None):
    """The named splits of a gen-data directory. Every split must have the
    (d, n_labels) `shape` that `source` has (default: the first split's),
    or BinaryFormatError is raised before anything runs."""
    base = Path(data_dir)
    splits = [read_dataset(base / name) for name in names]
    shapes = [(name, split[0].features.shape[1], split[0].labels.size)
              for name, split in zip(names, splits)]
    if shape is None:
        shape, source = shapes[0][1:], base / names[0]
    for name, d, n_labels in shapes:
        if (d, n_labels) != shape:
            raise BinaryFormatError(_unlike(base / name, (d, n_labels), source, shape))
    return splits


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
    _remove_outputs(out, "checkpoint*.ctgc", "train_log.ndjson", "config.json", "metrics.json")
    if getattr(args, "data", None):
        train_set, val_set, test_set = _load_splits(args.data, ("train", "val", "test"))
        task = {"seed": settings.task.seed}  # the data, not the task's keys, fixed the rest
    else:
        train_set, val_set, test_set = generate_task(settings.task)
        task = _config_dict(settings.task)
    graphs = GraphOperatorCache(settings.graph)
    result = train(train_set, val_set, graphs, settings.variant, settings.train, out_dir=out)
    thresholds, report = score(result.params, graphs, val_set, test_set,
                               include_micro=settings.micro)
    write_json(out / "config.json", {
        **task, **_config_dict(settings.train, ("seed",)),
        "q": settings.graph.q, "weight_fn": settings.graph.weight_fn.value,
        "variant": settings.variant.value})
    write_json(out / "metrics.json",
               {**report.to_dict(), "thresholds": [float(t) for t in thresholds]})
    print(json.dumps({"out": str(out), "final_loss": result.loss_curve[-1]["loss"],
                      "macro": report.macro}, allow_nan=False))
    return 0


def cmd_eval(args) -> int:
    settings = build_settings(args)
    if args.out:
        _remove_outputs(Path(args.out), "metrics.json")
    params = load_checkpoint(args.checkpoint)
    shape = (params.layout.d, params.layout.n_labels)
    if getattr(args, "data", None):
        val_set, test_set = _load_splits(args.data, ("val", "test"), shape, args.checkpoint)
    else:
        task = settings.task
        if (task.d, task.n_labels) != shape:
            raise ConfigError(_unlike("the task", (task.d, task.n_labels),
                                      args.checkpoint, shape))
        val_set, test_set = (generate_split(task, name) for name in ("val", "test"))
    thresholds, report = score(params, GraphOperatorCache(settings.graph), val_set, test_set,
                               include_micro=settings.micro)
    _emit(args, "metrics.json", {**report.to_dict(), "thresholds": [float(t) for t in thresholds],
                                 "checkpoint": str(args.checkpoint)})
    return 0


def cmd_gradcheck(args) -> int:
    values = _values(args)
    result = run_gradcheck(values["trials"], values["seed"], values["epsilon"])
    # strict JSON has no NaN or infinity: a non-finite error is written as null
    report = json.loads(json.dumps(result), parse_constant=lambda _: None)
    _emit(args, "gradcheck.json", report)
    return 0 if result["passed"] else 3


def cmd_robustness(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    report = run_robustness_experiment(settings.task, settings.graph, settings.train,
                                       shifts=settings.shifts, mode=settings.shift_mode)
    write_json(out / "robustness.json", report)
    summary = {variant: [point["macro_f1"] for point in block["curve"]]
               for variant, block in report["variants"].items()}
    summary["control"] = [point["macro_f1"] for point in report["control"]["curve"]]
    print(json.dumps({"out": str(out), "shifts": report["shifts"], "macro_f1": summary},
                     allow_nan=False))
    return 0


def cmd_ablate(args) -> int:
    settings = build_settings(args)
    out = _require_out(args)
    timings = []

    def progress(cell: dict) -> None:
        timings.append({key: cell[key] for key in ("variant", "q", "weight_fn", "seconds")})
        result = f"auroc {cell['mean']['auroc']:.4f}" if "mean" in cell else cell["error"]
        print(f"ablate: {cell['variant']} q={cell['q']} {cell['weight_fn']}: {result} "
              f"({cell['seconds']:.1f} s)", file=sys.stderr)

    report = run_ablation(settings.task, settings.train, settings.grid, progress=progress)
    text = format_ablation_text(report)
    write_json(out / "ablation.json", report)
    (out / "ablation.txt").write_text(text)
    # wall-clock time goes in a side file: repeat runs reproduce the report's bytes
    write_json(out / "ablation_timing.json", timings)
    print(text)
    return 0


def cmd_inspect_graph(args) -> int:
    values = _values(args)
    n_nodes, spacing_mm = values["n_nodes"], values["spacing_mm"]
    try:
        graph = prepare_graph(GraphConfig(values["q"], values["weight_fn"]), n_nodes, spacing_mm)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    degrees = graph.adjacency.sum(axis=1)
    lhat_eigs = np.linalg.eigvalsh(graph.lhat.values)
    payload = {
        "n_nodes": graph.n_nodes,
        "q": graph.q,
        "fully_connected": graph.is_fully_connected,
        "weight_fn": graph.weight_fn.value,
        "spacing_z_mm": spacing_mm,
        "spacing_z_dm": graph.spacing_z,
        "n_edges": graph.n_edges,
        "degree": {"min": float(degrees.min()), "max": float(degrees.max()),
                   "mean": float(degrees.mean())},
        "lambda_max": graph.lhat.lambda_max_used,
        "scaled_spectrum": {"min": float(lhat_eigs[0]), "max": float(lhat_eigs[-1])},
    }
    _emit(args, "graph.json", payload, indent=2)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slicegraph", description=(
        "Banded slice-sequence graphs, spectral filtering, and the "
        "synthetic multi-label benchmark harness."))
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands = {}
    for name, handler, text in (
        ("gen-data", cmd_gen_data, "write a synthetic dataset as feature files"),
        ("train", cmd_train, "train a model and evaluate it"),
        ("eval", cmd_eval, "evaluate a checkpoint"),
        ("gradcheck", cmd_gradcheck, "analytic vs numeric gradients"),
        ("robustness", cmd_robustness, "F1 vs axial shift, both variants"),
        ("ablate", cmd_ablate, "variant x connectivity x weighting grid"),
        ("inspect-graph", cmd_inspect_graph, "structural/spectral graph summary"),
    ):
        sp = commands[name] = sub.add_parser(name, help=text)
        sp.set_defaults(handler=handler)
        if name not in ("gradcheck", "inspect-graph"):
            sp.add_argument("--config", help="JSON config file (flat key/value)")
        sp.add_argument("--out", help="output directory")
        if name in _GRAPH:
            sp.add_argument("--data",
                            help="dataset directory from gen-data (otherwise synthesise)")
    commands["eval"].add_argument("--checkpoint", required=True)

    for setting in _SETTINGS.values():
        options = ({"action": "store_true"} if setting.kind is _BOOL else
                   {"choices": setting.kind.choices or None, "help": setting.allows})
        for name in setting.commands:
            commands[name.rstrip("!")].add_argument(setting.flag, dest=setting.dest, default=None,
                                                    required=name.endswith("!"), **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return exc.code if isinstance(exc.code, int) else 2
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
