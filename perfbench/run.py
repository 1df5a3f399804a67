"""slicegraph benchmark: two workloads driven through the `slicegraph` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Every workload calls `slicegraph.cli.main(argv)` in-process, one command
after the other (a closed loop with one client), once per variant: `cheb`
first, then `graphconv`. A timed unit is one variant's `train --data`
followed by `eval` of the checkpoint it wrote; units alternate between
the variants, and an iteration is one unit of each.

    desk-train     set-up: gen-data of the desk task. One shared 20-node
                   graph, so per-sample forward/backward and AdamW dominate.
                   Each checkpoint is evaluated twice, with --micro.
    mixed-volumes  inputs written by `volumes.py` (16..128 nodes, four
                   spacings), so graph preparation and file reads dominate.
                   Each checkpoint is evaluated twice.

With `--trace 0` the run is untraced and reports the end-to-end metrics.
With `--trace 1` the layer modules are wrapped from outside (see
`tracer.py`), whole iterations alternate untraced and traced, and the
run reports per-layer metrics plus `trace.overhead_s`. Metric names and
units come from `BENCHMARK.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
run record: environment, samples and per-command timings, failed checks.
Work files go to `.perfbench_work/` at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the loop is single-threaded,
# the matrices are small, and a second thread only widens the run-to-run
# spread on a shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracer
import volumes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT, so artifacts name stable paths
SETUP_ROUNDS = 5
VARIANTS = ("cheb", "graphconv")
# The workload seed picks the inputs. Training keeps the CLI's default
# seed, as the acceptance gate does, so accuracy varies with the data only.
TRAIN_SEED = "0"
GRAPH_FLAGS = ("--q", "4", "--weight-fn", "inverse-dm")

DESK_TASK = {"n_nodes": 20, "d": 16, "n_labels": 4, "n_train": 2000,
             "n_val": 500, "n_test": 500, "spacing_z_mm": 1.5}
DESK_SCHEDULE = {"total_steps": 2000, "warmup_steps": 200, "batch_size": 4}
MIXED_SCHEDULE = {"total_steps": 500, "warmup_steps": 50, "batch_size": 4}
# Benchmark-written inputs: splits, inclusive node-count range, spacings (mm).
MIXED_VOLUMES = ({"train": 1000, "val": 500, "test": 500}, (16, 128), (0.625, 1.25, 2.5, 5.0))

Samples = dict[str, list[float]]  # metric name -> one value per measured command

IMPORT_PROBE = ("import time; t = time.perf_counter(); import slicegraph.cli; "
                "print(time.perf_counter() - t)")


class Session:
    """Runs CLI commands in-process and keeps the tally of operations.

    Every command and every output check is one attempted operation; a
    command that exits non-zero or raises, and a check that does not
    hold, is one failed operation.
    """

    def __init__(self, cli_module) -> None:
        self.cli = cli_module
        self.attempted = 0
        self.failures: list[str] = []
        self.commands: list[dict] = []
        self.digests: dict[str, str] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def run(self, *argv) -> tuple[dict | None, float]:
        """One CLI command: (parsed last stdout line or None on failure, seconds)."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation; keep measuring
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        self.commands.append({"argv": argv, "wall_s": seconds,
                              "cpu_s": time.process_time() - cpu_start, "exit": code})
        if not self.check(code == 0, f"{' '.join(argv)} exited {code}: {err.getvalue()[-400:]}"):
            return None, seconds
        lines = out.getvalue().strip().splitlines()
        try:
            return json.loads(lines[-1]), seconds
        except (IndexError, json.JSONDecodeError):
            self.check(False, f"{' '.join(argv)} printed no JSON summary")
            return None, seconds

    def same_bytes(self, key: str, path: Path) -> None:
        """Check that `path` matches every earlier artifact recorded under `key`."""
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            self.check(False, f"{key}: cannot read {path}: {exc}")
            return
        first = self.digests.setdefault(key, digest)
        self.check(first == digest, f"{key} differs between repeats of one seed")


def import_seconds(session: Session) -> float:
    """Seconds that `import slicegraph.cli` takes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    session.attempted += 1
    try:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        session.failures.append(f"import probe failed: {exc}")
        return float("nan")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class TrainEvalWorkload:
    """Timed unit: one variant's `train --data`, then `eval` of its final
    checkpoint on the same data, `eval_repeats` times."""

    task: dict = {}
    schedule: dict
    n_scored: int  # val + test samples that one eval command scores
    eval_repeats = 1
    eval_flags: tuple[str, ...] = ()

    def __init__(self, session: Session, work: Path, seed: int) -> None:
        self.session, self.work, self.seed = session, work, seed
        self.data = work / "data"
        self.config = work / "config.json"
        self.config.write_text(json.dumps({**self.task, **self.schedule}, indent=2) + "\n")

    def setup(self, samples: Samples) -> None:
        samples["setup_s"].append(import_seconds(self.session))

    def unit(self, variant: str, samples: Samples) -> None:
        s = self.session
        trained = self.schedule["total_steps"] * self.schedule["batch_size"]
        run_dir = self.work / f"train-{variant}"
        eval_dir = self.work / f"eval-{variant}"
        train_out, train_s = s.run("train", "--config", self.config, "--seed", TRAIN_SEED,
                                   "--data", self.data, "--variant", variant,
                                   *GRAPH_FLAGS, "--out", run_dir)
        s.same_bytes(f"train-{variant}/checkpoint.ctgc", run_dir / "checkpoint.ctgc")
        s.same_bytes(f"train-{variant}/metrics.json", run_dir / "metrics.json")
        samples[f"train_samples_per_s.{variant}"].append(trained / train_s)
        if train_out:
            samples[f"test_macro_auroc.{variant}"].append(train_out["macro"]["auroc"])
        for _ in range(self.eval_repeats):
            eval_out, eval_s = s.run("eval", "--checkpoint", run_dir / "checkpoint.ctgc",
                                     "--data", self.data, *self.eval_flags, *GRAPH_FLAGS,
                                     "--out", eval_dir)
            if train_out and eval_out:
                s.check(eval_out["macro"] == train_out["macro"],
                        f"{variant}: eval of the final checkpoint does not reproduce "
                        "train's test macro metrics")
            s.same_bytes(f"eval-{variant}/metrics.json", eval_dir / "metrics.json")
            samples[f"eval_samples_per_s.{variant}"].append(self.n_scored / eval_s)

    def iteration(self, samples: Samples) -> None:
        for variant in VARIANTS:
            self.unit(variant, samples)


class DeskTrain(TrainEvalWorkload):
    task = DESK_TASK
    schedule = DESK_SCHEDULE
    n_scored = DESK_TASK["n_val"] + DESK_TASK["n_test"]
    eval_repeats = 2  # one desk eval takes well under a second
    eval_flags = ("--micro",)  # micro AUROC over the 2000 pooled scores

    def setup(self, samples: Samples) -> None:
        seconds = import_seconds(self.session)
        shutil.rmtree(self.data, ignore_errors=True)  # gen-data into an empty directory
        _, gen_s = self.session.run("gen-data", "--config", self.config, "--seed", self.seed,
                                    "--out", self.data)
        samples["setup_s"].append(seconds + gen_s)


class MixedVolumes(TrainEvalWorkload):
    schedule = MIXED_SCHEDULE
    n_scored = MIXED_VOLUMES[0]["val"] + MIXED_VOLUMES[0]["test"]
    eval_repeats = 2

    def __init__(self, session, work, seed) -> None:
        super().__init__(session, work, seed)
        volumes.write_dataset(self.data, seed, *MIXED_VOLUMES)


WORKLOADS = {"desk-train": DeskTrain, "mixed-volumes": MixedVolumes}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def timed_loop(seconds: float, step, min_steps: int = 1) -> list[float]:
    """Run `step(i)` until `seconds` have passed, at least `min_steps` times;
    the last step runs to its end. Returns the wall time of each step."""
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < min_steps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        step(len(walls))
        walls.append(time.perf_counter() - t0)
    return walls


def run_untraced(workload, seconds: float) -> tuple[dict, dict]:
    samples: Samples = defaultdict(list)
    for _ in range(SETUP_ROUNDS):
        workload.setup(samples)
    # Units, not whole iterations, so that the run stops at most one
    # variant's commands after `seconds`.
    walls = timed_loop(seconds, lambda i: workload.unit(VARIANTS[i % len(VARIANTS)], samples),
                       min_steps=len(VARIANTS))
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, {"samples": samples, "unit_wall_s": walls}


def run_traced(workload, seconds: float, name: str, seed: int) -> tuple[dict, dict]:
    spans_dir = workload.work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer()

    def dump(label: str, spans: list, counters: dict) -> None:
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], int(s[5])] for s in spans]
        payload = {"run": f"{name}:{seed}:{label}", "names": names, "counters": counters,
                   "columns": ["name", "start", "end", "parent", "failed"], "spans": rows}
        (spans_dir / f"{label}.json").write_text(json.dumps(payload))

    unused: Samples = defaultdict(list)
    with tr:
        tr.run_id = f"{name}:{seed}:setup"
        workload.setup(unused)
    setup_spans, setup_counters = tr.take_spans()
    setup_report = tracer.summarise(setup_spans, setup_counters, tr.wrapped)
    dump("setup", setup_spans, setup_counters)

    plain_walls: list[float] = []
    traced_walls: list[float] = []
    reports: list[dict] = []

    def pair(i: int) -> None:
        t0 = time.perf_counter()
        workload.iteration(unused)
        plain_walls.append(time.perf_counter() - t0)
        with tr:
            tr.run_id = f"{name}:{seed}:iteration{i}"
            t0 = time.perf_counter()
            workload.iteration(unused)
            traced_walls.append(time.perf_counter() - t0)
        spans, counters = tr.take_spans()
        reports.append(tracer.summarise(spans, counters, tr.wrapped))
        dump(f"iteration{i}", spans, counters)

    timed_loop(seconds, pair)
    metrics = tracer.combine(setup_report, reports)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    detail = {"untraced_iteration_s": plain_walls, "traced_iteration_s": traced_walls,
              "spans_dir": str(spans_dir)}
    return metrics, detail


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it says."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def source_digest(*directories: Path) -> str:
    digest = hashlib.sha256()
    for directory in directories:
        for path in sorted(directory.glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:  # only a git checkout rooted here, not some enclosing repository
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10,
                                   check=True).stdout.split()
        commit = head if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(), "OPENBLAS_NUM_THREADS": BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source_digest(SRC / "slicegraph"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cross_run_check(session: Session, name: str, seed: int) -> None:
    """Artifacts of one seed must match those of earlier runs of the same
    program and benchmark sources."""
    sources = source_digest(SRC / "slicegraph", Path(__file__).resolve().parent)
    store = WORK / "digests" / f"{name}-{seed}-{sources[:16]}.json"
    try:
        earlier = json.loads(store.read_text())
    except (OSError, json.JSONDecodeError):
        earlier = {}
    for key, digest in session.digests.items():
        if key in earlier:
            session.check(earlier[key] == digest,
                          f"{key} differs from an earlier run of seed {seed}")
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps({**earlier, **session.digests}, indent=1, sort_keys=True))
    os.replace(tmp, store)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slicegraph" / "__init__.py").is_file():
        print(f"error: no slicegraph sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    declared = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("slicegraph.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "slicegraph").resolve():
        print(f"error: imported slicegraph from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(cli)
    workload = WORKLOADS[args.workload](session, work, args.seed)
    if args.trace:
        metrics, detail = run_traced(workload, args.seconds, args.workload, args.seed)
    else:
        metrics, detail = run_untraced(workload, args.seconds)
    cross_run_check(session, args.workload, args.seed)

    record = {"environment": environment(args.workload, args.seed), "trace": args.trace,
              "commands": session.commands, "failures": session.failures, **detail}
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items() if key in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
