"""Training loop: AdamW with decoupled weight decay and a warmup+cosine
learning-rate schedule.

Everything is deterministic given the config seed: parameter init,
batch shuffling, and accumulation order are all fixed, so two runs with
the same seed produce bit-identical checkpoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericError
from .gradients import batch_backward
from .graph import GraphConfig
from .model import GraphOperatorCache, ModelParams, Variant, init_params
from .checkpoint import save_checkpoint

__all__ = [
    "TrainConfig",
    "OptimState",
    "TrainResult",
    "lr_at",
    "init_optim_state",
    "adamw_step",
    "train",
]

_SHUFFLE_STREAM = 1  # rng stream tag, distinct from parameter init

_CHECKPOINT_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings. Defaults match the full-scale recipe;
    see `experiments.desk_train_config` for the small fast variant."""

    batch_size: int = 4
    max_lr: float = 1e-4
    warmup_steps: int = 20_000
    total_steps: int = 200_000
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.99)
    adam_eps: float = 1e-8
    seed: int = 0
    log_every: int = 50

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.max_lr > 0:
            raise ValueError(f"max_lr must be positive, got {self.max_lr}")
        if self.warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        if self.warmup_steps > self.total_steps:
            raise ValueError(
                f"warmup_steps {self.warmup_steps} exceeds total_steps {self.total_steps}"
            )
        for beta in self.betas:
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"betas must lie in [0, 1), got {self.betas}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Learning rate at a 0-based step: linear warmup, then cosine decay to 0.

    Equals max_lr exactly at the warmup boundary and nowhere else; steps
    beyond total_steps clamp to the final (zero) value.
    """
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    if step < cfg.warmup_steps:
        return cfg.max_lr * step / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    if span == 0:
        return cfg.max_lr if step == cfg.warmup_steps else 0.0
    progress = (min(step, cfg.total_steps) - cfg.warmup_steps) / span
    return cfg.max_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimState:
    """First/second moment estimates, laid out like `ModelParams.flat`,
    plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_optim_state(params: ModelParams) -> OptimState:
    return OptimState(m=np.zeros(params.layout.size), v=np.zeros(params.layout.size))


def adamw_step(params: ModelParams, grads: np.ndarray, state: OptimState,
               lr: float, cfg: TrainConfig) -> tuple[ModelParams, OptimState]:
    """One update on the flat vector: decoupled decay p <- p - lr*wd*p
    first, then bias-corrected Adam. Returns fresh params and state."""
    beta1, beta2 = cfg.betas
    t = state.step + 1
    p = params.flat * (1.0 - lr * cfg.weight_decay)
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * (grads * grads)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return ModelParams(params.layout, p), OptimState(m, v, t)


@dataclass
class TrainResult:
    params: ModelParams
    loss_curve: list[dict]
    snapshots: list[tuple[int, ModelParams]] = field(default_factory=list)
    checkpoint_paths: list[Path] = field(default_factory=list)


def _checkpoint_marks(total_steps: int) -> set[int]:
    return {max(1, round(total_steps * f)) for f in _CHECKPOINT_FRACTIONS}


def train(train_set, val_set, graph_cfg: GraphConfig, variant: Variant,
          cfg: TrainConfig, *, cheb_k: int = 3, n_layers: int = 3,
          head_hidden: int | None = None, initial_params: ModelParams | None = None,
          out_dir=None, log_path=None) -> TrainResult:
    """Train a model on `train_set`, freshly initialized unless
    `initial_params` is given (warm start, e.g. from a loaded checkpoint;
    optimizer moments always start at zero).

    `val_set` is carried for downstream threshold selection and is not
    touched by the loop itself. Per-sample graphs come from `graph_cfg`
    plus each sample's own z spacing. Emits a (step, lr, loss) line
    every `cfg.log_every` steps to `log_path` (newline-delimited JSON)
    and snapshots parameters at every quarter of the run.

    Raises NumericError with step/lr/gradient-norm diagnostics if the
    loss stops being finite.
    """
    train_set = list(train_set)
    if not train_set:
        raise ValueError("training set must not be empty")
    del val_set  # reserved for callers; the loop never reads it

    d = train_set[0].features.shape[1]
    n_labels = int(np.asarray(train_set[0].labels).size)
    if initial_params is not None:
        if initial_params.d != d or initial_params.n_labels != n_labels:
            raise ValueError(
                f"initial_params is for d={initial_params.d}, "
                f"n_labels={initial_params.n_labels}; data has d={d}, "
                f"n_labels={n_labels}")
        params = initial_params
    else:
        params = init_params(d, n_labels, variant, n_layers=n_layers,
                             cheb_k=cheb_k, head_hidden=head_hidden, seed=cfg.seed)
    state = init_optim_state(params)
    cache = GraphOperatorCache(graph_cfg)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((cfg.seed, _SHUFFLE_STREAM)))
    )

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if log_path is None:
            log_path = out_dir / "train_log.ndjson"
    marks = _checkpoint_marks(cfg.total_steps)

    curve: list[dict] = []
    snapshots: list[tuple[int, ModelParams]] = []
    paths: list[Path] = []
    order = rng.permutation(len(train_set))
    cursor = 0

    log_file = open(log_path, "w") if log_path is not None else None
    try:
        for step in range(cfg.total_steps):
            if cursor + cfg.batch_size > len(order):
                order = rng.permutation(len(train_set))
                cursor = 0
            batch = [train_set[i] for i in order[cursor:cursor + cfg.batch_size]]
            cursor += cfg.batch_size

            items = [(cache.for_sample(s), s.features, s.labels) for s in batch]
            loss, grads = batch_backward(items, params)
            lr = lr_at(step, cfg)
            if not math.isfinite(loss):
                norms = [float(np.linalg.norm(g)) for g in params.layout.views(grads)]
                raise NumericError("training loss is not finite",
                                   step=step, lr=lr, grad_norms=norms)
            params, state = adamw_step(params, grads, state, lr, cfg)

            if step % cfg.log_every == 0 or step == cfg.total_steps - 1:
                entry = {"step": step, "lr": lr, "loss": loss}
                curve.append(entry)
                if log_file is not None:
                    log_file.write(json.dumps(entry) + "\n")

            done = step + 1
            if done in marks:
                snapshots.append((done, params))
                if out_dir is not None:
                    path = out_dir / f"checkpoint_step{done:07d}.ctgc"
                    save_checkpoint(path, params)
                    paths.append(path)
    finally:
        if log_file is not None:
            log_file.close()

    if out_dir is not None:
        final_path = out_dir / "checkpoint.ctgc"
        save_checkpoint(final_path, params)
        paths.append(final_path)
    return TrainResult(params, curve, snapshots, paths)
