"""A batch's loss and its exact gradient, and the check of that gradient.

`backward` runs `model.pass_forward` and `model.pass_backward` once per
pass of samples and returns the mean loss and gradient. `finite_diff_grad`
is the independent central-difference oracle that validates it, and
`run_gradcheck` compares the two on random toy configurations.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graph import GraphConfig, GraphSpec, WeightFn
from .model import (
    ModelParams,
    Variant,
    bce_grad_logits,
    bce_loss,
    graph_passes,
    init_params,
    model_forward,
    pass_backward,
    pass_forward,
    prepare_graph,
)

__all__ = [
    "backward",
    "central_difference_grads",
    "finite_diff_grad",
    "gradcheck_rel_error",
    "run_gradcheck",
]

GRADCHECK_TOL = 1e-5

# Smallest |ReLU pre-activation| a gradcheck trial may have. On the hinge
# itself the loss is not differentiable: the analytic pass takes the
# conventional zero subgradient while a central difference converges to the
# average of the one-sided slopes, so the oracle proves nothing there. A
# fully dead layer parks its zero-initialised bias exactly on the hinge,
# which is how random toy draws actually hit this.
KINK_MARGIN = 1e-3


def _kink_distance(graph: GraphSpec, h: np.ndarray, params: ModelParams) -> float:
    """Distance from the nearest ReLU hinge over every pre-activation."""
    _, layers, (_, head_pre, _) = pass_forward([(graph, 1)], h, params)
    return min(float(np.abs(pre).min()) for pre in [t[-1] for t in layers] + [head_pre])


def backward(items, params: ModelParams) -> tuple[float, np.ndarray]:
    """Mean loss and mean d(loss)/d(params.flat) over (graph, features,
    labels) triples: one forward and one backward pass per pass from
    `graph_passes`, taken in that fixed order, so results are
    deterministic. For one triple the loss is the forward computation
    `model_forward` runs, bit for bit."""
    items = list(items)
    if not items:
        raise ValueError("batch must contain at least one sample")
    passes = graph_passes(graph for graph, _, _ in items)
    forwards = [pass_forward(blocks, np.concatenate([items[i][1] for i in positions],
                                                     dtype=float), params)
                for positions, blocks in passes]
    logits = np.concatenate([logits for logits, _, _ in forwards])
    labels = np.array([items[i][2] for positions, _ in passes for i in positions], dtype=float)
    loss = bce_loss(logits, labels)
    d_logits = bce_grad_logits(logits, labels)

    grad = np.zeros(params.layout.size)
    start = 0
    for (positions, blocks), (_, *saved) in zip(passes, forwards):
        pass_backward(blocks, saved, d_logits[start:start + len(positions)], params, grad)
        start += len(positions)
    return loss, grad


def central_difference_grads(loss_fn, x: np.ndarray, epsilon: float) -> np.ndarray:
    """Central differences of `loss_fn(x)` w.r.t. every element of `x`.

    `loss_fn` receives a perturbed copy of `x`. Exact for losses linear
    in a parameter, up to rounding.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    work = np.array(x, dtype=float)
    flat = work.reshape(-1)
    grad = np.zeros_like(work)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        loss_plus = loss_fn(work)
        flat[i] = original - epsilon
        loss_minus = loss_fn(work)
        flat[i] = original
        grad_flat[i] = (loss_plus - loss_minus) / (2.0 * epsilon)
    return grad


def finite_diff_grad(graph: GraphSpec, h: np.ndarray, labels: np.ndarray,
                     params: ModelParams, epsilon: float = 1e-5) -> np.ndarray:
    """Numeric gradient of the sample loss w.r.t. `params.flat`; oracle for
    `backward`."""

    def loss_of(flat: np.ndarray) -> float:
        candidate = ModelParams(params.layout, flat)
        return bce_loss(model_forward(graph, h, candidate), labels)

    return central_difference_grads(loss_of, params.flat, epsilon)


def gradcheck_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst |analytic - numeric| / max(1, |analytic|, |numeric|).

    The unit floor keeps near-zero gradients from inflating the ratio
    while still catching formula-level mistakes, which are of the same
    magnitude as the gradients themselves.
    """
    a = np.asarray(analytic, dtype=float)
    f = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    return float((np.abs(a - f) / denom).max())


def run_gradcheck(n_trials: int = 20, seed: int = 0,
                  epsilon: float = 1e-5) -> dict:
    """Compare `backward` against the central-difference oracle on
    `n_trials` random toy configurations (both variants, random shapes,
    graphs, and inputs). Draws whose forward pass lands within
    KINK_MARGIN of a ReLU hinge are redrawn — the oracle is ill-defined
    there. Passing means every trial stays within GRADCHECK_TOL."""
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    if not 0 < epsilon < np.inf:
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    weight_fns = list(WeightFn)
    trials = []
    worst = 0.0
    redraws = 0
    for index in range(n_trials):
        variant = Variant.CHEB if index % 2 == 0 else Variant.GRAPHCONV
        for _attempt in range(1000):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 7))
            n_labels = int(rng.integers(1, 4))
            q = int(rng.integers(1, n))
            spacing_mm = float(rng.uniform(0.5, 3.0))  # the draw order fixes every trial
            graph_cfg = GraphConfig(q, weight_fns[int(rng.integers(len(weight_fns)))])
            graph = prepare_graph(graph_cfg, n, spacing_mm)
            params = init_params(d, n_labels, variant,
                                 seed=int(rng.integers(2 ** 31)))
            h = rng.normal(size=(n, d))
            labels = rng.integers(0, 2, size=n_labels)
            # only compare where the finite-difference oracle is valid:
            # redraw configurations sitting on (or within the step of) a
            # ReLU hinge
            if _kink_distance(graph, h, params) >= KINK_MARGIN:
                break
            redraws += 1
        else:  # pragma: no cover - would need 1000 degenerate draws
            raise RuntimeError("could not draw a hinge-free configuration")

        _, analytic = backward([(graph, h, labels)], params)
        numeric = finite_diff_grad(graph, h, labels, params, epsilon)
        err = gradcheck_rel_error(analytic, numeric)
        worst = float(np.maximum(worst, err))  # a NaN error fails; max() would drop it
        trials.append({"variant": variant.value, "n_nodes": n, "d": d,
                       "n_labels": n_labels, "q": q, "rel_error": err})
    return {
        "n_trials": n_trials,
        "epsilon": epsilon,
        "tolerance": GRADCHECK_TOL,
        "max_rel_error": worst,
        "passed": worst <= GRADCHECK_TOL,
        "redraws": redraws,
        "trials": trials,
    }
