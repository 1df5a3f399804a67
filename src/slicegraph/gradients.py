"""Exact reverse-mode gradients for the graph classifier.

The architecture is fixed, so the backward pass is written out by hand
rather than through a tape. `finite_diff_grad` is the independent
central-difference oracle used to validate it.
"""

from __future__ import annotations

import numpy as np

from .graph import GraphSpec, WeightFn
from .model import (
    ModelParams,
    SampleGraph,
    Variant,
    bce_loss,
    forward_trace,
    init_params,
    model_forward,
    prepare_graph,
    sigmoid,
)

__all__ = [
    "bce_grad_logits",
    "backward",
    "batch_backward",
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


def _kink_distance(trace) -> float:
    """Distance from the nearest ReLU hinge over every pre-activation."""
    dists = [float(np.abs(t[2]).min()) for t in trace.layer_traces]
    dists.append(float(np.abs(trace.head_pre).min()))
    return min(dists)


def bce_grad_logits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d(logits) = (sigmoid(x) - y) / n_labels, computed stably.

    For y = 1 the difference is evaluated as -sigmoid(-x) so saturated
    logits keep their tiny but nonzero gradient instead of rounding to 0.
    """
    x = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=float)
    signed = np.where(y == 1.0, -sigmoid(-x), sigmoid(x))
    return signed / x.size


def backward(graph: SampleGraph, h: np.ndarray, labels: np.ndarray,
             params: ModelParams) -> tuple[float, np.ndarray]:
    """Loss and d(loss)/d(params.flat), one flat vector in the same layout.

    The loss value is the same forward computation `model_forward` runs,
    bit for bit.
    """
    logits, trace = forward_trace(graph, h, params)
    loss = bce_loss(logits, labels)

    grad = np.zeros(params.layout.size)
    layer_grads, head_grad = params.layout.group(grad)

    head = params.head
    d_logits = bce_grad_logits(logits, labels)
    head_grad["w2"][...] = np.outer(trace.head_act, d_logits)
    head_grad["b2"][...] = d_logits
    d_act = d_logits @ head["w2"].T
    d_pre = d_act * (trace.head_pre > 0)
    head_grad["w1"][...] = np.outer(trace.pooled, d_pre)
    head_grad["b1"][...] = d_pre
    d_pooled = d_pre @ head["w1"].T

    # Sum pooling broadcasts the pooled gradient back to every node row.
    n_nodes = graph.adjacency.shape[0]
    dz = np.tile(d_pooled, (n_nodes, 1))

    cheb = params.variant is Variant.CHEB
    for layer, layer_grad, layer_trace in zip(
            reversed(params.layers), reversed(layer_grads), reversed(trace.layer_traces)):
        if cheb:
            basis, filtered, pre = layer_trace
            d_pre_l = dz * (pre > 0)
            layer_grad["ff_weight"][...] = filtered.T @ d_pre_l
            layer_grad["ff_bias"][...] = d_pre_l.sum(axis=0)
            d_filtered = d_pre_l @ layer["ff_weight"].T

            thetas = layer["thetas"]
            order = thetas.shape[0]
            for k in range(order):
                layer_grad["thetas"][k] = basis[k].T @ d_filtered

            # Adjoint of the three-term recurrence. g[k] holds the gradient
            # reaching T_k(lhat) X; lhat is symmetric so its transpose is itself.
            lhat_m = graph.lhat.values
            g = [d_filtered @ thetas[k].T for k in range(order)]
            for k in range(order - 1, 1, -1):
                g[k - 1] += 2.0 * (lhat_m @ g[k])
                g[k - 2] -= g[k]
            if order > 1:
                g[0] += lhat_m @ g[1]
            dz = g[0]
        else:
            z_in, neigh, pre = layer_trace
            d_pre_l = dz * (pre > 0)
            layer_grad["w_self"][...] = z_in.T @ d_pre_l
            layer_grad["w_neigh"][...] = neigh.T @ d_pre_l
            layer_grad["bias"][...] = d_pre_l.sum(axis=0)
            # adjacency is symmetric, so A^T collapses to A here
            dz = d_pre_l @ layer["w_self"].T + graph.adjacency @ (d_pre_l @ layer["w_neigh"].T)
    return loss, grad


def batch_backward(items, params: ModelParams) -> tuple[float, np.ndarray]:
    """Mean loss and mean flat gradient over (graph, features, labels) triples.

    Accumulation follows the given order, so results are deterministic.
    """
    items = list(items)
    if not items:
        raise ValueError("batch must contain at least one sample")
    total_loss = 0.0
    acc: np.ndarray | None = None
    for graph, features, labels in items:
        loss, grad = backward(graph, features, labels, params)
        total_loss += loss
        if acc is None:
            acc = grad
        else:
            acc += grad
    scale = 1.0 / len(items)
    return total_loss * scale, acc * scale


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


def finite_diff_grad(graph: SampleGraph, h: np.ndarray, labels: np.ndarray,
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
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
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
            spec = GraphSpec.from_spacing_mm(
                n, q, float(rng.uniform(0.5, 3.0)),
                weight_fns[int(rng.integers(len(weight_fns)))],
            )
            graph = prepare_graph(spec)
            params = init_params(d, n_labels, variant,
                                 seed=int(rng.integers(2 ** 31)))
            h = rng.normal(size=(n, d))
            labels = rng.integers(0, 2, size=n_labels)
            # only compare where the finite-difference oracle is valid:
            # redraw configurations sitting on (or within the step of) a
            # ReLU hinge
            _, trace = forward_trace(graph, h, params)
            if _kink_distance(trace) >= KINK_MARGIN:
                break
            redraws += 1
        else:  # pragma: no cover - would need 1000 degenerate draws
            raise RuntimeError("could not draw a hinge-free configuration")

        _, analytic = backward(graph, h, labels, params)
        numeric = finite_diff_grad(graph, h, labels, params, epsilon)
        err = gradcheck_rel_error(analytic, numeric)
        worst = max(worst, err)
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
