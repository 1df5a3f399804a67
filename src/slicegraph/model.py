"""Multi-label graph classifier.

Two interchangeable graph modules over the same skeleton: a Chebyshev
spectral filter stack and a weighted-neighbour-sum ("graphconv")
baseline. Either way: three conv layers with ReLU, sum pooling over
nodes, then a two-layer MLP head producing one logit per label. The
forward pass takes the (R, d) node rows of a pass of samples, each
graph's samples contiguous (`graph_passes` forms them): every weight
product runs once over all R rows and only the graph operator runs per
graph. `pass_backward` runs the same pass in reverse, by hand, from
what the forward pass saved. A single sample is a pass of one.
A sample's graph is a `graph.GraphSpec` made by `prepare_graph`; a
command's `GraphOperatorCache` keeps one per (n_nodes, spacing).

All parameters live in one contiguous f64 vector whose tensor order and
shapes come from `ParamLayout`; `ModelParams` holds that vector, read-only,
with named views of it. Updates build a new vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate

import numpy as np

from .graph import MM_PER_DM, GraphConfig, GraphSpec
from .spectral import cheb_basis, cheb_basis_adjoint

__all__ = [
    "Variant",
    "ParamLayout",
    "ModelParams",
    "GraphOperatorCache",
    "prepare_graph",
    "init_params",
    "relu",
    "sigmoid",
    "aggregate_sum",
    "graph_passes",
    "pass_forward",
    "model_forward",
    "bce_loss",
    "bce_grad_logits",
]

DEFAULT_N_LAYERS = 3
DEFAULT_CHEB_K = 3

# Most node rows one pass takes; bounds the memory its intermediates hold.
# A mixed-volume step (4 samples of at most 128 nodes) is always one pass;
# larger passes measured slower in predict (see CHANGES.md).
PASS_ROWS = 512

_INIT_STREAM = 0  # rng stream tag for parameter init


class Variant(str, Enum):
    CHEB = "cheb"
    GRAPHCONV = "graphconv"


@dataclass(frozen=True)
class ParamLayout:
    """The one table of parameter tensors.

    `entries` lists (name, shape) in declaration order -- each conv layer
    in turn, then the head -- and so fixes where every tensor sits in the
    flat parameter vector. Init, forward/backward, AdamW, the checkpoint
    and the gradcheck all take tensor order and shapes from here. The
    fields are the checkpoint header's; `cheb_k` is 0 for graphconv.
    """

    n_labels: int
    d: int
    cheb_k: int
    n_layers: int

    @property
    def variant(self) -> Variant:
        return Variant.CHEB if self.cheb_k else Variant.GRAPHCONV

    @property
    def hidden(self) -> int:
        return max(1, self.d // 2)

    @cached_property
    def _parts(self) -> tuple[dict, dict]:
        """Shape by name of one conv layer's tensors, and of the head's."""
        d, hidden = self.d, self.hidden
        if self.cheb_k:
            layer = {"thetas": (self.cheb_k, d, d), "ff_weight": (d, d), "ff_bias": (d,)}
        else:
            layer = {"w_self": (d, d), "w_neigh": (d, d), "bias": (d,)}
        head = {"w1": (d, hidden), "b1": (hidden,),
                "w2": (hidden, self.n_labels), "b2": (self.n_labels,)}
        return layer, head

    @cached_property
    def entries(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        layer, head = self._parts
        return tuple(layer.items()) * self.n_layers + tuple(head.items())

    @cached_property
    def _slices(self) -> tuple[tuple[slice, tuple[int, ...]], ...]:
        """Each entry's (slice of the flat vector, shape), in entry order."""
        offsets = tuple(accumulate((math.prod(shape) for _, shape in self.entries),
                                   initial=0))
        return tuple((slice(start, stop), shape) for start, stop, (_, shape)
                     in zip(offsets, offsets[1:], self.entries))

    @property
    def size(self) -> int:
        """Length of the flat parameter vector."""
        return self._slices[-1][0].stop

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """One view of `flat` per entry, shaped as the entry says."""
        return [flat[part].reshape(shape) for part, shape in self._slices]

    def group(self, flat: np.ndarray) -> tuple[tuple[dict, ...], dict]:
        """Named views of `flat`: one dict per conv layer, then the head's."""
        views = iter(self.views(flat))
        layer, head = self._parts
        layers = tuple(dict(zip(layer, views)) for _ in range(self.n_layers))
        return layers, dict(zip(head, views))


class ModelParams:
    """Every parameter in one contiguous, read-only f64 vector `flat`,
    ordered by `layout`, with named views of it: `layers[i][name]` for
    each conv layer and `head[name]` for the MLP head.

    `flat` is copied on construction, so later writes to the caller's
    array never reach the model.
    """

    def __init__(self, layout: ParamLayout, flat) -> None:
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != (layout.size,):
            raise ValueError(
                f"expected {layout.size} parameters, got shape {flat.shape}")
        flat.flags.writeable = False
        self.layout = layout
        self.flat = flat
        self.layers, self.head = layout.group(flat)


def prepare_graph(graph_cfg: GraphConfig, n_nodes: int, spacing_mm: float) -> GraphSpec:
    """The graph of a volume of `n_nodes` nodes at z spacing `spacing_mm`."""
    q = n_nodes - 1 if graph_cfg.q == "full" else graph_cfg.q
    return GraphSpec(n_nodes, q, spacing_mm / MM_PER_DM, graph_cfg.weight_fn)


class GraphOperatorCache:
    """Memoises each sample's graph per (n_nodes, spacing); samples often
    share both, and a graph keeps the operators it has built."""

    def __init__(self, graph_cfg: GraphConfig) -> None:
        self.graph_cfg = graph_cfg
        self._cache: dict[tuple[int, float], GraphSpec] = {}

    def get(self, sample) -> GraphSpec:
        key = (sample.features.shape[0], sample.spacing_z_mm)
        if key not in self._cache:
            self._cache[key] = prepare_graph(self.graph_cfg, *key)
        return self._cache[key]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def init_params(d: int, n_labels: int, variant: Variant = Variant.CHEB, *,
                n_layers: int = DEFAULT_N_LAYERS, cheb_k: int = DEFAULT_CHEB_K,
                seed: int = 0) -> ModelParams:
    """Seeded init, drawn entry by entry in layout order: biases (the
    rank-1 entries) are zero, every other tensor is uniform(-s, s) with
    s = 1/sqrt(fan_in) and fan_in = shape[-2]."""
    if d < 1 or n_labels < 1 or n_layers < 1 or cheb_k < 1:
        raise ValueError("d, n_labels, n_layers and cheb_k must all be >= 1")
    layout = ParamLayout(n_labels, d, cheb_k if Variant(variant) is Variant.CHEB else 0,
                         n_layers)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, _INIT_STREAM))))

    flat = np.zeros(layout.size)
    for (_, shape), tensor in zip(layout.entries, layout.views(flat)):
        if len(shape) > 1:
            s = 1.0 / np.sqrt(shape[-2])
            tensor[...] = rng.uniform(-s, s, size=shape)
    return ModelParams(layout, flat)


# ---------------------------------------------------------------------------
# forward and backward pass
# ---------------------------------------------------------------------------

def aggregate_sum(z: np.ndarray) -> np.ndarray:
    """Permutation-invariant readout: column sums over nodes, per sample."""
    z = np.asarray(z, dtype=float)
    if z.ndim < 2:
        raise ValueError(f"expected (..., n_nodes, d) features, got shape {z.shape}")
    return z.sum(axis=-2)


def graph_passes(graphs) -> list[tuple[list[int], list[tuple[GraphSpec, int]]]]:
    """Positions of `graphs`, grouped by graph object in order of first
    appearance and packed into passes of at most PASS_ROWS node rows. A
    pass is (positions, blocks): the positions in row order, and blocks
    of (graph, b), b consecutive positions of that graph. A graph's
    samples share one pass unless they exceed PASS_ROWS; then they fill
    passes in turn, straddling pass boundaries. A sample larger than
    PASS_ROWS runs alone."""
    groups: dict[int, tuple[GraphSpec, list[int]]] = {}
    for i, graph in enumerate(graphs):
        groups.setdefault(id(graph), (graph, []))[1].append(i)
    passes: list[tuple[list[int], list[tuple[GraphSpec, int]]]] = [([], [])]
    rows = 0
    for graph, idx in groups.values():
        n = graph.n_nodes
        take = max(1, PASS_ROWS // n)
        while idx:
            # samples that do not fit in what is left start a new pass
            if rows and rows + len(idx) * n > PASS_ROWS:
                passes.append(([], []))
                rows = 0
            run, idx = idx[:take], idx[take:]
            positions, blocks = passes[-1]
            positions += run
            blocks.append((graph, len(run)))
            rows += len(run) * n
    return passes


def _block_slices(blocks):
    """Each block's graph, sample count b and slice of the pass's rows."""
    start = 0
    for graph, b in blocks:
        stop = start + b * graph.n_nodes
        yield graph, b, slice(start, stop)
        start = stop


def per_graph(blocks, z: np.ndarray, order: int) -> np.ndarray:
    """Each block's graph operator on its (b, n_nodes, d) rows of the (R, d)
    matrix `z`, into the same rows of the result. `order` 0 gives A·Z, (R, d),
    its own adjoint as A is symmetric; any other `order` gives the (R, order·d)
    side-by-side Chebyshev basis [T_0(L̂)Z, ..., T_{order-1}(L̂)Z]."""
    out = np.empty((z.shape[0], max(order, 1) * z.shape[1]))
    for graph, b, rows in _block_slices(blocks):
        z_graph = z[rows].reshape(b, graph.n_nodes, -1)
        part = (cheb_basis(graph.lhat, z_graph, order).transpose(1, 2, 0, 3) if order
                else graph.adjacency @ z_graph)
        out[rows].reshape(part.shape)[...] = part
    return out


def pass_forward(blocks, x: np.ndarray, params: ModelParams):
    """Run the model on the (R, d) node rows `x` of a pass. `blocks` lists
    (graph, b) in row order: b samples of that graph, each n_nodes rows.

    Returns (S, n_labels) logits, one row per sample in row order, and
    what `pass_backward` reuses: per conv layer the (R, ...) inputs of its
    matmuls and its pre-activation, and the head's (pooled, pre, act).
    """
    z = np.asarray(x, dtype=float)
    d = params.layout.d
    n_rows = sum(b * graph.n_nodes for graph, b in blocks)
    if z.shape != (n_rows, d):
        raise ValueError(f"features must be ({n_rows}, {d}) node rows, got shape {z.shape}")
    order = params.layout.cheb_k  # 0 for graphconv, which applies A
    layers = []
    for layer in params.layers:
        op_z = per_graph(blocks, z, order)
        if order:
            # ReLU(feedforward(Chebyshev filter(z))); the filter is one
            # (R, K·d) @ (K·d, d) matmul over the side-by-side basis
            filtered = op_z @ layer["thetas"].reshape(-1, d)
            pre = filtered @ layer["ff_weight"] + layer["ff_bias"]
            layers.append((op_z, filtered, pre))
        else:
            # ReLU(z W_self + (A z) W_neigh + bias): weighted neighbour sum
            pre = z @ layer["w_self"] + op_z @ layer["w_neigh"] + layer["bias"]
            layers.append((z, op_z, pre))
        z = relu(pre)

    # sum pooling: each sample's node rows summed into its pooled row
    pooled = np.concatenate([aggregate_sum(z[rows].reshape(b, graph.n_nodes, d))
                             for graph, b, rows in _block_slices(blocks)])
    head = params.head
    head_pre = pooled @ head["w1"] + head["b1"]
    head_act = relu(head_pre)
    logits = head_act @ head["w2"] + head["b2"]
    return logits, layers, (pooled, head_pre, head_act)


def pass_backward(blocks, saved, d_logits: np.ndarray, params: ModelParams,
                  grad: np.ndarray) -> None:
    """Add one pass's part of d(loss)/d(params.flat) into `grad`, from
    what `pass_forward` saved and the loss gradient at its logits."""
    layers, (pooled, head_pre, head_act) = saved
    layer_grads, head_grad = params.layout.group(grad)

    head = params.head
    head_grad["w2"] += head_act.T @ d_logits
    head_grad["b2"] += d_logits.sum(axis=0)
    d_pre = (d_logits @ head["w2"].T) * (head_pre > 0)
    head_grad["w1"] += pooled.T @ d_pre
    head_grad["b1"] += d_pre.sum(axis=0)

    # Sum pooling broadcasts each sample's pooled gradient back to its node rows.
    dz = np.repeat(d_pre @ head["w1"].T,
                   [graph.n_nodes for graph, b in blocks for _ in range(b)], axis=0)
    d = params.layout.d

    order = params.layout.cheb_k  # 0 for graphconv
    for layer, layer_grad, (z_in, mid, pre) in zip(
            reversed(params.layers), reversed(layer_grads), reversed(layers)):
        d_pre_l = dz * (pre > 0)
        if order:
            basis, filtered = z_in, mid
            layer_grad["ff_weight"] += filtered.T @ d_pre_l
            layer_grad["ff_bias"] += d_pre_l.sum(axis=0)
            d_filtered = d_pre_l @ layer["ff_weight"].T

            layer_grad["thetas"] += (basis.T @ d_filtered).reshape(order, d, d)
            # g[k] holds the gradient reaching T_k(lhat) Z; each graph's
            # adjoint sums its rows of g into g[0], in place
            g = d_filtered @ layer["thetas"].transpose(0, 2, 1)
            for graph, b, rows in _block_slices(blocks):
                cheb_basis_adjoint(graph.lhat, g[:, rows].reshape(order, b, graph.n_nodes, d))
            dz = g[0]
        else:
            neigh = mid
            layer_grad["w_self"] += z_in.T @ d_pre_l
            layer_grad["w_neigh"] += neigh.T @ d_pre_l
            layer_grad["bias"] += d_pre_l.sum(axis=0)
            # adjacency is symmetric, so A^T collapses to A here
            d_neigh = d_pre_l @ layer["w_neigh"].T
            dz = d_pre_l @ layer["w_self"].T + per_graph(blocks, d_neigh, 0)


def model_forward(graph: GraphSpec, h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Logits (one per label) for one (n_nodes, d) sample: a pass of one."""
    return pass_forward([(graph, 1)], h, params)[0][0]


def bce_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy over labels, from logits.

    Uses the overflow-free form max(x, 0) - x*y + log(1 + exp(-|x|)).
    """
    x = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"logits shape {x.shape} != labels shape {y.shape}")
    per_label = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    return float(per_label.mean())


def bce_grad_logits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d(logits) = (sigmoid(x) - y) / n_labels, computed stably.

    For y = 1 the difference is evaluated as -sigmoid(-x) so saturated
    logits keep their tiny but nonzero gradient instead of rounding to 0.
    """
    x = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=float)
    signed = np.where(y == 1.0, -sigmoid(-x), sigmoid(x))
    return signed / x.size
