"""Multi-label graph classifier.

Two interchangeable graph modules over the same skeleton: a Chebyshev
spectral filter stack and a weighted-neighbour-sum ("graphconv")
baseline. Either way: three conv layers with ReLU, sum pooling over
nodes, then a two-layer MLP head producing one logit per label.

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

from .graph import GraphConfig, GraphSpec, build_adjacency
from .spectral import (
    ScaledLaplacian,
    cheb_basis,
    scaled_laplacian_from_adjacency,
    _filter_sum,
)

__all__ = [
    "Variant",
    "ParamLayout",
    "ModelParams",
    "SampleGraph",
    "ForwardTrace",
    "GraphOperatorCache",
    "prepare_graph",
    "init_params",
    "relu",
    "sigmoid",
    "aggregate_sum",
    "forward_trace",
    "model_forward",
    "bce_loss",
]

DEFAULT_N_LAYERS = 3
DEFAULT_CHEB_K = 3

_INIT_STREAM = 0  # rng stream tag for parameter init


class Variant(str, Enum):
    CHEB = "cheb"
    GRAPHCONV = "graphconv"


_HEAD_TENSORS = 4  # w1, b1, w2, b2: always the last entries


@dataclass(frozen=True)
class ParamLayout:
    """The one table of parameter tensors.

    `entries` lists (name, shape) in declaration order -- each conv layer
    in turn, then the head -- and so fixes where every tensor sits in the
    flat parameter vector. Init, forward/backward, AdamW, the checkpoint
    and the gradcheck all take tensor order and shapes from here.
    `cheb_k` is stored as 0 for the spatial variant, which has no filter.
    """

    variant: Variant
    d: int
    n_labels: int
    n_layers: int
    cheb_k: int
    hidden: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.variant is Variant.GRAPHCONV:
            object.__setattr__(self, "cheb_k", 0)

    @cached_property
    def entries(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        d, hidden = self.d, self.hidden
        if self.variant is Variant.CHEB:
            layer = (("thetas", (self.cheb_k, d, d)), ("ff_weight", (d, d)),
                     ("ff_bias", (d,)))
        else:
            layer = (("w_self", (d, d)), ("w_neigh", (d, d)), ("bias", (d,)))
        head = (("w1", (d, hidden)), ("b1", (hidden,)),
                ("w2", (hidden, self.n_labels)), ("b2", (self.n_labels,)))
        return layer * self.n_layers + head

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        return tuple(accumulate((math.prod(shape) for _, shape in self.entries),
                                initial=0))

    @property
    def size(self) -> int:
        """Length of the flat parameter vector."""
        return self._offsets[-1]

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """One view of `flat` per entry, shaped as the entry says."""
        offsets = self._offsets
        return [flat[offsets[i]:offsets[i + 1]].reshape(shape)
                for i, (_, shape) in enumerate(self.entries)]

    def group(self, flat: np.ndarray) -> tuple[tuple[dict, ...], dict]:
        """Named views of `flat`: one dict per conv layer, then the head's."""
        named = list(zip((name for name, _ in self.entries), self.views(flat)))
        n_conv = len(named) - _HEAD_TENSORS
        width = n_conv // self.n_layers
        layers = tuple(dict(named[i:i + width]) for i in range(0, n_conv, width))
        return layers, dict(named[n_conv:])


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

    @property
    def variant(self) -> Variant:
        return self.layout.variant

    @property
    def d(self) -> int:
        return self.layout.d

    @property
    def n_labels(self) -> int:
        return self.layout.n_labels

    @property
    def n_layers(self) -> int:
        return self.layout.n_layers

    @property
    def cheb_k(self) -> int:
        """Filter order; 0 for the spatial variant."""
        return self.layout.cheb_k


@dataclass(frozen=True)
class SampleGraph:
    """Both operator forms for one sample's graph."""

    adjacency: np.ndarray
    lhat: ScaledLaplacian


def prepare_graph(spec: GraphSpec) -> SampleGraph:
    adjacency = build_adjacency(spec)
    return SampleGraph(adjacency, scaled_laplacian_from_adjacency(adjacency))


class GraphOperatorCache:
    """Memoises SampleGraph per (n_nodes, spacing); samples often share both."""

    def __init__(self, graph_cfg: GraphConfig) -> None:
        self.graph_cfg = graph_cfg
        self._cache: dict[tuple[int, float], SampleGraph] = {}

    def get(self, n_nodes: int, spacing_mm: float) -> SampleGraph:
        key = (n_nodes, spacing_mm)
        hit = self._cache.get(key)
        if hit is None:
            hit = prepare_graph(self.graph_cfg.spec_for(n_nodes, spacing_mm))
            self._cache[key] = hit
        return hit

    def for_sample(self, sample) -> SampleGraph:
        return self.get(sample.features.shape[0], sample.spacing_z_mm)


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
                head_hidden: int | None = None, seed: int = 0) -> ModelParams:
    """Seeded init, drawn entry by entry in layout order: biases (the
    rank-1 entries) are zero, every other tensor is uniform(-s, s) with
    s = 1/sqrt(fan_in) and fan_in = shape[-2]."""
    if d < 1 or n_labels < 1 or n_layers < 1 or cheb_k < 1:
        raise ValueError("d, n_labels, n_layers and cheb_k must all be >= 1")
    hidden = max(1, d // 2) if head_hidden is None else head_hidden
    if hidden < 1:
        raise ValueError(f"head_hidden must be >= 1, got {hidden}")
    layout = ParamLayout(variant, d, n_labels, n_layers, cheb_k, hidden)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, _INIT_STREAM))))

    flat = np.zeros(layout.size)
    for (_, shape), tensor in zip(layout.entries, layout.views(flat)):
        if len(shape) > 1:
            s = 1.0 / np.sqrt(shape[-2])
            tensor[...] = rng.uniform(-s, s, size=shape)
    return ModelParams(layout, flat)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def aggregate_sum(z: np.ndarray) -> np.ndarray:
    """Permutation-invariant readout: column sums over nodes."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError(f"expected (n_nodes, d) features, got shape {z.shape}")
    return z.sum(axis=0)


@dataclass
class ForwardTrace:
    """Intermediates needed by the backward pass."""

    layer_traces: list  # per layer: (basis, filtered, pre) or (z_in, neigh, pre)
    pooled: np.ndarray
    head_pre: np.ndarray
    head_act: np.ndarray
    logits: np.ndarray


def forward_trace(graph: SampleGraph, h: np.ndarray, params: ModelParams):
    """Run the model keeping intermediates; returns (logits, trace)."""
    z = np.asarray(h, dtype=float)
    if z.ndim != 2 or z.shape[1] != params.d:
        raise ValueError(
            f"features must be (n_nodes, {params.d}), got shape {np.shape(h)}"
        )
    cheb = params.variant is Variant.CHEB
    traces = []
    for layer in params.layers:
        if cheb:
            # ReLU(feedforward(Chebyshev filter(z)))
            thetas = layer["thetas"]
            basis = cheb_basis(graph.lhat, z, thetas.shape[0])
            filtered = _filter_sum(basis, thetas)
            pre = filtered @ layer["ff_weight"] + layer["ff_bias"]
            traces.append((basis, filtered, pre))
        else:
            # ReLU(z W_self + (A z) W_neigh + bias): weighted neighbour sum
            neigh = graph.adjacency @ z
            pre = z @ layer["w_self"] + neigh @ layer["w_neigh"] + layer["bias"]
            traces.append((z, neigh, pre))
        z = relu(pre)

    pooled = aggregate_sum(z)
    head = params.head
    head_pre = pooled @ head["w1"] + head["b1"]
    head_act = relu(head_pre)
    logits = head_act @ head["w2"] + head["b2"]
    return logits, ForwardTrace(traces, pooled, head_pre, head_act, logits)


def model_forward(graph: SampleGraph, h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Logits (one per label) for one sample."""
    logits, _ = forward_trace(graph, h, params)
    return logits


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
