"""Banded, distance-weighted graphs over an axial slice sequence.

A 3D volume read along its z axis becomes a path-like graph: one node
per slice triplet, ordered by axial position. Two nodes are connected
when they are at most ``q`` apart in that ordering, and edge weights
encode the physical z distance between the slices they cover.
A volume's graph is one `GraphSpec`, whose gap-weight vector fixes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import spectral

__all__ = [
    "WeightFn",
    "GraphSpec",
    "GraphConfig",
    "MM_PER_DM",
    "SLICES_PER_NODE",
    "edge_weight",
    "build_adjacency",
]

# Scanner metadata reports z spacing in millimetres; the weight formulas
# work in decimetres.
MM_PER_DM = 100.0

# Each node covers a triplet of consecutive slices, so neighbouring nodes
# are three physical slices apart.
SLICES_PER_NODE = 3.0


class WeightFn(str, Enum):
    """Edge weighting schemes, keyed by the CLI spelling."""

    INVERSE_DM = "inverse-dm"  # 1 + 1/(1 + 3*gap*s_z), bounded in (1, 2)
    EXP_DECAY = "exp"          # exp(-3*gap*s_z)
    CONSTANT = "const"         # unweighted


@dataclass(frozen=True)
class GraphSpec:
    """One sample's graph. ``spacing_z`` is the z spacing in decimetres;
    `model.prepare_graph` makes a spec from millimetres. A ``q`` of
    ``n_nodes - 1`` or more yields the fully connected graph. `adjacency`
    (graphconv) and `lhat` (cheb) are built on first use and kept, so a
    graph holds only the n x n operator its variant applies.
    """

    n_nodes: int
    q: int
    spacing_z: float
    weight_fn: WeightFn = WeightFn.INVERSE_DM

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.q < 1:
            raise ValueError(f"neighbourhood size must be >= 1, got {self.q}")
        if not 0 < self.spacing_z < np.inf:
            raise ValueError(f"z spacing must be positive and finite, got {self.spacing_z}")
        object.__setattr__(self, "weight_fn", WeightFn(self.weight_fn))

    @property
    def is_fully_connected(self) -> bool:
        return self.q >= self.n_nodes - 1

    @property
    def n_edges(self) -> int:
        """n_nodes - g node pairs at each gap g from 1 to min(q, n_nodes - 1)."""
        band = min(self.q, self.n_nodes - 1)
        return band * self.n_nodes - band * (band + 1) // 2

    @property
    def gap_weights(self) -> np.ndarray:
        """w: w[g] weighs every edge between nodes g apart; 0 at g = 0 and past q."""
        w = np.zeros(self.n_nodes)
        gaps = np.arange(1, min(self.q, self.n_nodes - 1) + 1)
        w[gaps] = _gap_weight(gaps, self.spacing_z, self.weight_fn)
        return w

    @cached_property
    def adjacency(self) -> np.ndarray:
        return build_adjacency(self)

    @cached_property
    def lhat(self) -> spectral.ScaledLaplacian:
        """L̂ from w alone, without A or `spectral.laplacian`'s checks: the Toeplitz
        matrix of 0.0 - w with its negated row sums on the diagonal is L, byte for byte."""
        lap = _toeplitz(0.0 - self.gap_weights)
        np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))  # 0.0 - s keeps an edgeless row's +0.0
        return spectral.scale_laplacian(lap, spectral.lambda_max(lap))


@dataclass(frozen=True)
class GraphConfig:
    """Graph hyperparameters shared across samples; spacing comes per sample.
    A ``q`` of ``"full"`` is each volume's ``n_nodes - 1``: fully connected."""

    q: int | str
    weight_fn: WeightFn = WeightFn.INVERSE_DM

    def __post_init__(self) -> None:
        if self.q != "full" and (isinstance(self.q, str) or self.q < 1):
            raise ValueError(f"neighbourhood size must be >= 1 or 'full', got {self.q!r}")
        object.__setattr__(self, "weight_fn", WeightFn(self.weight_fn))


def _gap_weight(gap, spacing_z: float, weight_fn: WeightFn):
    """Weight for a node-index gap; works elementwise on arrays."""
    dist = SLICES_PER_NODE * np.asarray(gap, dtype=float) * spacing_z
    if weight_fn is WeightFn.INVERSE_DM:
        return 1.0 + 1.0 / (1.0 + dist)
    if weight_fn is WeightFn.EXP_DECAY:
        return np.exp(-dist)
    return np.ones_like(dist)


def edge_weight(i: int, j: int, spec: GraphSpec) -> float:
    """Weight of the edge between nodes i and j under the GraphSpec's scheme."""
    if i == j:
        raise ValueError("self-loops are excluded (i == j)")
    for k in (i, j):
        if not 0 <= k < spec.n_nodes:
            raise ValueError(f"node index {k} out of range [0, {spec.n_nodes})")
    return float(_gap_weight(abs(i - j), spec.spacing_z, spec.weight_fn))


def _toeplitz(w: np.ndarray) -> np.ndarray:
    """The n x n matrix whose entry (i, j) is w[|i - j|], as a copy of a
    Toeplitz view of [w[n-1], ..., w[1], w[0], w[1], ..., w[n-1]]."""
    n = len(w)
    mirrored = np.concatenate((w[:0:-1], w))
    # row i starts i entries before w[0] and runs forward: entry (i, j) is w[|i - j|]
    step = mirrored.itemsize
    return np.lib.stride_tricks.as_strided(mirrored[n - 1:], (n, n), (-step, step)).copy()


def build_adjacency(spec: GraphSpec) -> np.ndarray:
    """Dense symmetric weighted adjacency with a zero diagonal.

    Entry (i, j) depends only on the gap |i - j|, so the matrix is filled
    in one pass from the spec's gap weights w: entry (i, j) is w[|i - j|].
    """
    return _toeplitz(spec.gap_weights)
