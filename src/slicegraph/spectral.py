"""Graph Laplacian, spectrum rescaling, and Chebyshev polynomial filtering.

The filter is applied through the three-term recurrence so no
eigendecomposition is needed on the hot path; `spectral_filter_oracle`
is the independent eigenbasis route used to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError

__all__ = [
    "ScaledLaplacian",
    "laplacian",
    "lambda_max",
    "scale_laplacian",
    "scaled_laplacian_from_adjacency",
    "cheb_basis",
    "cheb_basis_adjoint",
    "cheb_apply",
    "spectral_filter_oracle",
]

# Spectrum below this is treated as identically zero (edgeless graph).
_DEGENERATE_EPS = 1e-12

# The eigenbasis cross-check is only meant for small graphs.
_ORACLE_MAX_NODES = 64


@dataclass(frozen=True)
class ScaledLaplacian:
    """Laplacian rescaled to spectrum within [-1, 1], plus the lambda_max used."""

    values: np.ndarray
    lambda_max_used: float


def laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Unnormalised graph Laplacian ``diag(degrees) - adjacency``."""
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diag(a) != 0.0):
        raise ValueError("adjacency must have a zero diagonal")
    # 0.0 - a, not -a: negation would turn the +0.0 entries into -0.0
    lap = 0.0 - a
    np.fill_diagonal(lap, a.sum(axis=1))
    return lap


def _half_blocks(lap: np.ndarray) -> np.ndarray:
    """A + B·J and A - B·J, the half-size blocks whose spectra together are
    that of a symmetric `lap` equal to its 180-degree rotation (Cantoni &
    Butler 1976): A and B are its top-left and top-right m x m blocks,
    m = n // 2, and J reverses columns. For odd n the middle row and column,
    scaled by sqrt(2), border the first block; the second is zero-padded."""
    n = len(lap)
    m, h = n // 2, n - n // 2
    near, far = lap[:m, :m], lap[:m, ::-1][:, :m]
    blocks = np.zeros((2, h, h))
    blocks[0, :m, :m], blocks[1, :m, :m] = near + far, near - far
    if n % 2:
        blocks[0, m], blocks[0, :, m] = np.sqrt(2.0) * lap[m, :h], np.sqrt(2.0) * lap[:h, m]
        blocks[0, m, m] = lap[m, m]
    return blocks


def lambda_max(lap: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric Laplacian: one stacked eigvalsh of
    its two half-size blocks if it equals its 180-degree rotation, as a
    banded graph's does unless its degree sums round apart, else a dense one.

    Raises DegenerateSpectrumError when the spectrum is numerically zero,
    which happens exactly when the graph has no edges.
    """
    lap = np.asarray(lap, dtype=float)
    centrosymmetric = (lap.ndim == 2 and len(lap) == lap.shape[1]
                       and np.array_equal(lap, lap[::-1, ::-1]))
    vals = np.linalg.eigvalsh(_half_blocks(lap) if centrosymmetric else lap)
    top = float(vals[..., -1].max())
    if top < _DEGENERATE_EPS:
        raise DegenerateSpectrumError(
            f"largest Laplacian eigenvalue {top:.3e} is numerically zero"
        )
    return top


def scale_laplacian(lap: np.ndarray, lmax: float) -> ScaledLaplacian:
    """Affine rescale ``(2/lmax) * L - I`` mapping the spectrum into [-1, 1]."""
    if not lmax > 0:
        raise ValueError(f"lambda_max must be positive, got {lmax}")
    values = (2.0 / lmax) * np.asarray(lap, dtype=float)
    np.fill_diagonal(values, values.diagonal() - 1.0)
    return ScaledLaplacian(values, float(lmax))


def scaled_laplacian_from_adjacency(adjacency: np.ndarray) -> ScaledLaplacian:
    lap = laplacian(adjacency)
    return scale_laplacian(lap, lambda_max(lap))


def cheb_basis(lhat: ScaledLaplacian, x: np.ndarray, order: int) -> np.ndarray:
    """Stack ``[T_0(M) X, ..., T_{order-1}(M) X]`` via the recurrence.

    T_0 X = X, T_1 X = M X, T_k X = 2 M T_{k-1} X - T_{k-2} X, with M the
    scaled Laplacian `lhat.values`. `x` may be a (..., n_nodes, d) stack
    of samples on one graph; M broadcasts over the leading axes.
    Accumulation is in double precision regardless of the input dtype.
    """
    m = lhat.values
    x = np.asarray(x, dtype=float)
    if order < 1:
        raise ValueError(f"filter order must be >= 1, got {order}")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be square, got shape {m.shape}")
    if x.ndim < 2 or x.shape[-2] != m.shape[0]:
        raise ValueError(
            f"features must be (..., n_nodes, d) with n_nodes={m.shape[0]}, got {x.shape}"
        )
    basis = np.empty((order,) + x.shape, dtype=float)
    basis[0] = x
    if order > 1:
        basis[1] = m @ x
    for k in range(2, order):
        basis[k] = 2.0 * (m @ basis[k - 1]) - basis[k - 2]
    return basis


def cheb_basis_adjoint(lhat: ScaledLaplacian, g: np.ndarray) -> np.ndarray:
    """Adjoint of `cheb_basis`: ``sum_k T_k(M) G[k]`` for an (order, ...,
    n_nodes, d) stack G, G[k] the gradient reaching T_k(M) X. Runs the
    recurrence backwards in place on `g` and returns g[0]; M is symmetric."""
    m = lhat.values
    for k in range(len(g) - 1, 1, -1):
        g[k - 1] += 2.0 * (m @ g[k])
        g[k - 2] -= g[k]
    if len(g) > 1:
        g[0] += m @ g[1]
    return g[0]


def _check_thetas(thetas, d_in: int) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 3:
        raise ValueError(f"thetas must be (K, d_in, d_out), got shape {thetas.shape}")
    if thetas.shape[1] != d_in:
        raise ValueError(
            f"thetas expect d_in={thetas.shape[1]} but features have d={d_in}"
        )
    return thetas


def cheb_apply(lhat: ScaledLaplacian, x: np.ndarray, thetas) -> np.ndarray:
    """Chebyshev filter ``sum_k T_k(lhat) X theta_k`` as the model's layers run
    it: the (n, K·d_in) side-by-side basis [T_0 X, ..., T_{K-1} X] times the
    (K·d_in, d_out) stacked thetas. No nonlinearity here."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    thetas = _check_thetas(thetas, x.shape[1])
    # C-ordered, as the model's basis is: at d_in = 1 the reshape of the
    # transpose alone is an F-ordered view, which BLAS rounds differently
    basis = np.ascontiguousarray(cheb_basis(lhat, x, len(thetas)).transpose(1, 0, 2))
    return basis.reshape(len(x), -1) @ thetas.reshape(-1, thetas.shape[2])


def spectral_filter_oracle(lap: np.ndarray, x: np.ndarray, thetas) -> np.ndarray:
    """Same filter computed in the eigenbasis; cross-check for `cheb_apply`.

    Diagonalises L = U diag(lam) U^T, rescales the eigenvalues, and
    evaluates each T_k scalar-wise as cos(k * arccos(lam_hat)). Intended
    for small graphs only.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if n > _ORACLE_MAX_NODES:
        raise ValueError(f"oracle is restricted to n_nodes <= {_ORACLE_MAX_NODES}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(f"features must be ({n}, d), got {x.shape}")
    thetas = _check_thetas(thetas, x.shape[1])

    lam, u = np.linalg.eigh(lap)
    top = float(lam[-1])
    if top < _DEGENERATE_EPS:
        raise DegenerateSpectrumError(
            f"largest Laplacian eigenvalue {top:.3e} is numerically zero"
        )
    # Clip cancels the few-ulp excursions outside [-1, 1] before arccos.
    lam_hat = np.clip(2.0 * lam / top - 1.0, -1.0, 1.0)
    angles = np.arccos(lam_hat)

    spectral_x = u.T @ x
    out = np.zeros((n, thetas.shape[2]), dtype=float)
    for k in range(len(thetas)):
        t_k = np.cos(k * angles)
        out += u @ (t_k[:, None] * spectral_x) @ thetas[k]
    return out
