"""Laplacian construction, spectrum scaling, and the Chebyshev filter
against its eigendecomposition oracle."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegraph import spectral
from slicegraph.errors import DegenerateSpectrumError
from slicegraph.graph import GraphConfig, GraphSpec, WeightFn, _gap_weight, build_adjacency
from slicegraph.model import Variant, init_params, pass_forward, per_graph, prepare_graph
from slicegraph.spectral import (
    ScaledLaplacian,
    _half_blocks,
    cheb_apply,
    cheb_basis,
    cheb_basis_adjoint,
    lambda_max,
    laplacian,
    scale_laplacian,
    scaled_laplacian_from_adjacency,
    spectral_filter_oracle,
)

W_ADJ = 1.9569377990430623  # inverse-distance weight, gap 1, 1.5 mm spacing


def const_spec(n, q):
    return GraphSpec(n_nodes=n, q=q, spacing_z=0.015, weight_fn=WeightFn.CONSTANT)


def random_spec(rng, n_max=16):
    n = int(rng.integers(2, n_max + 1))
    q = int(rng.integers(1, n))
    spacing = float(rng.uniform(0.005, 0.05))
    weight_fn = list(WeightFn)[int(rng.integers(len(WeightFn)))]
    return GraphSpec(n_nodes=n, q=q, spacing_z=spacing, weight_fn=weight_fn)


class TestLaplacian:
    def test_single_edge(self):
        lap = laplacian(build_adjacency(const_spec(2, 1)))
        np.testing.assert_array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_path_of_three(self):
        lap = laplacian(build_adjacency(const_spec(3, 1)))
        np.testing.assert_array_equal(
            lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_weighted_path_of_three(self):
        spec = GraphSpec(3, 1, 0.015, WeightFn.INVERSE_DM)
        lap = laplacian(build_adjacency(spec))
        np.testing.assert_allclose(
            lap,
            [[W_ADJ, -W_ADJ, 0], [-W_ADJ, 2 * W_ADJ, -W_ADJ], [0, -W_ADJ, W_ADJ]],
            rtol=0, atol=1e-15)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            laplacian(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_row_sums_vanish_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lap = laplacian(build_adjacency(random_spec(rng)))
            scale = np.abs(lap).max()
            assert np.abs(lap.sum(axis=1)).max() <= 1e-12 * max(scale, 1.0)

    def test_positive_semidefinite_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            lap = laplacian(build_adjacency(random_spec(rng)))
            assert np.linalg.eigvalsh(lap)[0] >= -1e-9


def dense_operators(spec):
    """The adjacency and the Laplacian by their dense formulas: the gap
    weight of every entry masked to the band, then diag(degrees) - A."""
    idx = np.arange(spec.n_nodes)
    gaps = np.abs(idx[:, None] - idx[None, :])
    banded = (gaps >= 1) & (gaps <= spec.q)
    adjacency = np.where(banded, _gap_weight(gaps, spec.spacing_z, spec.weight_fn), 0.0)
    return adjacency, np.diag(adjacency.sum(axis=1)) - adjacency


class TestOperatorsMatchDenseFormulas:
    """The banded fill, the in-place Laplacian and the graph's L̂ built from
    its gap weights write the same bytes as the dense formulas they replace."""

    SPACINGS_MM = (0.625, 1.25, 1.5, 2.5, 5.0, 100_000.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 20, 72, 128])
    @pytest.mark.parametrize("weight_fn", list(WeightFn))
    def test_adjacency_and_scaled_laplacian_bytes(self, weight_fn, n):
        for q in sorted({1, 2, 4, 16, n - 1, n + 5} - {0}):
            for spacing in self.SPACINGS_MM:
                spec = prepare_graph(GraphConfig(q, weight_fn), n, spacing)
                adjacency, lap = dense_operators(spec)
                built = build_adjacency(spec)
                assert built.tobytes() == adjacency.tobytes()
                assert laplacian(built).tobytes() == lap.tobytes()
                if weight_fn is WeightFn.EXP_DECAY and spacing == 100_000.0:
                    # every weight underflows to 0: no edges on either side
                    with pytest.raises(DegenerateSpectrumError):
                        lambda_max(lap)
                    with pytest.raises(DegenerateSpectrumError):
                        scaled_laplacian_from_adjacency(built)
                    with pytest.raises(DegenerateSpectrumError):
                        spec.lhat
                    continue
                top = lambda_max(lap)
                expected = scale_laplacian(laplacian(built), top)
                for lhat in (scaled_laplacian_from_adjacency(built), spec.lhat):
                    assert lhat.lambda_max_used == top
                    assert lhat.values.tobytes() == expected.values.tobytes() == \
                        ((2.0 / top) * lap - np.eye(n)).tobytes()


class TestLambdaMax:
    def test_single_unit_edge(self):
        assert lambda_max(laplacian(build_adjacency(const_spec(2, 1)))) == \
            pytest.approx(2.0, abs=1e-12)

    def test_triangle(self):
        assert lambda_max(laplacian(build_adjacency(const_spec(3, 2)))) == \
            pytest.approx(3.0, abs=1e-12)

    def test_scales_linearly_with_edge_weight(self):
        # one edge of weight w has spectrum {0, 2w}
        spec = GraphSpec(2, 1, 0.015, WeightFn.INVERSE_DM)
        assert lambda_max(laplacian(build_adjacency(spec))) == \
            pytest.approx(2 * W_ADJ, rel=1e-12)
        assert lambda_max(laplacian(build_adjacency(spec))) == \
            pytest.approx(3.913876, abs=1e-6)

    def test_zero_matrix_is_degenerate(self):
        for n in (2, 3, 4):
            with pytest.raises(DegenerateSpectrumError):
                lambda_max(np.zeros((n, n)))

    @pytest.mark.parametrize("weight_fn", list(WeightFn))
    def test_split_is_within_16_ulps_of_dense(self, weight_fn):
        # a banded Laplacian equals its 180-degree rotation unless rounding
        # sets its degree sums apart; those that do take the split
        split = cases = 0
        for n in range(2, 131):
            for q in sorted({1, 4, 16, n - 1}):
                for spacing in (0.625, 1.25, 2.5, 5.0):
                    lap = laplacian(build_adjacency(
                        prepare_graph(GraphConfig(q, weight_fn), n, spacing)))
                    dense = float(np.linalg.eigvalsh(lap)[-1])
                    assert abs(lambda_max(lap) - dense) <= 16 * np.spacing(dense), (n, q, spacing)
                    split += np.array_equal(lap, lap[::-1, ::-1])
                    cases += 1
        assert split >= cases // 4

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 40, 41])
    def test_half_blocks_carry_the_whole_spectrum(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n))
        m = m + m.T
        m = m + m[::-1, ::-1]
        blocks = _half_blocks(m)
        # the second block of an odd n is padded with one zero row and column
        halves = np.concatenate([np.linalg.eigvalsh(blocks[0]),
                                 np.linalg.eigvalsh(blocks[1][:n // 2, :n // 2])])
        np.testing.assert_allclose(np.sort(halves), np.linalg.eigvalsh(m),
                                   rtol=0, atol=1e-12 * np.abs(m).max() * n)

    def test_relabelled_laplacian_takes_the_dense_eigvalsh(self):
        lap = laplacian(build_adjacency(GraphSpec(9, 3, 0.015, WeightFn.CONSTANT)))
        perm = np.random.default_rng(4).permutation(9)
        relabelled = lap[np.ix_(perm, perm)]
        assert not np.array_equal(relabelled, relabelled[::-1, ::-1])
        assert lambda_max(relabelled) == float(np.linalg.eigvalsh(relabelled)[-1])


class TestScaleLaplacian:
    def test_single_edge_scaled(self):
        lap = laplacian(build_adjacency(const_spec(2, 1)))
        lhat = scale_laplacian(lap, lambda_max(lap))
        np.testing.assert_allclose(
            lhat.values, [[0.0, -1.0], [-1.0, 0.0]], rtol=0, atol=1e-15)
        assert lhat.lambda_max_used == pytest.approx(2.0)

    def test_affine_identity(self):
        # scaled + I must equal (2/lambda_max) * L exactly up to rounding
        rng = np.random.default_rng(21)
        for _ in range(20):
            lap = laplacian(build_adjacency(random_spec(rng)))
            lmax = lambda_max(lap)
            lhat = scale_laplacian(lap, lmax)
            np.testing.assert_allclose(
                lhat.values + np.eye(lap.shape[0]), (2.0 / lmax) * lap,
                rtol=0, atol=1e-12)

    def test_triangle_values(self):
        lhat = scaled_laplacian_from_adjacency(build_adjacency(const_spec(3, 2)))
        expected = np.full((3, 3), -2.0 / 3.0)
        np.fill_diagonal(expected, 1.0 / 3.0)
        np.testing.assert_allclose(lhat.values, expected, rtol=0, atol=1e-12)

    def test_spectrum_lands_in_unit_interval_with_minus_one_attained(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            lhat = scaled_laplacian_from_adjacency(
                build_adjacency(random_spec(rng)))
            eigs = np.linalg.eigvalsh(lhat.values)
            assert eigs[0] >= -1.0 - 1e-9
            assert eigs[-1] <= 1.0 + 1e-9
            # the Laplacian's zero eigenvalue always maps to -1
            assert eigs[0] == pytest.approx(-1.0, abs=1e-9)


class TestChebBasis:
    def test_order_one_is_identity_on_features(self):
        lhat = scaled_laplacian_from_adjacency(build_adjacency(const_spec(3, 1)))
        x = np.arange(6.0).reshape(3, 2)
        basis = cheb_basis(lhat, x, 1)
        assert basis.shape == (1, 3, 2)
        np.testing.assert_array_equal(basis[0], x)

    def test_three_term_recurrence(self):
        rng = np.random.default_rng(31)
        lhat = scaled_laplacian_from_adjacency(build_adjacency(const_spec(5, 2)))
        x = rng.normal(size=(5, 3))
        basis = cheb_basis(lhat, x, 5)
        m = lhat.values
        np.testing.assert_array_equal(basis[1], m @ x)
        for k in range(2, 5):
            np.testing.assert_allclose(
                basis[k], 2.0 * m @ basis[k - 1] - basis[k - 2],
                rtol=0, atol=1e-12)

    def test_rejects_bad_order_and_shape(self):
        lhat = scaled_laplacian_from_adjacency(build_adjacency(const_spec(3, 1)))
        with pytest.raises(ValueError):
            cheb_basis(lhat, np.zeros((3, 2)), 0)
        with pytest.raises(ValueError):
            cheb_basis(lhat, np.zeros((4, 2)), 2)


def band_spec(n):
    return GraphSpec(n_nodes=n, q=min(4, n - 1), spacing_z=0.015,
                     weight_fn=WeightFn.INVERSE_DM)


class TestAdjoints:
    """<op(X), G> = <X, op*(G)> for each graph operator and its adjoint."""

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [2, 3, 5, 20, 72, 128])
    def test_cheb_basis_adjoint_dot_product(self, n, order, b):
        rng = np.random.default_rng([n, order, b])
        lhat = scaled_laplacian_from_adjacency(build_adjacency(band_spec(n)))
        # one sample as an (n, d) matrix, several as a (b, n, d) stack
        x = rng.normal(size=(n, 4) if b == 1 else (b, n, 4))
        g = rng.normal(size=(order,) + x.shape)
        lhs = float(np.sum(cheb_basis(lhat, x, order) * g))
        rhs = float(np.sum(x * cheb_basis_adjoint(lhat, g.copy())))
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_adjoint_runs_in_place_into_order_zero(self):
        lhat = scaled_laplacian_from_adjacency(build_adjacency(band_spec(6)))
        g = np.random.default_rng(35).normal(size=(3, 6, 2))
        assert np.shares_memory(cheb_basis_adjoint(lhat, g), g[0])

    def test_graphconv_operator_is_self_adjoint_over_a_pass(self):
        rng = np.random.default_rng(36)
        # blocks of different n, as graph_passes forms them for mixed volumes
        blocks = [(band_spec(n), b)
                  for n, b in ((5, 2), (8, 1), (3, 3))]
        rows = sum(graph.n_nodes * b for graph, b in blocks)
        x = rng.normal(size=(rows, 4))
        g = rng.normal(size=(rows, 4))
        lhs = float(np.sum(per_graph(blocks, x, 0) * g))
        rhs = float(np.sum(x * per_graph(blocks, g, 0)))
        assert rhs == pytest.approx(lhs, rel=1e-12)


class TestChebApply:
    @pytest.mark.parametrize("draw", range(10))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_is_the_first_layers_filter_bit_for_bit(self, d, draw):
        # criterion 1 holds cheb_apply to the oracle, so it must be the
        # product the model's layers run, rounding included
        rng = np.random.default_rng((38, d, draw))
        graph = random_spec(rng)
        params = init_params(d, 2, Variant.CHEB, cheb_k=int(rng.integers(1, 5)), seed=draw)
        x = rng.normal(size=(graph.n_nodes, d))
        filtered = pass_forward([(graph, 1)], x, params)[1][0][1]
        np.testing.assert_array_equal(
            cheb_apply(graph.lhat, x, params.layers[0]["thetas"]), filtered)

    def test_order_one_identity_filter(self):
        lhat = scaled_laplacian_from_adjacency(build_adjacency(const_spec(4, 2)))
        x = np.arange(8.0).reshape(4, 2)
        out = cheb_apply(lhat, x, np.eye(2)[None, :, :])
        np.testing.assert_array_equal(out, x)

    def test_two_node_hand_computed(self):
        # single unit edge: scaled operator [[0,-1],[-1,0]];
        # theta_0 = theta_1 = [[1]] on x = [1, 0]^T gives x + M x = [1, -1]^T
        lhat = scaled_laplacian_from_adjacency(build_adjacency(const_spec(2, 1)))
        x = np.array([[1.0], [0.0]])
        thetas = np.ones((2, 1, 1))
        np.testing.assert_allclose(
            cheb_apply(lhat, x, thetas), [[1.0], [-1.0]], rtol=0, atol=1e-15)

    def test_matches_oracle_on_weighted_band(self):
        rng = np.random.default_rng(32)
        spec = GraphSpec(7, 3, 0.015, WeightFn.INVERSE_DM)
        adj = build_adjacency(spec)
        lap = laplacian(adj)
        x = rng.normal(size=(7, 4))
        thetas = rng.normal(size=(3, 4, 4))
        fast = cheb_apply(scaled_laplacian_from_adjacency(adj), x, thetas)
        exact = spectral_filter_oracle(lap, x, thetas)
        err = np.linalg.norm(fast - exact) / np.linalg.norm(exact)
        assert err <= 1e-10

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_recurrence_equals_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        adj = build_adjacency(spec)
        x = rng.normal(size=(spec.n_nodes, int(rng.integers(1, 5))))
        k = int(rng.integers(1, 5))
        thetas = rng.normal(size=(k, x.shape[1], x.shape[1]))
        fast = cheb_apply(scaled_laplacian_from_adjacency(adj), x, thetas)
        exact = spectral_filter_oracle(laplacian(adj), x, thetas)
        denom = max(np.linalg.norm(exact), 1e-30)
        assert np.linalg.norm(fast - exact) / denom <= 1e-10

    def test_linear_in_features(self):
        rng = np.random.default_rng(33)
        lhat = scaled_laplacian_from_adjacency(build_adjacency(const_spec(6, 2)))
        x1 = rng.normal(size=(6, 3))
        x2 = rng.normal(size=(6, 3))
        thetas = rng.normal(size=(3, 3, 3))
        lhs = cheb_apply(lhat, 2.0 * x1 + 0.5 * x2, thetas)
        rhs = 2.0 * cheb_apply(lhat, x1, thetas) + 0.5 * cheb_apply(lhat, x2, thetas)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_relabelling_nodes_relabels_output(self):
        rng = np.random.default_rng(34)
        spec = GraphSpec(8, 3, 0.02, WeightFn.EXP_DECAY)
        adj = build_adjacency(spec)
        x = rng.normal(size=(8, 4))
        thetas = rng.normal(size=(3, 4, 4))
        base = cheb_apply(scaled_laplacian_from_adjacency(adj), x, thetas)
        for _ in range(10):
            perm = rng.permutation(8)
            adj_p = adj[np.ix_(perm, perm)]
            lhat_p = scale_laplacian(laplacian(adj_p),
                                     lambda_max(laplacian(adj)))
            out = cheb_apply(lhat_p, x[perm], thetas)
            np.testing.assert_allclose(out, base[perm], rtol=0, atol=1e-9)


class TestOracle:
    def test_accepts_scaled_operator_directly(self):
        # sanity: oracle consumes the raw Laplacian, not the scaled one
        lap = laplacian(build_adjacency(const_spec(3, 1)))
        x = np.eye(3)
        thetas = np.eye(3)[None, :, :]
        np.testing.assert_allclose(
            spectral_filter_oracle(lap, x, thetas), x, rtol=0, atol=1e-12)

    def test_refuses_large_graphs(self):
        lap = laplacian(build_adjacency(const_spec(65, 64)))
        with pytest.raises(ValueError):
            spectral_filter_oracle(lap, np.zeros((65, 2)), np.zeros((1, 2, 2)))

    def test_scaled_laplacian_record_is_immutable(self):
        lhat = scaled_laplacian_from_adjacency(build_adjacency(const_spec(3, 1)))
        assert isinstance(lhat, ScaledLaplacian)
        with pytest.raises(Exception):
            lhat.lambda_max_used = 1.0


def test_spectral_imports_neither_graph_nor_model():
    # graph builds its operators with spectral's matrix math, never the reverse
    imported = set()
    for node in ast.walk(ast.parse(Path(spectral.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ("slicegraph." * (node.level > 0) + (node.module or "")).rstrip(".")
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    assert not [name for name in imported
                if name.startswith(("slicegraph.graph", "slicegraph.model"))]
