"""Banded slice-graph construction: edge counts, distance weights, adjacency."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegraph.graph import (
    MM_PER_DM,
    SLICES_PER_NODE,
    GraphConfig,
    GraphSpec,
    WeightFn,
    build_adjacency,
    edge_weight,
)
from slicegraph.model import prepare_graph

S_Z_15MM = 1.5 / MM_PER_DM  # 1.5 mm slice spacing expressed in dm


def banded_spec(n_nodes, q, weight_fn=WeightFn.CONSTANT, spacing_z=S_Z_15MM):
    return GraphSpec(n_nodes=n_nodes, q=q, spacing_z=spacing_z, weight_fn=weight_fn)


specs_strategy = st.builds(
    banded_spec,
    n_nodes=st.integers(min_value=2, max_value=24),
    q=st.integers(min_value=1, max_value=30),
    weight_fn=st.sampled_from(list(WeightFn)),
    spacing_z=st.floats(min_value=1e-3, max_value=0.1),
)


class TestGraphSpec:
    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            banded_spec(n_nodes=1, q=1)
        with pytest.raises(ValueError):
            banded_spec(n_nodes=4, q=0)
        with pytest.raises(ValueError):
            GraphSpec(n_nodes=4, q=1, spacing_z=0.0, weight_fn=WeightFn.CONSTANT)
        with pytest.raises(ValueError):
            GraphSpec(n_nodes=4, q=1, spacing_z=-0.01, weight_fn=WeightFn.CONSTANT)
        # under inverse-dm an infinite spacing would make every edge weight 1.0
        with pytest.raises(ValueError, match="positive and finite"):
            GraphSpec(n_nodes=4, q=1, spacing_z=np.inf, weight_fn=WeightFn.INVERSE_DM)

    def test_fully_connected_predicate(self):
        assert not banded_spec(10, 8).is_fully_connected
        assert banded_spec(10, 9).is_fully_connected
        assert banded_spec(10, 50).is_fully_connected

    def test_config_builds_spec_per_volume(self):
        cfg = GraphConfig(q=4, weight_fn=WeightFn.EXP_DECAY)
        spec = prepare_graph(cfg, n_nodes=12, spacing_mm=2.0)
        assert spec.n_nodes == 12
        assert spec.q == 4
        assert spec.weight_fn is WeightFn.EXP_DECAY
        assert spec.spacing_z == pytest.approx(0.02)

    def test_spec_is_immutable(self):
        spec = banded_spec(4, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.q = 3


class TestFullBand:
    @pytest.mark.parametrize("weight_fn", list(WeightFn))
    @pytest.mark.parametrize("spacing_mm", [0.625, 1.5, 2.5, 5.0])
    def test_full_is_each_volumes_n_nodes_minus_one(self, weight_fn, spacing_mm):
        for n in range(2, 131):
            full = prepare_graph(GraphConfig("full", weight_fn), n, spacing_mm)
            assert full.q == n - 1
            for q in (n - 1, n + 7):
                banded = prepare_graph(GraphConfig(q, weight_fn), n, spacing_mm)
                assert full.adjacency.tobytes() == banded.adjacency.tobytes()
                assert full.lhat.values.tobytes() == banded.lhat.values.tobytes()
                assert full.lhat.lambda_max_used == banded.lhat.lambda_max_used

    @pytest.mark.parametrize("q", ["fc", "Full", "", "4", 0, -3])
    def test_any_other_string_or_q_below_one_is_a_value_error(self, q):
        with pytest.raises(ValueError, match="neighbourhood size must be >= 1 or 'full'"):
            GraphConfig(q)


class TestEdgeSet:
    """The edge count inspect-graph reports, `GraphSpec.n_edges`."""

    def test_path_of_three(self):
        assert banded_spec(3, 1).n_edges == 2

    def test_band_at_least_n_minus_one_is_complete(self):
        assert banded_spec(4, 3).n_edges == banded_spec(4, 9).n_edges == 6

    def test_paper_scale_edge_count(self):
        # 80 nodes, band 16: sum over gaps g=1..16 of (80 - g) pairs
        assert banded_spec(80, 16).n_edges == 1144

    def test_edge_count_closed_form(self):
        # against a count of node pairs, for every q up to n (q = n - 1 is full)
        for n in range(2, 41):
            for q in range(1, n + 1):
                pairs = sum(j - i <= q for i in range(n) for j in range(i + 1, n))
                assert banded_spec(n, q).n_edges == pairs, (n, q)

    @given(specs_strategy)
    def test_edges_are_ordered_banded_and_loop_free(self, spec):
        # the adjacency's weighted pairs are exactly the counted edges
        i, j = np.nonzero(np.triu(build_adjacency(spec)))
        assert ((j - i >= 1) & (j - i <= spec.q)).all()
        assert len(i) == spec.n_edges


class TestEdgeWeight:
    def test_inverse_dm_adjacent_slices_frozen_value(self):
        spec = banded_spec(8, 4, WeightFn.INVERSE_DM, spacing_z=0.015)
        # gap 1 at 0.015 dm spacing: 1 + 1/(1 + 3*0.015) = 1 + 1/1.045
        assert edge_weight(0, 1, spec) == pytest.approx(
            1.9569377990430623, abs=1e-15)
        assert edge_weight(0, 1, spec) == pytest.approx(1.956938, abs=1e-6)

    def test_inverse_dm_gap_ten_frozen_value(self):
        spec = banded_spec(12, 11, WeightFn.INVERSE_DM, spacing_z=0.015)
        # gap 10: 1 + 1/(1 + 3*10*0.015) = 1 + 1/1.45
        assert edge_weight(0, 10, spec) == pytest.approx(
            1.6896551724137931, abs=1e-15)

    def test_constant_weight_is_one(self):
        spec = banded_spec(6, 5, WeightFn.CONSTANT)
        for j in range(1, 6):
            assert edge_weight(0, j, spec) == 1.0

    def test_exp_decay_matches_direct_expression(self):
        spec = banded_spec(9, 8, WeightFn.EXP_DECAY, spacing_z=0.02)
        for gap in range(1, 9):
            expected = np.exp(-SLICES_PER_NODE * gap * 0.02)
            assert edge_weight(0, gap, spec) == pytest.approx(expected, rel=1e-15)

    def test_weight_is_symmetric_in_arguments(self):
        spec = banded_spec(10, 9, WeightFn.INVERSE_DM)
        assert edge_weight(2, 7, spec) == edge_weight(7, 2, spec)

    def test_rejects_self_edges_and_bad_indices(self):
        spec = banded_spec(10, 3)
        with pytest.raises(ValueError):
            edge_weight(4, 4, spec)
        with pytest.raises(ValueError):
            edge_weight(0, 10, spec)
        with pytest.raises(ValueError):
            edge_weight(-1, 2, spec)

    def test_out_of_band_pairs_get_a_weight_but_no_edge(self):
        # the weighting scheme is defined for any distinct pair; band
        # membership is the adjacency builder's job
        spec = banded_spec(10, 3)
        assert edge_weight(0, 5, spec) > 0.0
        assert build_adjacency(spec)[0, 5] == 0.0

    @given(
        gap=st.integers(min_value=1, max_value=40),
        spacing_z=st.floats(min_value=1e-4, max_value=0.5),
    )
    def test_inverse_dm_weight_lies_strictly_inside_one_two(self, gap, spacing_z):
        spec = banded_spec(41, 40, WeightFn.INVERSE_DM, spacing_z=spacing_z)
        w = edge_weight(0, gap, spec)
        assert 1.0 < w < 2.0

    @given(
        spacing_z=st.floats(min_value=1e-4, max_value=0.5),
        weight_fn=st.sampled_from([WeightFn.INVERSE_DM, WeightFn.EXP_DECAY]),
    )
    def test_distance_weights_decrease_with_gap(self, spacing_z, weight_fn):
        spec = banded_spec(21, 20, weight_fn, spacing_z=spacing_z)
        weights = [edge_weight(0, gap, spec) for gap in range(1, 21)]
        assert all(a > b for a, b in zip(weights, weights[1:]))


class TestAdjacency:
    def test_two_node_constant(self):
        a = build_adjacency(banded_spec(2, 1, WeightFn.CONSTANT))
        np.testing.assert_array_equal(a, [[0.0, 1.0], [1.0, 0.0]])

    def test_path_of_three_inverse_dm(self):
        a = build_adjacency(banded_spec(3, 1, WeightFn.INVERSE_DM, spacing_z=0.015))
        w = 1.9569377990430623
        np.testing.assert_allclose(
            a, [[0, w, 0], [w, 0, w], [0, w, 0]], rtol=0, atol=1e-15)

    def test_triangle_constant(self):
        a = build_adjacency(banded_spec(3, 2, WeightFn.CONSTANT))
        np.testing.assert_array_equal(a, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    @given(specs_strategy)
    @settings(max_examples=60)
    def test_matches_edge_weight_entrywise(self, spec):
        a = build_adjacency(spec)
        assert a.shape == (spec.n_nodes, spec.n_nodes)
        for i in range(spec.n_nodes):
            assert a[i, i] == 0.0
            for j in range(i + 1, spec.n_nodes):
                if j - i <= spec.q:
                    assert a[i, j] == edge_weight(i, j, spec)
                    assert a[j, i] == a[i, j]
                else:
                    assert a[i, j] == 0.0 and a[j, i] == 0.0

    @given(specs_strategy)
    def test_symmetric_nonnegative_zero_diagonal(self, spec):
        a = build_adjacency(spec)
        np.testing.assert_array_equal(a, a.T)
        assert (a >= 0).all()
        np.testing.assert_array_equal(np.diag(a), 0.0)


class TestDegreeVector:
    """A node's degree is its adjacency row sum, as inspect-graph reports it."""

    def test_path_of_three_constant(self):
        deg = build_adjacency(banded_spec(3, 1, WeightFn.CONSTANT)).sum(axis=1)
        np.testing.assert_array_equal(deg, [1.0, 2.0, 1.0])

    def test_path_of_three_inverse_dm(self):
        deg = build_adjacency(banded_spec(3, 1, WeightFn.INVERSE_DM, spacing_z=0.015)).sum(axis=1)
        np.testing.assert_allclose(
            deg, [1.9569377990430623, 3.9138755980861246, 1.9569377990430623],
            rtol=0, atol=1e-15)

    def test_two_node_constant(self):
        deg = build_adjacency(banded_spec(2, 1, WeightFn.CONSTANT)).sum(axis=1)
        np.testing.assert_array_equal(deg, [1.0, 1.0])

    @given(specs_strategy)
    def test_degree_sums_rows(self, spec):
        # unweighted, node i has min(i, q) neighbours before it and
        # min(n - 1 - i, q) after it; the degrees sum to twice the edge count
        n, q = spec.n_nodes, spec.q
        deg = build_adjacency(GraphSpec(n, q, spec.spacing_z, WeightFn.CONSTANT)).sum(axis=1)
        i = np.arange(n)
        np.testing.assert_array_equal(deg, np.minimum(i, q) + np.minimum(n - 1 - i, q))
        assert deg.sum() == 2 * spec.n_edges
