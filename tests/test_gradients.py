"""Hand-written reverse-mode gradients against central finite differences."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegraph.gradients import (
    GRADCHECK_TOL,
    _kink_distance,
    backward,
    central_difference_grads,
    finite_diff_grad,
    gradcheck_rel_error,
    run_gradcheck,
)
from slicegraph.graph import GraphSpec, WeightFn
import slicegraph.gradients
import slicegraph.model
from slicegraph.model import (
    ModelParams,
    ParamLayout,
    Variant,
    bce_grad_logits,
    bce_loss,
    graph_passes,
    init_params,
    model_forward,
    pass_forward,
)


def toy_graph(n=6, q=2, weight_fn=WeightFn.INVERSE_DM, spacing_z=0.015):
    return GraphSpec(n, q, spacing_z, weight_fn)


def toy_problem(variant, seed, n=6, d=4, n_labels=3, q=2):
    rng = np.random.default_rng(seed)
    graph = toy_graph(n, q)
    params = init_params(d, n_labels, variant, seed=seed)
    h = rng.normal(size=(n, d))
    labels = rng.integers(0, 2, size=n_labels)
    return graph, h, labels, params


def mixed_batch(variant, seed=5):
    """A shuffled batch over three graphs that differ in n_nodes and
    spacing; the first graph's samples alone fill more than one pass.
    At seed 5 every pre-activation of either variant sits at least 5e-4
    from a ReLU hinge, where central differences are ill-defined."""
    rng = np.random.default_rng(seed)
    graphs = [toy_graph(5, 2), toy_graph(6, 3, WeightFn.EXP_DECAY, spacing_z=0.02),
              toy_graph(7, 2, spacing_z=0.03)]
    which = rng.permutation([0] * (slicegraph.model.PASS_ROWS // 5 + 3) + [1] * 5 + [2] * 4)
    items = [(graphs[g], rng.normal(size=(graphs[g].n_nodes, 4)),
              rng.integers(0, 2, size=2)) for g in which]
    return items, init_params(4, 2, variant, seed=seed)


@pytest.fixture()
def small_passes(monkeypatch):
    """Passes of at most 64 node rows, so a batch of toy graphs spans several."""
    monkeypatch.setattr(slicegraph.model, "PASS_ROWS", 64)


class TestBceGradLogits:
    def test_matches_sigmoid_minus_target_over_count(self):
        logits = np.array([0.3, -1.2, 2.0])
        labels = np.array([1, 0, 1])
        sig = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(
            bce_grad_logits(logits, labels), (sig - labels) / 3.0,
            rtol=0, atol=1e-15)

    def test_keeps_tiny_tail_at_confident_logit(self):
        # the gradient at logit 50, label 1 is sigmoid(50) - 1, an O(1e-22)
        # quantity that a naive sigmoid-then-subtract evaluation destroys
        g = bce_grad_logits(np.array([50.0]), np.array([1]))
        assert g[0] == pytest.approx(-1.928749847963918e-22, rel=1e-12)

    def test_zero_logits(self):
        np.testing.assert_allclose(
            bce_grad_logits(np.zeros(2), np.array([1, 0])), [-0.25, 0.25],
            rtol=0, atol=1e-15)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_gradient_magnitude_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        logits = rng.normal(scale=30.0, size=n)
        labels = rng.integers(0, 2, size=n)
        g = bce_grad_logits(logits, labels)
        assert np.abs(g).max() <= 1.0 / n + 1e-15


class TestBackward:
    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_loss_equals_forward_loss_bitwise(self, variant):
        graph, h, labels, params = toy_problem(variant, seed=1)
        loss, _ = backward([(graph, h, labels)], params)
        assert loss == bce_loss(model_forward(graph, h, params), labels)

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_gradient_tensor_layout_matches_params(self, variant):
        graph, h, labels, params = toy_problem(variant, seed=2)
        _, grad = backward([(graph, h, labels)], params)
        assert grad.shape == params.flat.shape
        # the gradient reads through the same layout as the parameters
        assert [g.shape for g in params.layout.views(grad)] == \
            [shape for _, shape in params.layout.entries]

    def test_head_bias_gradient_at_saturated_logit(self):
        # zero weights everywhere, final bias 50, one positive label:
        # only the last bias receives gradient, equal to sigmoid(50) - 1
        graph = toy_graph(4, 1)
        layout = init_params(3, 1, Variant.CHEB, seed=0).layout
        flat = np.zeros(layout.size)
        flat[-1] = 50.0  # b2, the last entry
        params = ModelParams(layout, flat)
        h = np.random.default_rng(3).normal(size=(4, 3))
        _, grad = backward([(graph, h, np.array([1]))], params)
        assert grad[-1] == pytest.approx(-1.928749847963918e-22, rel=1e-12)
        assert np.count_nonzero(grad) == 1

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_matches_finite_differences_on_toy_problem(self, variant):
        graph, h, labels, params = toy_problem(variant, seed=4)
        _, analytic = backward([(graph, h, labels)], params)
        numeric = finite_diff_grad(graph, h, labels, params, epsilon=1e-5)
        assert gradcheck_rel_error(analytic, numeric) <= 1e-5

    def test_matches_finite_differences_with_deeper_filter(self):
        rng = np.random.default_rng(5)
        graph = toy_graph(5, 3)
        params = init_params(3, 2, Variant.CHEB, n_layers=2, cheb_k=5, seed=5)
        h = rng.normal(size=(5, 3))
        labels = np.array([0, 1])
        _, analytic = backward([(graph, h, labels)], params)
        numeric = finite_diff_grad(graph, h, labels, params)
        assert gradcheck_rel_error(analytic, numeric) <= 1e-5


class TestBatchBackward:
    def test_mean_over_singletons(self):
        graph, h1, labels1, params = toy_problem(Variant.CHEB, seed=6)
        rng = np.random.default_rng(7)
        h2 = rng.normal(size=h1.shape)
        labels2 = rng.integers(0, 2, size=labels1.size)
        loss_batch, grads_batch = backward(
            [(graph, h1, labels1), (graph, h2, labels2)], params)
        loss1, grads1 = backward([(graph, h1, labels1)], params)
        loss2, grads2 = backward([(graph, h2, labels2)], params)
        assert loss_batch == pytest.approx((loss1 + loss2) / 2.0, rel=1e-15)
        np.testing.assert_allclose(grads_batch, (grads1 + grads2) / 2.0, rtol=0, atol=1e-15)

    def test_mixed_batch_straddles_passes(self, small_passes):
        items, _ = mixed_batch(Variant.CHEB)
        passes = graph_passes(graph for graph, _, _ in items)
        assert len(passes) > 1
        assert any(len(blocks) > 1 for _, blocks in passes)
        # one graph's samples end one pass and begin the next
        assert any(before[-1][0] is after[0][0]
                   for (_, before), (_, after) in zip(passes, passes[1:]))
        for positions, blocks in passes:
            assert sum(b * graph.n_nodes for graph, b in blocks) <= 64
            # each block's positions are samples of its graph, in row order
            assert [items[i][0] for i in positions] == \
                [graph for graph, b in blocks for _ in range(b)]
        assert sorted(i for positions, _ in passes for i in positions) == \
            list(range(len(items)))

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_mixed_graphs_match_mean_of_single_samples(self, variant, small_passes):
        items, params = mixed_batch(variant)
        loss, grad = backward(items, params)
        singles = [backward([item], params) for item in items]
        assert abs(loss - np.mean([l for l, _ in singles])) <= 1e-12
        np.testing.assert_allclose(grad, np.mean([g for _, g in singles], axis=0),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_mixed_graphs_match_finite_differences(self, variant, small_passes):
        items, params = mixed_batch(variant)

        def mean_loss(flat):
            candidate = ModelParams(params.layout, flat)
            return float(np.mean([bce_loss(model_forward(graph, h, candidate), labels)
                                  for graph, h, labels in items]))

        assert min(_kink_distance(graph, h, params) for graph, h, _ in items) >= 5e-4
        _, analytic = backward(items, params)
        numeric = central_difference_grads(mean_loss, params.flat, epsilon=1e-5)
        assert np.abs(analytic).max() > 0.0
        assert gradcheck_rel_error(analytic, numeric) <= 1e-5

    def test_empty_batch_rejected(self):
        params = init_params(3, 2, Variant.CHEB, seed=0)
        with pytest.raises(ValueError):
            backward([], params)


class TestFiniteDifferenceOracle:
    def test_exact_on_linear_function(self):
        # d/dx (a . x) = a; central differences are exact up to rounding
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 3))
        x = rng.normal(size=(4, 3))

        def loss_fn(v):
            return float((a * v).sum())

        grad = central_difference_grads(loss_fn, x, epsilon=1e-5)
        np.testing.assert_allclose(grad, a, rtol=0, atol=1e-10)

    def test_quadratic_function(self):
        x = np.array([1.0, -2.0, 0.5])

        def loss_fn(v):
            return float((v ** 2).sum())

        grad = central_difference_grads(loss_fn, x, epsilon=1e-5)
        np.testing.assert_allclose(grad, 2.0 * x, rtol=0, atol=1e-9)

    def test_dead_parameter_reads_as_zero(self):
        # zero input features disconnect the filter weights from the loss
        graph = toy_graph(4, 2)
        params = init_params(3, 2, Variant.CHEB, seed=9)
        h = np.zeros((4, 3))
        labels = np.array([1, 0])
        numeric = finite_diff_grad(graph, h, labels, params)
        first_filter = params.layout.views(numeric)[0]
        assert np.abs(first_filter).max() <= 1e-9

    def test_perturbation_does_not_mutate_inputs(self):
        x = np.ones(3)
        x_copy = x.copy()
        central_difference_grads(lambda v: float(v.sum()), x, epsilon=1e-5)
        np.testing.assert_array_equal(x, x_copy)


class TestGradcheckHarness:
    def test_rel_error_uses_unit_floor(self):
        a = np.array([1e-9])
        b = np.array([0.0])
        assert gradcheck_rel_error(a, b) == pytest.approx(1e-9)

    def test_rel_error_scales_by_largest_magnitude(self):
        a = np.array([200.0])
        b = np.array([100.0])
        assert gradcheck_rel_error(a, b) == pytest.approx(0.5)

    def test_rel_error_zero_for_identical(self):
        g = np.array([3.0, -4.0, 1.0])
        assert gradcheck_rel_error(g, g) == 0.0

    def test_default_tolerance(self):
        assert GRADCHECK_TOL == 1e-5

    def test_run_gradcheck_passes_and_reports(self):
        result = run_gradcheck(n_trials=6, seed=123)
        assert result["passed"] is True
        assert result["n_trials"] == 6
        assert result["max_rel_error"] <= GRADCHECK_TOL
        assert len(result["trials"]) == 6
        variants = {t["variant"] for t in result["trials"]}
        assert variants == {"cheb", "graphconv"}
        for trial in result["trials"]:
            assert 2 <= trial["n_nodes"] <= 8
            assert 2 <= trial["d"] <= 6
            assert trial["rel_error"] <= GRADCHECK_TOL

    def test_run_gradcheck_deterministic(self):
        r1 = run_gradcheck(n_trials=3, seed=5)
        r2 = run_gradcheck(n_trials=3, seed=5)
        assert r1 == r2

    def test_dead_network_counts_as_on_the_hinge(self):
        # killing the last graph layer zeroes the pooled vector, parking
        # the zero-initialised head bias exactly on its ReLU hinge, where
        # the secant oracle is ill-defined; such configurations must be
        # recognised (and redrawn by the harness)
        graph, h, _, params = toy_problem(Variant.CHEB, seed=4)
        flat = np.array(params.flat)
        layers, _ = params.layout.group(flat)
        for layer in layers:
            layer["ff_bias"] -= 100.0
        dead = ModelParams(params.layout, flat)
        _, _, (pooled, head_pre, _) = pass_forward([(graph, 1)], h, dead)
        assert np.all(pooled == 0.0)
        assert head_pre[0, 0] == 0.0
        assert _kink_distance(graph, h, dead) == 0.0

    def test_redraw_counter_reported(self):
        result = run_gradcheck(n_trials=20, seed=0)
        assert result["redraws"] >= 0
        assert result["passed"] is True


class TestGradientSanity:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_descent_direction_reduces_loss(self, seed):
        rng = np.random.default_rng(seed)
        variant = Variant.CHEB if seed % 2 == 0 else Variant.GRAPHCONV
        graph, h, labels, params = toy_problem(variant, seed=seed)
        loss0, grad = backward([(graph, h, labels)], params)
        step = 1e-4 / max(np.abs(grad).max(), 1e-12)
        stepped = ModelParams(params.layout, params.flat - step * grad)
        loss1 = bce_loss(model_forward(graph, h, stepped), labels)
        assert loss1 <= loss0 + 1e-12

    def test_gradients_vanish_at_exact_fit_limit(self):
        # with a huge correct logit the loss gradient underflows smoothly
        graph = toy_graph(3, 1)
        layout = init_params(2, 1, Variant.CHEB, seed=1).layout
        flat = np.zeros(layout.size)
        flat[-1] = 500.0
        params = ModelParams(layout, flat)
        _, grad = backward([(graph, np.ones((3, 2)), np.array([1]))], params)
        assert np.abs(grad).max() < 1e-200


class TestOneModuleForTheNetwork:
    def test_gradients_reaches_no_layer_internals(self):
        # model.py alone holds the tensor names and each layer's forward and
        # backward equations; gradients.py drives whole passes through it
        tree = ast.parse(Path(slicegraph.gradients.__file__).read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert [node.module for node in imports if node.module == "spectral"] == []
        from_model = [alias.name for node in imports if node.module == "model"
                      for alias in node.names]
        assert "pass_backward" in from_model
        assert [name for name in from_model
                if name == "per_graph" or name.startswith("_")] == []
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        tensor_names = {name for cheb_k in (0, 3)
                        for name, _ in ParamLayout(2, 4, cheb_k, 1).entries}
        assert strings & tensor_names == set()
