"""Model forward pass: conv layers, sum pooling, head, loss, parameter
layout, and checkpoint serialization."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegraph.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from slicegraph.errors import (
    BadMagicError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from slicegraph.graph import GraphConfig, GraphSpec, WeightFn, build_adjacency
from slicegraph.model import (
    ModelParams,
    ParamLayout,
    Variant,
    aggregate_sum,
    bce_loss,
    forward_trace,
    init_params,
    model_forward,
    prepare_graph,
    relu,
    sigmoid,
)


def spec_of(n, q, weight_fn=WeightFn.CONSTANT, spacing_z=0.015):
    return GraphSpec(n_nodes=n, q=q, spacing_z=spacing_z, weight_fn=weight_fn)


def one_layer(variant, d, cheb_k=1, **tensors):
    """Single-layer params with every entry zero except the hand-set
    tensors of the conv layer."""
    layout = ParamLayout(variant, d, n_labels=1, n_layers=1, cheb_k=cheb_k, hidden=1)
    flat = np.zeros(layout.size)
    (layer,), _ = layout.group(flat)
    for name, value in tensors.items():
        layer[name][...] = value
    return ModelParams(layout, flat)


def layer_output(graph, x, params):
    """The first conv layer's output, ReLU(pre-activation), via forward_trace."""
    _, trace = forward_trace(graph, x, params)
    return relu(trace.layer_traces[0][-1])


def random_graph(rng, n_max=12):
    n = int(rng.integers(2, n_max + 1))
    q = int(rng.integers(1, n))
    wf = list(WeightFn)[int(rng.integers(len(WeightFn)))]
    return prepare_graph(spec_of(n, q, wf, float(rng.uniform(0.005, 0.05))))


class TestActivations:
    def test_relu_clamps_negatives(self):
        np.testing.assert_array_equal(
            relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_sigmoid_is_stable_at_extremes(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], rtol=0, atol=1e-12)

    @given(st.floats(min_value=-50, max_value=50))
    def test_sigmoid_matches_naive_formula(self, x):
        assert sigmoid(np.array([x]))[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-x)), rel=1e-12)


class TestChebLayer:
    def test_zero_input_stays_zero(self):
        graph = prepare_graph(spec_of(4, 2))
        params = one_layer(Variant.CHEB, 5, cheb_k=3, thetas=np.ones((3, 5, 5)),
                           ff_weight=np.ones((5, 5)))
        out = layer_output(graph, np.zeros((4, 5)), params)
        np.testing.assert_array_equal(out, np.zeros((4, 5)))

    def test_identity_composition_passes_positive_features(self):
        # K=1 identity filter + identity feedforward = plain ReLU
        graph = prepare_graph(spec_of(3, 1))
        params = one_layer(Variant.CHEB, 2, thetas=np.eye(2)[None, :, :],
                           ff_weight=np.eye(2))
        x = np.array([[1.0, -1.0], [2.0, -2.0], [0.5, 0.0]])
        np.testing.assert_array_equal(layer_output(graph, x, params), relu(x))

    def test_two_node_hand_computed(self):
        graph = prepare_graph(spec_of(2, 1))
        params = one_layer(Variant.CHEB, 1, cheb_k=2, thetas=np.ones((2, 1, 1)),
                           ff_weight=np.eye(1))
        out = layer_output(graph, np.array([[1.0], [0.0]]), params)
        np.testing.assert_allclose(out, [[1.0], [0.0]], rtol=0, atol=1e-15)


class TestGraphConvLayer:
    def test_isolated_self_transform(self):
        # zero neighbour weights leave only the self path
        graph = prepare_graph(spec_of(3, 1))
        params = one_layer(Variant.GRAPHCONV, 2, w_self=2.0 * np.eye(2))
        x = np.array([[1.0, -1.0], [0.5, 2.0], [0.0, 1.0]])
        np.testing.assert_array_equal(layer_output(graph, x, params), relu(2.0 * x))

    def test_pure_neighbour_pass_swaps_two_nodes(self):
        graph = prepare_graph(spec_of(2, 1))
        params = one_layer(Variant.GRAPHCONV, 2, w_neigh=np.eye(2))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            layer_output(graph, x, params), [[3.0, 4.0], [1.0, 2.0]])

    def test_zero_weights_and_bias_give_zero(self):
        graph = prepare_graph(spec_of(4, 3))
        params = one_layer(Variant.GRAPHCONV, 3)
        out = layer_output(graph, np.random.default_rng(0).normal(size=(4, 3)), params)
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_edge_weights_scale_neighbour_messages(self):
        graph = prepare_graph(spec_of(2, 1, WeightFn.INVERSE_DM))
        w = build_adjacency(spec_of(2, 1, WeightFn.INVERSE_DM))[0, 1]
        params = one_layer(Variant.GRAPHCONV, 1, w_neigh=np.eye(1))
        out = layer_output(graph, np.array([[1.0], [3.0]]), params)
        np.testing.assert_allclose(out, [[3.0 * w], [1.0 * w]], rtol=1e-15)


class TestAggregateSum:
    def test_column_sums(self):
        np.testing.assert_array_equal(
            aggregate_sum(np.array([[1.0, 2.0], [3.0, 4.0]])), [4.0, 6.0])

    def test_single_node_passthrough(self):
        np.testing.assert_array_equal(
            aggregate_sum(np.array([[5.0, -1.0]])), [5.0, -1.0])

    @given(st.integers(min_value=0, max_value=10_000))
    def test_invariant_under_row_permutation(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(int(rng.integers(1, 10)), 4))
        perm = rng.permutation(z.shape[0])
        np.testing.assert_allclose(
            aggregate_sum(z[perm]), aggregate_sum(z), rtol=0, atol=1e-12)

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            aggregate_sum(np.zeros(3))


class TestInitParams:
    def test_deterministic_given_seed(self):
        a = init_params(6, 3, Variant.CHEB, seed=7)
        b = init_params(6, 3, Variant.CHEB, seed=7)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_different_seeds_differ(self):
        a = init_params(6, 3, Variant.CHEB, seed=7)
        b = init_params(6, 3, Variant.CHEB, seed=8)
        assert not np.array_equal(a.flat, b.flat)

    def test_weights_bounded_by_fan_in_and_biases_zero(self):
        params = init_params(9, 2, Variant.GRAPHCONV, seed=0)
        for layer in params.layers:
            bound = 1.0 / math.sqrt(9)
            assert np.abs(layer["w_self"]).max() <= bound
            assert np.abs(layer["w_neigh"]).max() <= bound
            np.testing.assert_array_equal(layer["bias"], 0.0)
        np.testing.assert_array_equal(params.head["b1"], 0.0)
        np.testing.assert_array_equal(params.head["b2"], 0.0)

    def test_shape_metadata(self):
        params = init_params(8, 5, Variant.CHEB, n_layers=2, cheb_k=4, seed=1)
        assert params.variant is Variant.CHEB
        assert params.d == 8
        assert params.n_labels == 5
        assert params.n_layers == 2
        assert params.cheb_k == 4
        gc = init_params(8, 5, Variant.GRAPHCONV, seed=1)
        assert gc.variant is Variant.GRAPHCONV
        assert gc.cheb_k == 0

    def test_conv_stack_parameter_count(self):
        # per layer: K filter matrices (d*d), one mixing matrix (d*d), one bias (d)
        d, k, n_layers = 16, 3, 3
        params = init_params(d, 4, Variant.CHEB, n_layers=n_layers, cheb_k=k)
        conv = sum(t.size for layer in params.layers for t in layer.values())
        assert conv == n_layers * (k * d * d + d * d + d)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(0, 3, Variant.CHEB)
        with pytest.raises(ValueError):
            init_params(4, 0, Variant.CHEB)
        with pytest.raises(ValueError):
            init_params(4, 2, Variant.CHEB, cheb_k=0)
        with pytest.raises(ValueError):
            init_params(4, 2, Variant.CHEB, n_layers=0)


class TestTensorRoundTrip:
    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_views_tile_the_flat_vector_in_layout_order(self, variant):
        params = init_params(5, 2, variant, seed=3)
        named = [(name, t) for layer in params.layers for name, t in layer.items()]
        named += list(params.head.items())
        assert [(name, t.shape) for name, t in named] == list(params.layout.entries)
        np.testing.assert_array_equal(
            np.concatenate([t.ravel() for _, t in named]), params.flat)
        assert all(not t.flags.writeable for _, t in named)

    def test_tensor_count_mismatch_rejected(self):
        params = init_params(5, 2, Variant.CHEB, seed=3)
        with pytest.raises(ValueError):
            ModelParams(params.layout, params.flat[:-1])

    def test_construction_copies_the_vector(self):
        params = init_params(5, 2, Variant.CHEB, seed=3)
        flat = np.array(params.flat)
        rebuilt = ModelParams(params.layout, flat)
        flat[0] += 1.0
        np.testing.assert_array_equal(rebuilt.flat, params.flat)


class TestModelForward:
    def test_zero_features_zero_biases_give_zero_logits(self):
        graph = prepare_graph(spec_of(5, 2))
        for variant in (Variant.CHEB, Variant.GRAPHCONV):
            params = init_params(4, 3, variant, seed=2)
            logits = model_forward(graph, np.zeros((5, 4)), params)
            np.testing.assert_array_equal(logits, np.zeros(3))

    def test_output_shape_at_full_scale_dims(self):
        graph = prepare_graph(spec_of(80, 16, WeightFn.INVERSE_DM))
        params = init_params(512, 18, Variant.CHEB, seed=0)
        h = np.random.default_rng(5).normal(size=(80, 512))
        assert model_forward(graph, h, params).shape == (18,)

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_permutation_invariance(self, variant):
        rng = np.random.default_rng(42)
        spec = spec_of(9, 4, WeightFn.INVERSE_DM)
        graph = prepare_graph(spec)
        params = init_params(6, 4, variant, seed=1)
        h = rng.normal(size=(9, 6))
        base = model_forward(graph, h, params)
        adj = graph.adjacency
        for _ in range(50):
            perm = rng.permutation(9)
            adj_p = adj[np.ix_(perm, perm)]
            graph_p = type(graph)(
                adjacency=adj_p,
                lhat=type(graph.lhat)(
                    values=graph.lhat.values[np.ix_(perm, perm)],
                    lambda_max_used=graph.lhat.lambda_max_used),
            )
            out = model_forward(graph_p, h[perm], params)
            np.testing.assert_allclose(out, base, rtol=0, atol=1e-9)

    def test_forward_trace_logits_match_model_forward(self):
        rng = np.random.default_rng(6)
        graph = random_graph(rng)
        params = init_params(5, 3, Variant.CHEB, seed=9)
        h = rng.normal(size=(graph.adjacency.shape[0], 5))
        logits, trace = forward_trace(graph, h, params)
        np.testing.assert_array_equal(logits, model_forward(graph, h, params))
        np.testing.assert_array_equal(trace.logits, logits)

    def test_rejects_wrong_feature_width(self):
        graph = prepare_graph(spec_of(4, 2))
        params = init_params(5, 2, Variant.CHEB, seed=0)
        with pytest.raises(ValueError):
            model_forward(graph, np.zeros((4, 3)), params)


class TestBceLoss:
    def test_zero_logits_give_log_two(self):
        loss = bce_loss(np.zeros(4), np.array([1, 0, 1, 0]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-15)

    def test_confident_correct_prediction_is_tiny(self):
        assert bce_loss(np.array([50.0]), np.array([1])) < 1e-20

    def test_hand_computed_two_label_value(self):
        loss = bce_loss(np.array([1.0, -1.0]), np.array([1, 0]))
        assert loss == pytest.approx(0.31326168751822286, rel=1e-15)

    @given(st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=6),
           st.data())
    @settings(max_examples=60)
    def test_matches_naive_formula_in_safe_range(self, logits, data):
        logits = np.array(logits)
        labels = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=len(logits), max_size=len(logits))))
        p = 1.0 / (1.0 + np.exp(-logits))
        naive = float(np.mean(-labels * np.log(p) - (1 - labels) * np.log1p(-p)))
        # the naive formula itself loses a few ulps to cancellation near
        # saturated probabilities, so compare relatively
        assert bce_loss(logits, labels) == pytest.approx(naive, rel=1e-7, abs=1e-12)

    def test_extreme_logits_stay_finite(self):
        loss = bce_loss(np.array([1e4, -1e4]), np.array([0, 1]))
        assert math.isfinite(loss)
        assert loss == pytest.approx(1e4, rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_loss_is_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        logits = rng.normal(scale=5.0, size=n)
        labels = rng.integers(0, 2, size=n)
        assert bce_loss(logits, labels) >= 0.0


class TestCheckpoint:
    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_round_trip_is_bit_exact(self, tmp_path, variant):
        params = init_params(7, 3, variant, n_layers=2, seed=11)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.variant is variant
        assert loaded.cheb_k == params.cheb_k
        assert loaded.n_layers == params.n_layers
        assert loaded.layout == params.layout
        np.testing.assert_array_equal(loaded.flat, params.flat)

    def test_file_identity_across_saves(self, tmp_path):
        params = init_params(4, 2, Variant.CHEB, seed=5)
        p1, p2 = tmp_path / "a.ctgc", tmp_path / "b.ctgc"
        save_checkpoint(p1, params)
        save_checkpoint(p2, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_is_rejected(self, tmp_path):
        params = init_params(4, 2, Variant.CHEB, seed=5)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "bad_magic"

    def test_wrong_version_is_rejected(self, tmp_path):
        params = init_params(4, 2, Variant.CHEB, seed=5)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        raw = bytearray(path.read_bytes())
        raw[4] = CHECKPOINT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "version_mismatch"

    def test_truncated_payload_is_rejected(self, tmp_path):
        params = init_params(4, 2, Variant.CHEB, seed=5)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(TruncatedPayloadError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "truncated_payload"

    def test_trailing_garbage_is_rejected(self, tmp_path):
        params = init_params(4, 2, Variant.CHEB, seed=5)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(TruncatedPayloadError):
            load_checkpoint(path)

    def test_magic_constant(self, tmp_path):
        params = init_params(4, 2, Variant.GRAPHCONV, seed=5)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        assert path.read_bytes()[:4] == CHECKPOINT_MAGIC == b"CTGC"

    def _write(self, path, header, tensors):
        """A v1 checkpoint with the given (n_labels, d, K, n_layers) header
        and tensors, whatever their shapes."""
        parts = [struct.pack("<4sIIIII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *header)]
        for t in tensors:
            parts.append(struct.pack(f"<{1 + t.ndim}I", t.ndim, *t.shape))
            parts.append(np.ascontiguousarray(t, dtype="<f8").tobytes())
        path.write_bytes(b"".join(parts))

    def test_hand_written_file_matches_save(self, tmp_path):
        params = init_params(6, 3, Variant.CHEB, seed=4)
        ours, theirs = tmp_path / "ours.ctgc", tmp_path / "theirs.ctgc"
        save_checkpoint(ours, params)
        self._write(theirs, (3, 6, 3, 3), params.layout.views(params.flat))
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("index, bad_shape", [
        (4, (16, 15)),    # layer 2 ff_weight
        (3, (2, 16, 16)),  # layer 2 thetas with K=2 under a K=3 header
    ])
    def test_tensor_disagreeing_with_header_layout_is_rejected(
            self, tmp_path, index, bad_shape):
        params = init_params(16, 4, Variant.CHEB, seed=0)
        tensors = list(params.layout.views(params.flat))
        tensors[index] = np.zeros(bad_shape)
        path = tmp_path / "bad.ctgc"
        self._write(path, (4, 16, 3, 3), tensors)
        with pytest.raises(TruncatedPayloadError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "truncated_payload"

    def test_huge_layer_count_is_rejected_without_building_the_table(self, tmp_path):
        path = tmp_path / "huge.ctgc"
        self._write(path, (2, 4, 3, 2 ** 32 - 1), [])
        with pytest.raises(TruncatedPayloadError):
            load_checkpoint(path)
