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
from slicegraph.data import Sample
from slicegraph.experiments import predict
from slicegraph.model import (
    PASS_ROWS,
    GraphOperatorCache,
    ModelParams,
    ParamLayout,
    Variant,
    aggregate_sum,
    bce_loss,
    init_params,
    model_forward,
    prepare_graph,
    pass_forward,
    relu,
    sigmoid,
)
from slicegraph.spectral import (laplacian, scaled_laplacian_from_adjacency,
                                 spectral_filter_oracle)


def spec_of(n, q, weight_fn=WeightFn.CONSTANT, spacing_z=0.015):
    return GraphSpec(n_nodes=n, q=q, spacing_z=spacing_z, weight_fn=weight_fn)


def one_layer(variant, d, cheb_k=1, **tensors):
    """Single-layer params with every entry zero except the hand-set
    tensors of the conv layer."""
    layout = ParamLayout(n_labels=1, d=d, cheb_k=cheb_k if variant is Variant.CHEB else 0,
                         n_layers=1)
    flat = np.zeros(layout.size)
    (layer,), _ = layout.group(flat)
    for name, value in tensors.items():
        layer[name][...] = value
    return ModelParams(layout, flat)


def layer_output(graph, x, params):
    """The first conv layer's output, ReLU(pre-activation), via pass_forward."""
    _, layers, _ = pass_forward([(graph, 1)], x, params)
    return relu(layers[0][-1])


class RelabelledGraph:
    """A graph given by its adjacency alone, as a node relabelling leaves a
    banded one; its L̂ comes from that adjacency."""

    def __init__(self, adjacency):
        self.adjacency = adjacency
        self.n_nodes = len(adjacency)
        self.lhat = scaled_laplacian_from_adjacency(adjacency)


def random_graph(rng, n_max=12):
    n = int(rng.integers(2, n_max + 1))
    q = int(rng.integers(1, n))
    wf = list(WeightFn)[int(rng.integers(len(WeightFn)))]
    return spec_of(n, q, wf, float(rng.uniform(0.005, 0.05)))


def held_arrays(obj):
    """Every ndarray `obj` holds, through dicts and the attributes of this
    package's objects."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        return [a for value in obj.values() for a in held_arrays(value)]
    if type(obj).__module__.startswith("slicegraph.") and hasattr(obj, "__dict__"):
        return held_arrays(vars(obj))
    return []


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
        graph = spec_of(4, 2)
        params = one_layer(Variant.CHEB, 5, cheb_k=3, thetas=np.ones((3, 5, 5)),
                           ff_weight=np.ones((5, 5)))
        out = layer_output(graph, np.zeros((4, 5)), params)
        np.testing.assert_array_equal(out, np.zeros((4, 5)))

    def test_identity_composition_passes_positive_features(self):
        # K=1 identity filter + identity feedforward = plain ReLU
        graph = spec_of(3, 1)
        params = one_layer(Variant.CHEB, 2, thetas=np.eye(2)[None, :, :],
                           ff_weight=np.eye(2))
        x = np.array([[1.0, -1.0], [2.0, -2.0], [0.5, 0.0]])
        np.testing.assert_array_equal(layer_output(graph, x, params), relu(x))

    def test_two_node_hand_computed(self):
        graph = spec_of(2, 1)
        params = one_layer(Variant.CHEB, 1, cheb_k=2, thetas=np.ones((2, 1, 1)),
                           ff_weight=np.eye(1))
        out = layer_output(graph, np.array([[1.0], [0.0]]), params)
        np.testing.assert_allclose(out, [[1.0], [0.0]], rtol=0, atol=1e-15)


class TestGraphConvLayer:
    def test_isolated_self_transform(self):
        # zero neighbour weights leave only the self path
        graph = spec_of(3, 1)
        params = one_layer(Variant.GRAPHCONV, 2, w_self=2.0 * np.eye(2))
        x = np.array([[1.0, -1.0], [0.5, 2.0], [0.0, 1.0]])
        np.testing.assert_array_equal(layer_output(graph, x, params), relu(2.0 * x))

    def test_pure_neighbour_pass_swaps_two_nodes(self):
        graph = spec_of(2, 1)
        params = one_layer(Variant.GRAPHCONV, 2, w_neigh=np.eye(2))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            layer_output(graph, x, params), [[3.0, 4.0], [1.0, 2.0]])

    def test_zero_weights_and_bias_give_zero(self):
        graph = spec_of(4, 3)
        params = one_layer(Variant.GRAPHCONV, 3)
        out = layer_output(graph, np.random.default_rng(0).normal(size=(4, 3)), params)
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_edge_weights_scale_neighbour_messages(self):
        graph = spec_of(2, 1, WeightFn.INVERSE_DM)
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
        layout = init_params(8, 5, Variant.CHEB, n_layers=2, cheb_k=4, seed=1).layout
        assert layout.variant is Variant.CHEB
        assert layout.d == 8
        assert layout.n_labels == 5
        assert layout.n_layers == 2
        assert layout.cheb_k == 4
        gc = init_params(8, 5, Variant.GRAPHCONV, seed=1).layout
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
        graph = spec_of(5, 2)
        for variant in (Variant.CHEB, Variant.GRAPHCONV):
            params = init_params(4, 3, variant, seed=2)
            logits = model_forward(graph, np.zeros((5, 4)), params)
            np.testing.assert_array_equal(logits, np.zeros(3))

    def test_output_shape_at_full_scale_dims(self):
        graph = spec_of(80, 16, WeightFn.INVERSE_DM)
        params = init_params(512, 18, Variant.CHEB, seed=0)
        h = np.random.default_rng(5).normal(size=(80, 512))
        assert model_forward(graph, h, params).shape == (18,)

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_permutation_invariance(self, variant):
        rng = np.random.default_rng(42)
        graph = spec_of(9, 4, WeightFn.INVERSE_DM)
        params = init_params(6, 4, variant, seed=1)
        h = rng.normal(size=(9, 6))
        adj = graph.adjacency
        for _ in range(50):
            perm = rng.permutation(9)
            graph_p = RelabelledGraph(adj[np.ix_(perm, perm)])
            # the graph and its relabelling side by side in one pass
            (base, out), _, _ = pass_forward([(graph, 1), (graph_p, 1)],
                                             np.concatenate([h, h[perm]]), params)
            np.testing.assert_allclose(out, base, rtol=0, atol=1e-9)

    def test_pass_forward_logits_match_model_forward(self):
        rng = np.random.default_rng(6)
        graph = random_graph(rng)
        params = init_params(5, 3, Variant.CHEB, seed=9)
        h = rng.normal(size=(graph.adjacency.shape[0], 5))
        logits, _, _ = pass_forward([(graph, 1)], h, params)
        np.testing.assert_array_equal(logits[0], model_forward(graph, h, params))

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_pass_over_graphs_of_every_size_matches_single_samples(self, variant):
        # blocks of different n_nodes and spacing in one pass, as a
        # mixed-volume step runs them
        rng = np.random.default_rng(13)
        graphs = [spec_of(n, 3, WeightFn.INVERSE_DM, spacing)
                  for n, spacing in ((5, 0.01), (9, 0.025), (7, 0.05))]
        params = init_params(4, 3, variant, seed=4)
        blocks = list(zip(graphs, (3, 1, 2)))
        pairs = [(graph, rng.normal(size=(graph.n_nodes, 4)))
                 for graph, b in blocks for _ in range(b)]
        logits, _, _ = pass_forward(blocks, np.concatenate([h for _, h in pairs]), params)
        want = np.stack([model_forward(graph, h, params) for graph, h in pairs])
        np.testing.assert_allclose(logits, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_one_graph_split_into_blocks_runs_bit_for_bit(self, variant):
        # a pass of one graph takes the same path as a pass of many: its
        # samples as one block or as two give the same bits everywhere
        rng = np.random.default_rng(14)
        graph = spec_of(7, 3, WeightFn.INVERSE_DM)
        params = init_params(5, 3, variant, seed=6)
        x = rng.normal(size=(3 * 7, 5))
        logits, layers, head = pass_forward([(graph, 3)], x, params)
        split_logits, split_layers, split_head = pass_forward([(graph, 1), (graph, 2)],
                                                              x, params)
        saved = [logits, *(a for t in [*layers, head] for a in t)]
        split = [split_logits, *(a for t in [*split_layers, split_head] for a in t)]
        assert len(split) == len(saved)
        for a, b in zip(split, saved):
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())

    def test_pass_filter_matches_eigenbasis_oracle(self):
        # the Chebyshev filter as the model runs it, on a pass of many
        # banded graphs, against the eigendecomposition route, per sample
        rng = np.random.default_rng(17)
        blocks = []
        for weight_fn in WeightFn:
            for n in (2, 16, *rng.integers(3, 16, size=2)):
                graph_cfg = GraphConfig(int(rng.integers(1, n)), weight_fn)
                blocks.append((prepare_graph(graph_cfg, int(n), float(rng.uniform(0.5, 5.0))),
                               int(rng.integers(1, 4))))
        params = init_params(8, 3, Variant.CHEB, cheb_k=3, seed=5)
        z = rng.normal(size=(sum(b * graph.n_nodes for graph, b in blocks), 8))
        _, layers, _ = pass_forward(blocks, z, params)
        for layer, (_, filtered, pre) in zip(params.layers, layers):
            start = 0
            for graph, b in blocks:
                lap = laplacian(graph.adjacency)
                for _ in range(b):
                    rows = slice(start, start + graph.n_nodes)
                    exact = spectral_filter_oracle(lap, z[rows], layer["thetas"])
                    err = np.linalg.norm(filtered[rows] - exact) / np.linalg.norm(exact)
                    assert err <= 1e-10
                    start = rows.stop
            z = relu(pre)

    def test_rejects_rows_unlike_the_blocks(self):
        graph = spec_of(4, 2)
        params = init_params(3, 2, Variant.CHEB, seed=0)
        with pytest.raises(ValueError):
            pass_forward([(graph, 2)], np.zeros((4, 3)), params)

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_predict_matches_single_sample_forward_in_input_order(self, variant):
        rng = np.random.default_rng(12)
        graph_cfg = GraphConfig(q=2, weight_fn=WeightFn.INVERSE_DM)
        # the first graph alone fills more than one pass
        shapes = [(5, 1.5)] * (PASS_ROWS // 5 + 6) + [(6, 1.5)] * 5 + [(5, 3.0)] * 5
        samples = [Sample(rng.normal(size=(n, 4)).astype(np.float32),
                          rng.integers(0, 2, size=2).astype(np.uint8), spacing)
                   for n, spacing in (shapes[i] for i in rng.permutation(len(shapes)))]
        params = init_params(4, 2, variant, seed=3)
        got = predict(params, GraphOperatorCache(graph_cfg), samples)
        want = np.stack([
            sigmoid(model_forward(
                prepare_graph(graph_cfg, s.features.shape[0], s.spacing_z_mm),
                s.features, params))
            for s in samples])
        np.testing.assert_allclose(got.scores, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got.labels, np.stack([s.labels for s in samples]))

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_cache_holds_one_operator_per_graph(self, variant):
        # after scoring volumes of mixed length and spacing, each graph keeps
        # the one n x n operator its variant applies and nothing else
        rng = np.random.default_rng(14)
        keys = [(n, spacing) for n in (3, 8, 17, 40) for spacing in (0.625, 2.5)]
        samples = [Sample(rng.normal(size=(n, 4)).astype(np.float32),
                          rng.integers(0, 2, size=2).astype(np.uint8), spacing)
                   for n, spacing in keys * 2]
        graph_cfg = GraphConfig(q=4, weight_fn=WeightFn.INVERSE_DM)
        cache = GraphOperatorCache(graph_cfg)
        predict(init_params(4, 2, variant, seed=3), cache, samples)
        graphs = list(cache._cache.values())
        assert set(graphs) == {prepare_graph(graph_cfg, *key) for key in keys}
        assert sum(a.nbytes for a in held_arrays(cache)) == sum(8 * n * n for n, _ in keys)
        unused = "adjacency" if variant is Variant.CHEB else "lhat"
        assert not any(unused in vars(g) for g in graphs)

    def test_rejects_wrong_feature_width(self):
        graph = spec_of(4, 2)
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
    @pytest.mark.parametrize("d", [7, 1])  # d=1: the head's width floors at 1
    def test_round_trip_is_bit_exact(self, tmp_path, variant, d):
        params = init_params(d, 3, variant, n_layers=2, seed=11)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.layout.variant is variant
        assert loaded.layout.cheb_k == params.layout.cheb_k
        assert loaded.layout.n_layers == params.layout.n_layers
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
        assert str(path) in str(excinfo.value)

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
        assert str(path) in str(excinfo.value)

    def test_truncated_payload_is_rejected(self, tmp_path):
        params = init_params(4, 2, Variant.CHEB, seed=5)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(TruncatedPayloadError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "truncated_payload"
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("raw, error", [
        (b"CTG", BadMagicError),
        (b"CTGC\x01\x00", TruncatedPayloadError),             # inside the version
        (b"CTGC\x02\x00\x00\x00", VersionMismatchError),      # version read first
        (b"CTGC\x01\x00\x00\x00\x02\x00", TruncatedPayloadError),  # inside the header
    ])
    def test_short_file_fails_on_the_first_field_it_cuts(self, tmp_path, raw, error):
        path = tmp_path / "short.ctgc"
        path.write_bytes(raw)
        with pytest.raises(error) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)

    def test_trailing_garbage_is_rejected(self, tmp_path):
        params = init_params(4, 2, Variant.CHEB, seed=5)
        path = tmp_path / "model.ctgc"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(TruncatedPayloadError) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)

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

    @pytest.mark.parametrize("index, bad_shape, name", [
        (4, (16, 15), "ff_weight"),    # layer 2 ff_weight
        (3, (2, 16, 16), "thetas"),    # layer 2 thetas with K=2 under a K=3 header
        (9, (16, 16), "w1"),           # head w1 as (d, d), not (d, max(1, d // 2))
    ])
    def test_tensor_disagreeing_with_header_layout_is_rejected(
            self, tmp_path, index, bad_shape, name):
        params = init_params(16, 4, Variant.CHEB, seed=0)
        tensors = list(params.layout.views(params.flat))
        tensors[index] = np.zeros(bad_shape)
        if name == "w1":  # b1 and w2 as wide as that w1
            tensors[10:12] = [np.zeros(16), np.zeros((16, 4))]
        path = tmp_path / "bad.ctgc"
        self._write(path, (4, 16, 3, 3), tensors)
        with pytest.raises(TruncatedPayloadError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.code == "truncated_payload"
        assert f"{path}: tensor {index} ({name})" in str(excinfo.value)

    def test_huge_layer_count_is_rejected_without_building_the_table(self, tmp_path):
        path = tmp_path / "huge.ctgc"
        self._write(path, (2, 4, 3, 2 ** 32 - 1), [])
        with pytest.raises(TruncatedPayloadError) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)
