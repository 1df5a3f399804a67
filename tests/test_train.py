"""Optimizer, learning-rate schedule, and the training loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegraph.data import Sample
from slicegraph.errors import NumericError
from slicegraph.graph import GraphConfig, WeightFn
from slicegraph.model import ModelParams, Variant, init_params
from slicegraph.train import (
    OptimState,
    TrainConfig,
    adamw_step,
    init_optim_state,
    lr_at,
    train,
)

GRAPH = GraphConfig(q=2, weight_fn=WeightFn.INVERSE_DM)


def toy_samples(n_samples=3, n_nodes=5, d=4, n_labels=3, seed=3):
    rng = np.random.default_rng(seed)
    return [
        Sample(rng.normal(size=(n_nodes, d)).astype(np.float32),
               rng.integers(0, 2, size=n_labels).astype(np.uint8), 1.5)
        for _ in range(n_samples)
    ]


class TestTrainConfig:
    def test_full_scale_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_lr == 1e-4
        assert cfg.warmup_steps == 20_000
        assert cfg.total_steps == 200_000
        assert cfg.betas == (0.9, 0.99)
        assert cfg.weight_decay == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(max_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_steps=0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_steps=100, total_steps=50)
        with pytest.raises(ValueError):
            TrainConfig(betas=(1.0, 0.99))
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-0.1)


class TestLrSchedule:
    def test_starts_at_zero(self):
        assert lr_at(0, TrainConfig()) == 0.0

    def test_peak_exactly_at_warmup_boundary(self):
        cfg = TrainConfig()
        assert lr_at(20_000, cfg) == pytest.approx(1e-4, rel=1e-15)

    def test_decays_to_zero_at_horizon(self):
        cfg = TrainConfig()
        assert lr_at(200_000, cfg) == pytest.approx(0.0, abs=1e-20)

    def test_clamps_past_horizon(self):
        cfg = TrainConfig()
        assert lr_at(200_001, cfg) == 0.0
        assert lr_at(10 ** 9, cfg) == 0.0

    def test_linear_during_warmup(self):
        cfg = TrainConfig(max_lr=2e-3, warmup_steps=100, total_steps=1000)
        for step in (1, 25, 50, 99):
            assert lr_at(step, cfg) == pytest.approx(2e-3 * step / 100, rel=1e-15)

    def test_continuous_at_warmup_boundary(self):
        cfg = TrainConfig(max_lr=1e-3, warmup_steps=500, total_steps=5000)
        left = lr_at(499, cfg)
        peak = lr_at(500, cfg)
        right = lr_at(501, cfg)
        assert abs(peak - left) <= 1e-3 * (1.0 / 500 + 1e-12)
        assert abs(peak - right) <= 1e-3 * (1.0 / 500 + 1e-12)

    def test_peak_attained_only_at_boundary(self):
        cfg = TrainConfig(max_lr=1e-3, warmup_steps=50, total_steps=400)
        for step in range(0, 401):
            if step != 50:
                assert lr_at(step, cfg) < 1e-3

    def test_monotone_up_then_down(self):
        cfg = TrainConfig(max_lr=1e-3, warmup_steps=40, total_steps=300)
        values = [lr_at(s, cfg) for s in range(301)]
        assert all(a < b for a, b in zip(values[:40], values[1:41]))
        assert all(a >= b for a, b in zip(values[40:300], values[41:301]))

    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_never_negative_never_above_peak(self, step):
        cfg = TrainConfig(max_lr=3e-4, warmup_steps=1000, total_steps=10_000)
        lr = lr_at(step, cfg)
        assert 0.0 <= lr <= 3e-4


class TestAdamW:
    def test_zero_gradient_applies_pure_decay(self):
        cfg = TrainConfig(max_lr=1e-4, weight_decay=0.01)
        params = init_params(4, 2, Variant.CHEB, seed=0)
        state = init_optim_state(params)
        zero = np.zeros_like(params.flat)
        new_params, _ = adamw_step(params, zero, state, 1e-4, cfg)
        np.testing.assert_array_equal(new_params.flat, params.flat * (1.0 - 1e-6))

    def test_zero_gradient_zero_decay_is_identity(self):
        cfg = TrainConfig(weight_decay=0.0)
        params = init_params(4, 2, Variant.GRAPHCONV, seed=1)
        state = init_optim_state(params)
        zero = np.zeros_like(params.flat)
        new_params, new_state = adamw_step(params, zero, state, 1e-4, cfg)
        np.testing.assert_array_equal(new_params.flat, params.flat)
        assert new_state.step == 1

    def test_first_step_moves_by_learning_rate(self):
        # bias correction makes the first update lr * g/(|g| + eps) ~ lr * sign(g)
        cfg = TrainConfig(weight_decay=0.0)
        params = init_params(3, 2, Variant.CHEB, seed=2)
        state = init_optim_state(params)
        rng = np.random.default_rng(4)
        g = rng.normal(size=params.flat.shape)
        new_params, _ = adamw_step(params, g, state, 1e-3, cfg)
        moved = np.abs(new_params.flat - params.flat)
        assert moved.max() <= 1e-3 + 1e-12
        big = np.abs(g) > 1e-3
        np.testing.assert_allclose(moved[big], 1e-3, rtol=1e-4)

    def test_matches_scalar_reference_implementation(self):
        beta1, beta2, eps, wd = 0.9, 0.99, 1e-8, 0.01
        cfg = TrainConfig(betas=(beta1, beta2), adam_eps=eps, weight_decay=wd)
        params = init_params(2, 1, Variant.GRAPHCONV, n_layers=1, seed=5)
        state = init_optim_state(params)
        reference = [float(x) for x in params.flat]
        ref_m = [0.0] * len(reference)
        ref_v = [0.0] * len(reference)

        rng = np.random.default_rng(6)
        for t_step in range(1, 31):
            grads = rng.normal(size=len(reference))
            lr = 1e-3 * (0.95 ** t_step)
            params, state = adamw_step(params, grads, state, lr, cfg)
            for i, g in enumerate(grads):
                reference[i] = reference[i] * (1.0 - lr * wd)
                ref_m[i] = beta1 * ref_m[i] + (1 - beta1) * g
                ref_v[i] = beta2 * ref_v[i] + (1 - beta2) * g * g
                m_hat = ref_m[i] / (1 - beta1 ** t_step)
                v_hat = ref_v[i] / (1 - beta2 ** t_step)
                reference[i] = reference[i] - lr * m_hat / (math.sqrt(v_hat) + eps)

        np.testing.assert_allclose(params.flat, reference, rtol=1e-12, atol=1e-15)

    def test_state_tracks_step_count(self):
        params = init_params(2, 1, Variant.CHEB, seed=0)
        state = init_optim_state(params)
        assert isinstance(state, OptimState)
        assert state.step == 0
        zero = np.zeros_like(params.flat)
        _, state = adamw_step(params, zero, state, 1e-4, TrainConfig())
        _, state = adamw_step(params, zero, state, 1e-4, TrainConfig())
        assert state.step == 2


class TestTrainLoop:
    def overfit_config(self, total_steps=500):
        return TrainConfig(batch_size=1, max_lr=5e-2,
                           warmup_steps=min(50, max(1, total_steps // 2)),
                           total_steps=total_steps, weight_decay=0.0,
                           seed=0, log_every=100)

    @pytest.mark.parametrize("variant", [Variant.CHEB, Variant.GRAPHCONV])
    def test_overfits_single_sample(self, variant):
        sample = toy_samples(n_samples=1)[0]
        result = train([sample], [sample], GRAPH, variant, self.overfit_config())
        first = result.loss_curve[0]["loss"]
        last = result.loss_curve[-1]["loss"]
        if variant is Variant.CHEB:
            # small-magnitude init keeps the logits near zero, so the
            # per-label mean starts at ln 2 (the neighbour-sum variant
            # starts wherever its larger initial logits land)
            assert first == pytest.approx(math.log(2.0), abs=0.05)
        assert last < math.log(2.0)
        assert last < 0.1 * first or last < 1e-3

    def test_same_seed_is_bit_identical(self):
        samples = toy_samples()
        cfg = self.overfit_config(total_steps=60)
        r1 = train(samples, [], GRAPH, Variant.CHEB, cfg)
        r2 = train(samples, [], GRAPH, Variant.CHEB, cfg)
        np.testing.assert_array_equal(r1.params.flat, r2.params.flat)
        assert r1.loss_curve == r2.loss_curve

    def test_different_seed_changes_outcome(self):
        samples = toy_samples()
        cfg = self.overfit_config(total_steps=60)
        r1 = train(samples, [], GRAPH, Variant.CHEB, cfg)
        r2 = train(samples, [], GRAPH, Variant.CHEB,
                   TrainConfig(batch_size=1, max_lr=5e-2, warmup_steps=50,
                               total_steps=60, weight_decay=0.0, seed=1,
                               log_every=100))
        assert not np.array_equal(r1.params.flat, r2.params.flat)

    def test_non_finite_loss_raises_with_diagnostics(self):
        samples = toy_samples(n_samples=1)
        cfg = TrainConfig(batch_size=1, max_lr=1e-3, warmup_steps=2,
                          total_steps=10, weight_decay=0.0, seed=0, log_every=5)
        params = init_params(4, 3, Variant.CHEB, seed=0)
        poisoned = np.array(params.flat)
        poisoned[:4] = np.nan  # first row of the first filter matrix
        with pytest.raises(NumericError) as excinfo:
            train(samples, [], GRAPH, Variant.CHEB, cfg,
                  initial_params=ModelParams(params.layout, poisoned))
        err = excinfo.value
        assert err.step == 0
        assert len(err.grad_norms) == len(params.layout.entries)
        assert "not finite" in str(err)

    def test_warm_start_shape_mismatch_rejected(self):
        samples = toy_samples()
        cfg = self.overfit_config(total_steps=10)
        wrong = init_params(7, 3, Variant.CHEB, seed=0)
        with pytest.raises(ValueError):
            train(samples, [], GRAPH, Variant.CHEB, cfg, initial_params=wrong)

    def test_warm_start_continues_from_given_params(self):
        samples = toy_samples(n_samples=1)
        cfg = self.overfit_config(total_steps=100)
        cold = train(samples, [], GRAPH, Variant.CHEB, cfg)
        warm = train(samples, [], GRAPH, Variant.CHEB, cfg,
                     initial_params=cold.params)
        assert warm.loss_curve[0]["loss"] < cold.loss_curve[0]["loss"]

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train([], [], GRAPH, Variant.CHEB, self.overfit_config(10))

    def test_writes_quarter_checkpoints_and_log(self, tmp_path):
        samples = toy_samples()
        cfg = TrainConfig(batch_size=2, max_lr=1e-3, warmup_steps=4,
                          total_steps=40, weight_decay=0.01, seed=0,
                          log_every=10)
        result = train(samples, [], GRAPH, Variant.GRAPHCONV, cfg,
                       out_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.ctgc"))
        assert names == [
            "checkpoint.ctgc",
            "checkpoint_step0000010.ctgc",
            "checkpoint_step0000020.ctgc",
            "checkpoint_step0000030.ctgc",
            "checkpoint_step0000040.ctgc",
        ]
        assert [p.name for p in result.checkpoint_paths] == [
            "checkpoint_step0000010.ctgc", "checkpoint_step0000020.ctgc",
            "checkpoint_step0000030.ctgc", "checkpoint_step0000040.ctgc",
            "checkpoint.ctgc",
        ]
        # final snapshot equals the returned parameters byte for byte
        assert (tmp_path / "checkpoint.ctgc").read_bytes() == \
            (tmp_path / "checkpoint_step0000040.ctgc").read_bytes()

        lines = (tmp_path / "train_log.ndjson").read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        assert [e["step"] for e in entries] == [0, 10, 20, 30, 39]
        for entry in entries:
            assert set(entry) == {"step", "lr", "loss"}
            assert entry["lr"] == lr_at(entry["step"], cfg)
            assert math.isfinite(entry["loss"])
        assert entries == result.loss_curve

    def test_snapshots_at_quarter_marks(self):
        samples = toy_samples()
        cfg = TrainConfig(batch_size=2, max_lr=1e-3, warmup_steps=4,
                          total_steps=40, weight_decay=0.0, seed=0, log_every=10)
        result = train(samples, [], GRAPH, Variant.CHEB, cfg)
        assert [step for step, _ in result.snapshots] == [10, 20, 30, 40]
