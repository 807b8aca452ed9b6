import numpy as np
import pytest

from raincast.attribution import _target_weights, integrated_gradients, integrated_gradients_fn
from raincast.micromodel import ModelConfig, encode_input, forward_encoded, init_params


class TestGenericRoutine:
    def test_linear_function_is_exact_at_any_steps(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=(3, 4))
        baseline = rng.normal(size=(3, 4))

        def f(z):
            return float(np.sum(w * z)), w

        for steps in (1, 3, 7, 64):
            res = integrated_gradients_fn(f, x, baseline, steps=steps)
            np.testing.assert_allclose(res["attribution"], w * (x - baseline), rtol=1e-12)
            assert res["completeness_gap"] < 1e-10

    def test_baseline_input_gets_zero_attribution(self):
        def f(z):
            return float(np.sum(z**2)), 2 * z

        x = np.array([1.0, -2.0, 3.0])
        res = integrated_gradients_fn(f, x, x, steps=8)
        np.testing.assert_array_equal(res["attribution"], np.zeros(3))

    def test_quadratic_converges_with_steps(self):
        # midpoint-rule error shrinks as the path is refined
        def f(z):
            return float(np.sum(z**3)), 3 * z**2

        x = np.full(4, 2.0)
        base = np.zeros(4)
        gaps = [integrated_gradients_fn(f, x, base, steps=s)["completeness_gap"] for s in (2, 8, 32)]
        assert gaps[2] < gaps[1] < gaps[0]

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            integrated_gradients_fn(lambda z: (0.0, z), np.ones(2), np.zeros(2), steps=0)


def randomized_params(cfg, scale=0.25, seed=1):
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    for k in params.tensors:
        params.tensors[k] = params.tensors[k] + rng.normal(0, scale, params.tensors[k].shape)
    return params


class TestModelAttribution:
    CFG = ModelConfig(t_in=3, t_out=2, k_classes=2, channels=8, n_blocks=1, seed=2)

    def test_completeness_at_256_steps(self):
        params = randomized_params(self.CFG)
        frames = np.random.default_rng(3).uniform(0, 8, size=(3, 16, 16))
        res = integrated_gradients(params, frames, target=(1, 0, None), steps=256)
        span = abs(res["value"] - res["baseline_value"])
        assert span > 0
        assert res["completeness_gap"] <= 1e-3 * span

    def test_pixel_subset_target(self):
        params = randomized_params(self.CFG, seed=4)
        frames = np.random.default_rng(5).uniform(0, 8, size=(3, 16, 16))
        mask = np.zeros((16, 16), dtype=bool)
        mask[4:8, 4:8] = True
        res = integrated_gradients(params, frames, target=(0, 1, mask), steps=64)
        assert res["attribution"].shape == (self.CFG.in_channels, 16, 16)
        assert res["per_channel"].shape == (self.CFG.in_channels,)

    def test_constant_validity_plane_gets_zero_attribution(self):
        # fully valid input: the validity planes equal their baseline, so
        # their attribution vanishes identically
        params = randomized_params(self.CFG, seed=6)
        frames = np.random.default_rng(7).uniform(0, 8, size=(3, 16, 16))
        res = integrated_gradients(params, frames, target=(0, 0, None), steps=16)
        np.testing.assert_array_equal(res["per_channel"][3:6], np.zeros(3))

    def test_recent_frame_dominates_for_trained_like_kernel(self):
        # not a training test: just checks the per-channel aggregation sums
        # spatial attribution (signs and all) into one score per plane
        params = randomized_params(self.CFG, seed=8)
        frames = np.random.default_rng(9).uniform(0, 8, size=(3, 16, 16))
        res = integrated_gradients(params, frames, target=(0, 0, None), steps=32)
        total = res["attribution"].sum()
        assert total == pytest.approx(res["per_channel"].sum(), rel=1e-12)


def ig_full_sweep(params, frames, target, steps):
    """integrated_gradients rebuilt on integrated_gradients_fn, each tape swept
    back into every leaf, the parameters included."""
    config = params.config
    lead_idx = target[0] if config.mode == "lead-conditioned" else None
    tgt = (0, *target[1:]) if config.mode == "lead-conditioned" else target
    x0 = encode_input(frames, config, lead_idx)

    def value_and_grad(x_enc):
        out, tape, x_leaf = forward_encoded(params, x_enc[None])
        scalar = tape.weighted_sum(out, _target_weights(out.value.shape, tgt))
        tape.backward(scalar)
        assert all(leaf.grad is not None for leaf in tape.param_leaves.values())
        return float(scalar.value), x_leaf.grad[0]

    return integrated_gradients_fn(value_and_grad, x0, x0.min(axis=(-2, -1), keepdims=True), steps)


class TestInputOnlySweep:
    @pytest.mark.parametrize("mode", ["single-pass", "lead-conditioned"])
    def test_equals_oracle_with_full_backward(self, mode):
        cfg = ModelConfig(t_in=3, t_out=2, k_classes=2, channels=8, n_blocks=2, seed=2, mode=mode)
        params = randomized_params(cfg, seed=10)
        frames = np.random.default_rng(11).uniform(0, 8, size=(3, 16, 16))
        target = (1, 1, None)
        got = integrated_gradients(params, frames, target, steps=8)
        want = ig_full_sweep(params, frames, target, steps=8)
        assert np.array_equal(got["attribution"], want["attribution"])
        for key in ("value", "baseline_value", "completeness_gap"):
            assert got[key] == want[key], key
