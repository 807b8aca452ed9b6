from unittest import mock

import numpy as np
import pytest

from raincast import micromodel
from raincast.intensity import BinSet, classify
from raincast.micromodel import (
    DivergenceError,
    ModelConfig,
    ParamSet,
    batch_loss,
    ema_update,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
    _leaf_grads,
)
from raincast.probcast import lead_time_weights
from raincast.raster import SENTINEL
from raincast.synthdata import SceneConfig, gen_sequence

BINS = BinSet((0.2, 0.5, 1.0, 2.0, 4.0))


def advection_dataset(seed=7, t_frames=120, t_in=4, t_out=6):
    scene = SceneConfig(h=32, w=32, n_cells=3, amp_range=(1.0, 8.0),
                        radius_range=(3.0, 6.0), velocity=(2.0, 0.0),
                        noise_sigma=0.05, seed=seed)
    frames = gen_sequence(scene, t_frames)
    return [
        (frames[i - t_in + 1 : i + 1], frames[i + 1 : i + 1 + t_out])
        for i in range(t_in - 1, t_frames - t_out)
    ]


@pytest.fixture(scope="module")
def trained_ordinal():
    cfg = ModelConfig(t_in=4, t_out=6, k_classes=5, channels=16, n_blocks=2,
                      alpha=10.0, seed=0, steps=300, batch_size=8)
    params, curve = train(advection_dataset(), cfg, BINS)
    return cfg, params, curve


class TestForward:
    def test_shape_and_range_contract(self):
        cfg = ModelConfig(t_in=4, t_out=6, k_classes=5, channels=16, n_blocks=1)
        params = init_params(cfg)
        frames = np.random.default_rng(0).uniform(0, 10, size=(4, 32, 32))
        out, _, _ = forward(params, frames)
        assert out.value.shape == (1, 6, 5, 32, 32)
        assert np.all((out.value > 0) & (out.value < 1))

    def test_deterministic(self):
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=2, channels=8, n_blocks=1, seed=5)
        frames = np.random.default_rng(1).uniform(0, 5, size=(2, 16, 16))
        a, _, _ = forward(init_params(cfg), frames)
        b, _, _ = forward(init_params(cfg), frames)
        np.testing.assert_array_equal(a.value, b.value)

    def test_zero_head_outputs_exactly_half(self):
        cfg = ModelConfig(t_in=2, t_out=3, k_classes=2, channels=8, n_blocks=1)
        params = init_params(cfg)
        frames = np.random.default_rng(2).uniform(0, 5, size=(2, 16, 16))
        out, _, _ = forward(params, frames)
        assert np.all(out.value == 0.5)

    def test_shape_mismatch_rejected(self):
        cfg = ModelConfig(t_in=4, t_out=2, k_classes=2, channels=8, n_blocks=1)
        with pytest.raises(ValueError):
            forward(init_params(cfg), np.zeros((3, 16, 16)))


class TestGradients:
    def test_analytic_matches_central_differences(self):
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=2, channels=8, n_blocks=1,
                          seed=3, alpha=4.0)
        params = init_params(cfg)
        assert params.n_params() <= 10_000
        rng = np.random.default_rng(11)
        for k in params.tensors:  # randomize so no gradient path is dead
            params.tensors[k] = params.tensors[k] + rng.normal(0, 0.15, params.tensors[k].shape)
        inputs = rng.uniform(0, 6, size=(2, 2, 8, 8))
        inputs[0, 0, 0, 0] = -1.0
        targets = rng.uniform(0, 6, size=(2, 2, 8, 8))
        bins = BinSet((0.5, 2.0))
        weights = lead_time_weights(cfg.alpha, cfg.t_out)

        loss, tape = batch_loss(params, inputs, targets, bins, weights)
        tape.backward(loss)
        grads = _leaf_grads(tape, params)

        h = 1e-4
        max_rel = 0.0
        for name, base in params.tensors.items():
            it = np.nditer(base, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = base[idx]
                base[idx] = orig + h
                lp, _ = batch_loss(params, inputs, targets, bins, weights)
                base[idx] = orig - h
                lm, _ = batch_loss(params, inputs, targets, bins, weights)
                base[idx] = orig
                fd = (lp.value - lm.value) / (2 * h)
                rel = abs(grads[name][idx] - fd) / max(abs(grads[name][idx]), abs(fd), 1e-8)
                max_rel = max(max_rel, rel)
                it.iternext()
        assert max_rel <= 1e-4


class TestTrainingGradients:
    def test_every_training_step_gets_every_parameter_gradient(self):
        # _leaf_grads reads a leaf left without a gradient as zeros, so a sweep
        # that skipped the parameters would still train, on zero gradients
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=2, channels=8, n_blocks=1, seed=4,
                          steps=3, batch_size=2, use_ema=False)
        seen = []

        def spy(tape, params):
            seen.append({name: leaf.grad is not None for name, leaf in tape.param_leaves.items()})
            return _leaf_grads(tape, params)

        dataset = advection_dataset(t_frames=12, t_in=2, t_out=2)
        with mock.patch.object(micromodel, "_leaf_grads", spy):
            params, _ = train(dataset, cfg, BinSet((0.5, 2.0)))
        assert len(seen) == cfg.steps
        for step in seen:
            assert set(step) == set(params.tensors)
            assert all(step.values())


class TestAblationGradients:
    @pytest.mark.parametrize("mode", ["single-pass", "lead-conditioned"])
    @pytest.mark.parametrize("loss", ["ordinal", "ce"])
    def test_every_ablation_config_passes_gradcheck(self, mode, loss):
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=2, channels=4, n_blocks=1,
                          mode=mode, loss=loss, seed=6, alpha=2.0)
        params = init_params(cfg)
        rng = np.random.default_rng(12)
        for k in params.tensors:
            params.tensors[k] = params.tensors[k] + rng.normal(0, 0.2, params.tensors[k].shape)
        inputs = rng.uniform(0, 6, size=(2, 2, 8, 8))
        targets = rng.uniform(0, 6, size=(2, 2, 8, 8))
        bins = BinSet((0.5, 2.0))
        weights = lead_time_weights(cfg.alpha, cfg.t_out)
        lead_idx = 1 if mode == "lead-conditioned" else None

        loss_t, tape = batch_loss(params, inputs, targets, bins, weights, lead_idx=lead_idx)
        tape.backward(loss_t)
        grads = _leaf_grads(tape, params)

        h = 1e-4
        max_rel = 0.0
        for name, base in params.tensors.items():
            it = np.nditer(base, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = base[idx]
                base[idx] = orig + h
                lp, _ = batch_loss(params, inputs, targets, bins, weights, lead_idx=lead_idx)
                base[idx] = orig - h
                lm, _ = batch_loss(params, inputs, targets, bins, weights, lead_idx=lead_idx)
                base[idx] = orig
                fd = (lp.value - lm.value) / (2 * h)
                max_rel = max(max_rel, abs(grads[name][idx] - fd)
                              / max(abs(grads[name][idx]), abs(fd), 1e-8))
                it.iternext()
        assert max_rel <= 1e-4


class TestTraining:
    def test_loss_descends_on_synthetic_advection(self, trained_ordinal):
        # the full halving bar is part of the acceptance suite's longer run
        _, _, curve = trained_ordinal
        assert np.mean(curve[-10:]) < 0.8 * curve[0]

    def test_initial_loss_near_log_two(self, trained_ordinal):
        # the zero head emits 0.5 everywhere, so the first batch scores close
        # to ln 2 (exactly ln 2 only when the masked set is lead-balanced)
        _, _, curve = trained_ordinal
        assert curve[0] == pytest.approx(np.log(2.0), rel=0.05)

    def test_seed_fixed_rerun_reproduces_curve(self):
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=2, channels=8, n_blocks=1,
                          seed=9, steps=5, batch_size=4)
        ds = advection_dataset(seed=3, t_frames=20, t_in=2, t_out=2)
        bins = BinSet((0.5, 2.0))
        _, c1 = train(ds, cfg, bins)
        _, c2 = train(ds, cfg, bins)
        assert c1 == c2

    def test_lead_weight_bookkeeping(self):
        # with alpha=10 the first lead's contribution carries 10x the last's
        # weight; verify against a manually weighted per-lead sum
        cfg = ModelConfig(t_in=2, t_out=3, k_classes=2, channels=8, n_blocks=1, alpha=10.0)
        params = init_params(cfg)
        rng = np.random.default_rng(4)
        for k in params.tensors:
            params.tensors[k] = params.tensors[k] + rng.normal(0, 0.1, params.tensors[k].shape)
        inputs = rng.uniform(0, 6, size=(2, 2, 8, 8))
        targets = rng.uniform(0, 6, size=(2, 3, 8, 8))
        bins = BinSet((0.5, 2.0))
        weights = lead_time_weights(10.0, 3)
        loss, _ = batch_loss(params, inputs, targets, bins, weights)

        from raincast.intensity import exceedance_masks
        from raincast.probcast import ordinal_loss

        out, _, _ = forward(params, inputs)
        total, count = 0.0, 0
        for t in range(3):
            for b in range(2):
                cm = exceedance_masks(targets[b, t : t + 1], bins)
                part = ordinal_loss(out.value[b, t : t + 1], cm)
                total += weights.w[t] * part.value * part.count
                count += part.count
        assert loss.value == pytest.approx(total / count, rel=1e-12)

    def test_ce_loss_matches_numpy_ce(self):
        # the tape CE of a batch equals the count-weighted per-sample ce_loss
        cfg = ModelConfig(t_in=2, t_out=3, k_classes=2, channels=8, n_blocks=1,
                          loss="ce", alpha=10.0)
        params = init_params(cfg)
        rng = np.random.default_rng(6)
        for k in params.tensors:
            params.tensors[k] = params.tensors[k] + rng.normal(0, 0.1, params.tensors[k].shape)
        inputs = rng.uniform(0, 6, size=(2, 2, 8, 8))
        targets = rng.uniform(0, 6, size=(2, 3, 8, 8))
        targets[1, 2, :3] = SENTINEL
        bins = BinSet((0.5, 2.0))
        weights = lead_time_weights(10.0, 3)
        loss, _ = batch_loss(params, inputs, targets, bins, weights)

        from raincast.intensity import exceedance_masks
        from raincast.probcast import LeadWeights, ce_loss

        out, _, _ = forward(params, inputs)
        total, count = 0.0, 0
        for b in range(2):
            part = ce_loss(out.value[b], exceedance_masks(targets[b], bins), weights)
            total += part.value * part.count
            count += part.count
        assert loss.value == pytest.approx(total / count, rel=1e-12)
        unweighted = ce_loss(out.value[0], exceedance_masks(targets[0], bins),
                             LeadWeights(np.ones(3), 1.0))
        assert unweighted.value != pytest.approx(
            ce_loss(out.value[0], exceedance_masks(targets[0], bins), weights).value)

    def test_divergence_aborts(self):
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=2, channels=8, n_blocks=1,
                          steps=50, batch_size=4, lr=1e9)
        ds = advection_dataset(seed=3, t_frames=20, t_in=2, t_out=2)
        with pytest.raises(DivergenceError):
            train(ds, cfg, BinSet((0.5, 2.0)))

    def test_ce_variant_trains(self):
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=2, channels=8, n_blocks=1,
                          loss="ce", seed=1, steps=60, batch_size=8)
        ds = advection_dataset(seed=5, t_frames=40, t_in=2, t_out=2)
        _, curve = train(ds, cfg, BinSet((0.5, 2.0)))
        assert np.mean(curve[-5:]) < curve[0]

    def test_lead_conditioned_variant_trains(self):
        cfg = ModelConfig(t_in=2, t_out=3, k_classes=2, channels=8, n_blocks=1,
                          mode="lead-conditioned", seed=1, steps=40, batch_size=8)
        ds = advection_dataset(seed=5, t_frames=40, t_in=2, t_out=3)
        _, curve = train(ds, cfg, BinSet((0.5, 2.0)))
        assert np.isfinite(curve).all() and np.mean(curve[-5:]) < curve[0]


class TestPredict:
    def test_ordinal_cube_is_monotone(self, trained_ordinal):
        cfg, params, _ = trained_ordinal
        frames = advection_dataset(seed=13, t_frames=12)[0][0]
        cube = predict(params, frames)
        assert cube.shape == (6, 5, 32, 32)
        assert np.all(np.diff(cube, axis=1) <= 0)

    def test_ce_cube_is_monotone_after_tail_summing(self):
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=3, channels=8, n_blocks=1, loss="ce", seed=2)
        params = init_params(cfg)
        rng = np.random.default_rng(6)
        for k in params.tensors:
            params.tensors[k] = params.tensors[k] + rng.normal(0, 0.3, params.tensors[k].shape)
        cube = predict(params, rng.uniform(0, 5, size=(2, 16, 16)))
        assert np.all(np.diff(cube, axis=1) <= 0)

    def test_ce_majority_argmax_matches_extraction(self):
        # when one bucket holds the probability majority, the raw argmax and
        # the highest bucket activated at threshold 0.5 coincide
        from raincast.probcast import ThresholdTable, bucket_probs_to_exceedance, extract_intensity

        rng = np.random.default_rng(7)
        bins = BinSet((0.5, 1.0, 2.0))
        logits = rng.normal(0, 2, size=(2, 4, 6, 6))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        p = bucket_probs_to_exceedance(probs)
        table = ThresholdTable(np.full((3, 2), 0.5), bins.edges)
        rates = extract_intensity(p, table, bins)
        majority = probs.max(axis=1) > 0.5
        assert majority.any()
        np.testing.assert_array_equal(
            classify(rates, bins)[majority], probs.argmax(axis=1)[majority]
        )

    def test_zero_rain_history_predicts_low_rain_probability(self, trained_ordinal):
        cfg, params, _ = trained_ordinal
        cube = predict(params, np.zeros((4, 32, 32)))
        assert cube[:, 0].mean() < 0.5

    def test_forward_count_single_pass_vs_lead_conditioned(self):
        frames = np.random.default_rng(8).uniform(0, 5, size=(2, 16, 16))
        sp = ModelConfig(t_in=2, t_out=4, k_classes=2, channels=8, n_blocks=1)
        sp_params = init_params(sp)
        before = sp_params.n_forward_calls
        predict(sp_params, frames)
        assert sp_params.n_forward_calls - before == 1
        lc = ModelConfig(t_in=2, t_out=4, k_classes=2, channels=8, n_blocks=1,
                         mode="lead-conditioned")
        lc_params = init_params(lc)
        before = lc_params.n_forward_calls
        predict(lc_params, frames)
        assert lc_params.n_forward_calls - before == lc.t_out

    @pytest.mark.parametrize("mode,loss", [("single-pass", "ordinal"),
                                           ("lead-conditioned", "ce")])
    def test_runs_on_the_ema_shadow(self, mode, loss):
        cfg = ModelConfig(t_in=2, t_out=3, k_classes=2, channels=8, n_blocks=1,
                          mode=mode, loss=loss, seed=3)
        params = init_params(cfg)
        rng = np.random.default_rng(12)
        params.ema = {k: v + rng.normal(0, 0.3, v.shape) for k, v in params.tensors.items()}
        frames = rng.uniform(0, 5, size=(2, 16, 16))
        got = predict(params, frames)
        # the raw tensors have a zero head, so they forecast something else
        assert not np.array_equal(got, predict(ParamSet(params.tensors, cfg), frames))
        np.testing.assert_array_equal(got, predict(ParamSet(params.ema, cfg), frames))
        assert params.n_forward_calls == (cfg.t_out if mode == "lead-conditioned" else 1)

    def test_lead_conditioned_shapes_match_single_pass(self):
        frames = np.random.default_rng(9).uniform(0, 5, size=(2, 16, 16))
        kw = dict(t_in=2, t_out=3, k_classes=2, channels=8, n_blocks=1, seed=4)
        a = predict(init_params(ModelConfig(**kw)), frames)
        b = predict(init_params(ModelConfig(mode="lead-conditioned", **kw)), frames)
        assert a.shape == b.shape


class TestEma:
    def test_zero_decay_tracks_raw(self):
        rng = np.random.default_rng(10)
        shadow = {"w": rng.normal(size=(3, 3))}
        tensors = {"w": rng.normal(size=(3, 3))}
        ema_update(shadow, tensors, 0.0)
        np.testing.assert_array_equal(shadow["w"], tensors["w"])

    def test_converges_to_frozen_params(self):
        rng = np.random.default_rng(11)
        tensors = {"w": rng.normal(size=(4,))}
        shadow = {"w": tensors["w"] + 5.0}
        gap0 = np.abs(shadow["w"] - tensors["w"]).max()
        for _ in range(2000):
            ema_update(shadow, tensors, 0.99)
        assert np.abs(shadow["w"] - tensors["w"]).max() < 1e-6 * gap0


class TestCheckpoint:
    def test_round_trip(self, tmp_path, trained_ordinal):
        cfg, params, _ = trained_ordinal
        save_checkpoint(tmp_path / "ckpt", params)
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.config == cfg
        assert back.step == params.step
        for k in params.tensors:
            np.testing.assert_allclose(back.tensors[k], params.tensors[k], atol=1e-6)
        frames = advection_dataset(seed=21, t_frames=12)[0][0]
        a = predict(back, frames)
        b = predict(back, frames)
        np.testing.assert_array_equal(a, b)
