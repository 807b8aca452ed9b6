"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).  The two
criteria that need the 2000-step trainings are marked ``slow``;
``pytest -m "not slow"`` leaves them out.

The two training-based criteria share one synthetic-advection setup:
32x32 frames, cells moving at 2 px/step, batch 8, 2000 steps.  Evaluation
uses the raw trained weights: at 2000 steps the EMA horizon (decay
0.99975, ~4000 steps) has not converged, so the shadow still mostly
reflects the initialization.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from raincast.attribution import integrated_gradients, integrated_gradients_fn
from raincast.baseline import persistence
from raincast.intensity import BinSet, dbz_to_rate, exceedance_masks, rate_to_dbz
from raincast.micromodel import ModelConfig, batch_loss, init_params, predict, train, _leaf_grads
from raincast.probcast import (
    calibrate_thresholds,
    crps,
    extract_intensity,
    lead_time_weights,
    ordinal_loss,
    reconstruct,
)
from raincast.raster import (
    SourceStack,
    align_center,
    depth_to_space_array,
    merge_time_channels,
    space_to_depth_array,
    split_time_channels,
)
from raincast.synthdata import MIN_PER_HOUR, SceneConfig, gen_sequence, make_splits
from raincast.verify import (
    ConfusionCounts,
    accumulate_confusion,
    categorical_scores,
    fss,
    pooled_csi,
)

from oracles import (
    confusion_loop,
    crps_loop,
    csi_loop,
    fbi_loop,
    fss_loop,
    hss_loop,
    pooled_csi_loop,
)

BINS = BinSet((0.2, 0.5, 1.0, 2.0, 4.0))


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def windows(frames, t_in=4, t_out=6):
    return [(frames[i - t_in + 1 : i + 1], frames[i + 1 : i + 1 + t_out])
            for i in range(t_in - 1, len(frames) - t_out)]


def scene_windows(seeds, frames_per_seq=40):
    """Training windows drawn from several scenes (different cells per seed)
    so the model has to learn the advection rule, not memorize one scene."""
    out = []
    for s in seeds:
        cfg = SceneConfig(h=32, w=32, n_cells=2 + (s % 3), amp_range=(1.0, 8.0),
                          radius_range=(3.0, 6.0), velocity=(2.0, 0.0),
                          noise_sigma=0.05, seed=s)
        out.extend(windows(gen_sequence(cfg, frames_per_seq)))
    return out


TRAIN_SEEDS = range(100, 112)
VAL_SEEDS = range(200, 203)
TEST_SEEDS = range(300, 303)


@pytest.fixture(scope="session")
def main_training():
    cfg = ModelConfig(t_in=4, t_out=6, k_classes=5, channels=32, n_blocks=4,
                      alpha=10.0, seed=0, steps=2000, batch_size=8, use_ema=False)
    t0 = time.perf_counter()
    params, curve = train(scene_windows(TRAIN_SEEDS), cfg, BINS)
    elapsed = time.perf_counter() - t0
    return cfg, params, curve, elapsed


@pytest.fixture(scope="session")
def ce_training():
    cfg = ModelConfig(t_in=4, t_out=6, k_classes=5, channels=32, n_blocks=4,
                      alpha=10.0, seed=0, steps=2000, batch_size=8, use_ema=False,
                      loss="ce")
    params, curve = train(scene_windows(TRAIN_SEEDS), cfg, BINS)
    return cfg, params, curve


class TestCriterion1:
    def test_reconstruction_monotone_for_10000_cubes(self):
        rng = np.random.default_rng(0)
        violations = 0
        for _ in range(100):
            q = rng.uniform(size=(100, 2, 6, 4, 4))  # 100 cubes per draw
            p = reconstruct(q)
            violations += int(np.sum(np.diff(p, axis=-3) > 0))
        report(1, violations == 0,
               f"monotone reconstruction on 10,000 random cubes, {violations} violations")


class TestCriterion2:
    def test_gradient_oracle(self):
        t0 = time.perf_counter()
        cfg = ModelConfig(t_in=2, t_out=2, k_classes=2, channels=8, n_blocks=1,
                          seed=3, alpha=4.0)
        params = init_params(cfg)
        n_params = params.n_params()
        rng = np.random.default_rng(11)
        for k in params.tensors:
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
                max_rel = max(max_rel, abs(grads[name][idx] - fd)
                              / max(abs(grads[name][idx]), abs(fd), 1e-8))
                it.iternext()
        elapsed = time.perf_counter() - t0
        report(2, max_rel <= 1e-4 and n_params <= 10_000 and elapsed < 120,
               f"{n_params} params, max rel err {max_rel:.2e}, {elapsed:.1f}s")


class TestCriterion3:
    def test_loss_scale_conservation(self):
        rng = np.random.default_rng(1)
        bins = BinSet((1.0, 2.0))
        rates = np.tile(rng.uniform(0, 3, size=(1, 8, 8)), (12, 1, 1))
        q = np.tile(rng.uniform(0.1, 0.9, size=(1, 2, 8, 8)), (12, 1, 1, 1))
        cm = exceedance_masks(rates, bins)
        lw = lead_time_weights(10.0, 12)
        weighted = ordinal_loss(q, cm, lw).value
        unweighted = ordinal_loss(q, cm).value
        gap = abs(weighted - unweighted)
        mean_gap = abs(lw.w.mean() - 1.0)
        ratio_gap = abs(lw.w[0] / lw.w[-1] - 10.0)
        ok = gap <= 1e-10 and mean_gap <= 1e-12 and ratio_gap <= 1e-12
        report(3, ok, f"uniform-target loss gap {gap:.2e}, weight mean off by "
                      f"{mean_gap:.2e}, first/last ratio off by {ratio_gap:.2e}")


class TestCriterion4:
    def test_metric_oracles_on_random_fields(self):
        rng = np.random.default_rng(2)
        bins = BinSet((0.5, 1.0, 3.0), top_width=2.0)
        worst = 0.0
        for _ in range(200):
            pred = rng.uniform(0, 4, size=(16, 16))
            obs = rng.uniform(0, 4, size=(16, 16))
            obs[rng.uniform(size=(16, 16)) < 0.1] = -1.0
            c = accumulate_confusion(pred, obs, 1.0)
            tp, fp, fn, tn = confusion_loop(pred, obs, 1.0)
            assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
            s = categorical_scores(c)
            for got, want in ((s["csi"], csi_loop(tp, fp, fn)),
                              (s["fbi"], fbi_loop(tp, fp, fn)),
                              (s["hss"], hss_loop(tp, fp, fn, tn))):
                if np.isnan(want):
                    assert np.isnan(got)
                else:
                    worst = max(worst, abs(got - want))
            pe = (pred >= 1.0) & (obs != -1.0)
            oe = (obs >= 1.0) & (obs != -1.0)
            for window in (1, 3, 5):
                worst = max(worst, abs(fss(pe, oe, window) - fss_loop(pe, oe, window)))
            got_p = pooled_csi(pred, obs, 4, 1.0)
            want_p = pooled_csi_loop(pred, obs, 4, 1.0)
            if np.isnan(want_p):
                assert np.isnan(got_p)
            else:
                worst = max(worst, abs(got_p - want_p))
            p_cube = np.sort(rng.uniform(size=(1, 3, 16, 16)), axis=1)[:, ::-1]
            got_c = crps(p_cube, obs[None], bins)
            total, n = 0.0, 0
            for y in range(16):
                for x in range(16):
                    if obs[y, x] == -1.0:
                        continue
                    total += crps_loop(p_cube[0, :, y, x], obs[y, x], bins.edges, bins.widths)
                    n += 1
            worst = max(worst, abs(got_c.value - total / n))
            # FSS at window 1 is exactly the Dice score of the counts
            cb = accumulate_confusion(pred, obs, 1.0)
            dice_den = 2 * cb.tp + cb.fp + cb.fn
            if dice_den:
                worst = max(worst, abs(fss(pe, oe, 1) - 2 * cb.tp / dice_den))
        report(4, worst <= 1e-12, f"200 random 16x16 fields, worst deviation {worst:.2e}")


class TestCriterion5:
    def test_crps_anchors(self):
        bins = BinSet((1.0, 2.0), top_width=1.0)
        point_mass = np.array([1.0, 0.0]).reshape(1, 2, 1, 1)
        zero = crps(point_mass, np.full((1, 1, 1), 1.5), bins).value
        all_zero = np.zeros((1, 2, 1, 1))
        worst = crps(all_zero, np.full((1, 1, 1), 5.0), bins).value
        expected = float(bins.widths[1:].sum())
        ok = zero == 0.0 and worst == expected
        report(5, ok, f"point-mass CRPS {zero}, all-zero vs top bucket {worst} "
                      f"(expected {expected})")


class TestCriterion6:
    @pytest.mark.slow
    def test_training_efficacy(self, main_training):
        cfg, params, curve, elapsed = main_training
        final, initial = float(np.mean(curve[-10:])), curve[0]
        cubes, masks = [], []
        for inp, tgt in scene_windows(VAL_SEEDS, 24):
            cubes.append(predict(params, inp))
            masks.append(exceedance_masks(tgt, BINS))
        table = calibrate_thresholds(cubes, masks, bins=BINS)
        conf_m = [ConfusionCounts() for _ in range(6)]
        conf_p = [ConfusionCounts() for _ in range(6)]
        for inp, tgt in scene_windows(TEST_SEEDS, 24):
            rates = extract_intensity(predict(params, inp), table, BINS)
            pers = persistence(inp[-1], 6)
            for t in range(6):
                conf_m[t] += accumulate_confusion(rates[t], tgt[t], 0.5)
                conf_p[t] += accumulate_confusion(pers[t], tgt[t], 0.5)
        csi_model = float(np.mean([categorical_scores(c)["csi"] for c in conf_m]))
        csi_pers = float(np.mean([categorical_scores(c)["csi"] for c in conf_p]))
        ok = csi_model > csi_pers and final < 0.5 * initial and elapsed < 900
        report(6, ok, f"CSI@0.5 over 6 leads: model {csi_model:.3f} vs persistence "
                      f"{csi_pers:.3f}; loss {initial:.3f}->{final:.3f}; train {elapsed:.0f}s")


class TestCriterion7:
    @pytest.mark.slow
    def test_ablation_parity(self, main_training, ce_training):
        _, params, _, _ = main_training
        ce_cfg, ce_params, ce_curve = ce_training
        ce_final, ce_initial = float(np.mean(ce_curve[-10:])), ce_curve[0]
        ce_converges = ce_final < 0.5 * ce_initial

        inp = scene_windows(TEST_SEEDS, 12)[0][0]
        cube = predict(params, inp)
        ordinal_monotone = bool(np.all(np.diff(cube, axis=1) <= 0))

        from raincast.micromodel import forward
        out, _, _ = forward(ce_params, inp)
        probs = np.exp(out.value - out.value.max(axis=2, keepdims=True))
        probs = probs / probs.sum(axis=2, keepdims=True)
        raw_needs_tail_sum = bool(np.any(np.diff(probs[0], axis=1) > 0))
        ce_cube = predict(ce_params, inp)
        ce_monotone = bool(np.all(np.diff(ce_cube, axis=1) <= 0))

        sp_params = init_params(ModelConfig(t_in=2, t_out=4, k_classes=2,
                                            channels=8, n_blocks=1))
        frames2 = np.random.default_rng(0).uniform(0, 5, size=(2, 16, 16))
        before = sp_params.n_forward_calls
        predict(sp_params, frames2)
        single_pass_forwards = sp_params.n_forward_calls - before
        lc_params = init_params(ModelConfig(t_in=2, t_out=4, k_classes=2,
                                            channels=8, n_blocks=1, mode="lead-conditioned"))
        before = lc_params.n_forward_calls
        predict(lc_params, frames2)
        lead_cond_forwards = lc_params.n_forward_calls - before

        ok = (ce_converges and ordinal_monotone and raw_needs_tail_sum and ce_monotone
              and single_pass_forwards == 1 and lead_cond_forwards == 4)
        report(7, ok, f"CE loss {ce_initial:.3f}->{ce_final:.3f}; ordinal monotone "
                      f"{ordinal_monotone}; raw CE buckets non-monotone {raw_needs_tail_sum}, "
                      f"tail-summed monotone {ce_monotone}; forwards per sample "
                      f"{single_pass_forwards} vs {lead_cond_forwards}")


class TestCriterion8:
    def test_integrated_gradients(self):
        cfg = ModelConfig(t_in=3, t_out=2, k_classes=2, channels=8, n_blocks=1, seed=2)
        params = init_params(cfg)
        rng = np.random.default_rng(3)
        for k in params.tensors:
            params.tensors[k] = params.tensors[k] + rng.normal(0, 0.25, params.tensors[k].shape)
        frames = rng.uniform(0, 8, size=(3, 16, 16))
        res = integrated_gradients(params, frames, target=(1, 0, None), steps=256)
        span = abs(res["value"] - res["baseline_value"])
        completeness_ok = res["completeness_gap"] <= 1e-3 * span

        w = rng.normal(size=(3, 4))
        x = rng.normal(size=(3, 4))
        base = rng.normal(size=(3, 4))
        linear_ok = True
        for steps in (1, 5, 32):
            lin = integrated_gradients_fn(lambda z: (float(np.sum(w * z)), w), x, base, steps)
            linear_ok &= np.allclose(lin["attribution"], w * (x - base), rtol=1e-12)
        report(8, completeness_ok and linear_ok,
               f"completeness gap {res['completeness_gap']:.2e} vs span {span:.2e}; "
               f"linear model exact: {linear_ok}")


class TestCriterion9:
    def test_split_hygiene_60_days(self):
        ts = np.arange(0.0, 60 * 24 * MIN_PER_HOUR, MIN_PER_HOUR)
        got = make_splits(ts)
        train_ts = got.of("train")
        eval_ts = np.concatenate([got.of("val"), got.of("test")])
        min_gap = np.inf
        for t in eval_ts:  # exhaustive pairwise scan
            min_gap = min(min_gap, np.abs(train_ts - t).min())
        ok = min_gap >= 12 * MIN_PER_HOUR
        report(9, ok, f"{len(train_ts)} train vs {len(eval_ts)} eval stamps, "
                      f"min separation {min_gap / 60:.1f}h")


class TestCriterion10:
    def test_round_trips(self):
        rng = np.random.default_rng(4)
        dbz = rng.uniform(-0.99, 63.99, size=1000)
        mp_ok = np.allclose(rate_to_dbz(dbz_to_rate(dbz)), dbz, rtol=1e-9)

        x = rng.normal(size=(2, 3, 8, 12))
        s2d_ok = np.array_equal(depth_to_space_array(space_to_depth_array(x, 2), 2), x)

        data = np.abs(rng.normal(size=(3, 2, 4, 6)))
        stack = SourceStack(data, 1.0, (0.0, 0.0), (0.0, 1.0, 2.0), "rate")
        merge_ok = np.array_equal(split_time_channels(merge_time_channels(stack), 3), data)

        small = SourceStack(np.abs(rng.normal(size=(1, 1, 8, 8))), 2.0,
                            (3.0, 4.0), (0.0,), "rate")
        grown = align_center(small, (32.0, 32.0))
        back = align_center(grown, (16.0, 16.0))
        align_ok = np.array_equal(back.data, small.data) and back.origin_km == small.origin_km

        ok = mp_ok and s2d_ok and merge_ok and align_ok
        report(10, ok, f"Marshall-Palmer {mp_ok}, space-to-depth {s2d_ok}, "
                       f"time-merge {merge_ok}, align {align_ok}")


class TestCriterion11:
    CONFIG = {
        "seed": 5,
        "bins": {"edges": [0.5, 2.0], "top_width": 1.5},
        "thresholds": [0.5, 2.0],
        "windows_km": [2.0, 10.0],
        "pools": [4],
        "timeline": {"days": 4.0, "step_min": 60.0},
        "splits": {"cycle_days": [2.0, 1.0, 1.0], "blackout_h": 6.0},
        "scene": {"h": 16, "w": 16, "n_cells": 2, "velocity": [1.0, 0.0],
                  "amp_range": [1.0, 6.0], "radius_range": [2.0, 4.0],
                  "noise_sigma": 0.05},
        "model": {"t_in": 2, "t_out": 3, "k_classes": 2, "channels": 8,
                  "n_blocks": 1, "steps": 40, "batch_size": 4, "use_ema": False},
    }

    def run_pipeline(self, cfg_path, out):
        stages = [["gen"], ["split"], ["train"], ["calibrate"],
                  ["predict", "--model", "micromodel"], ["predict", "--model", "persistence"],
                  ["eval", "--model", "micromodel"], ["eval", "--model", "persistence"],
                  ["report"]]
        for stage in stages:
            cmd = [sys.executable, "-m", "raincast", *stage,
                   "--config", str(cfg_path), "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, f"{stage}: {proc.stderr}"

    def test_pipeline_determinism(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(self.CONFIG))
        self.run_pipeline(cfg_path, tmp_path / "a")
        self.run_pipeline(cfg_path, tmp_path / "b")
        names = ("report_micromodel.csv", "report_micromodel.json",
                 "report_persistence.csv", "comparison.csv")
        same = all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
                   for n in names)
        report(11, same, f"two seeded end-to-end runs, {len(names)} report files byte-identical")
