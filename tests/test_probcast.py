import math

import numpy as np
import pytest

from raincast.intensity import BinSet, exceedance_masks
from raincast.probcast import (
    DEFAULT_CANDIDATES,
    ThresholdTable,
    bucket_probs_to_exceedance,
    calibrate_thresholds,
    ce_loss,
    crps,
    extract_intensity,
    lead_time_weights,
    ordinal_loss,
    reconstruct,
)
from raincast.raster import SENTINEL

from oracles import crps_loop, csi_loop, ordinal_loss_loop


def cube(values):
    """(T, K, 1, 1) cube from a per-(t, c) list."""
    a = np.asarray(values, dtype=float)
    return a.reshape(a.shape + (1, 1))


class TestReconstruct:
    def test_cumulative_product(self):
        p = reconstruct(cube([[0.8, 0.5, 0.25]]))
        np.testing.assert_allclose(p.ravel(), [0.8, 0.4, 0.1])

    def test_all_ones(self):
        assert np.all(reconstruct(np.ones((2, 4, 3, 3))) == 1.0)

    def test_absorbing_zero(self):
        p = reconstruct(cube([[0.0, 0.9, 0.9]]))
        assert np.all(p == 0.0)

    def test_monotone_for_random_inputs(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(size=(50, 3, 6, 4, 4))
        p = reconstruct(q)
        assert np.all(np.diff(p, axis=-3) <= 0)


class TestLeadTimeWeights:
    def test_hand_normalization(self):
        lw = lead_time_weights(4.0, 3)
        np.testing.assert_allclose(lw.w, [12 / 7, 6 / 7, 3 / 7], rtol=1e-15)
        assert lw.w.mean() == pytest.approx(1.0, abs=1e-12)

    def test_no_decay(self):
        np.testing.assert_array_equal(lead_time_weights(1.0, 5).w, np.ones(5))

    def test_first_last_ratio(self):
        lw = lead_time_weights(10.0, 48)
        assert lw.w[0] / lw.w[-1] == pytest.approx(10.0, abs=1e-12)
        assert lw.w.mean() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(lw.w) < 0)

    def test_single_step(self):
        np.testing.assert_array_equal(lead_time_weights(10.0, 1).w, [1.0])

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            lead_time_weights(0.5, 4)


class TestOrdinalLoss:
    BINS = BinSet((1.0, 2.0))

    def masks(self, rate):
        return exceedance_masks(np.full((1, 1, 1), rate), self.BINS)

    def test_both_classes_selected(self):
        loss = ordinal_loss(cube([[0.9, 0.1]]), self.masks(1.5))
        # targets (1, 0): (-ln 0.9 - ln 0.9) / 2
        assert loss.value == pytest.approx(-math.log(0.9), rel=1e-12)
        assert loss.count == 2

    def test_second_class_masked_out(self):
        loss = ordinal_loss(cube([[0.2, 0.7]]), self.masks(0.5))
        assert loss.value == pytest.approx(-math.log(0.8), rel=1e-12)
        assert loss.count == 1

    def test_missing_sample_flagged(self):
        loss = ordinal_loss(cube([[0.2, 0.7]]), self.masks(SENTINEL))
        assert loss.value == 0.0 and loss.empty

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        bins = BinSet((0.5, 1.0, 3.0))
        rates = rng.uniform(0, 5, size=(4, 5, 5))
        rates[rng.uniform(size=rates.shape) < 0.2] = SENTINEL
        q = rng.uniform(0.02, 0.98, size=(4, 3, 5, 5))
        lw = lead_time_weights(5.0, 4)
        got = ordinal_loss(q, exceedance_masks(rates, bins), lw)
        want, n = ordinal_loss_loop(q, rates, bins.edges, lw.w)
        assert got.count == n
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_pixel_permutation_invariance(self):
        rng = np.random.default_rng(2)
        bins = BinSet((1.0,))
        rates = rng.uniform(0, 3, size=(2, 1, 16))
        q = rng.uniform(0.1, 0.9, size=(2, 1, 1, 16))
        perm = rng.permutation(16)
        a = ordinal_loss(q, exceedance_masks(rates, bins))
        b = ordinal_loss(q[..., perm], exceedance_masks(rates[..., perm], bins))
        assert a.value == pytest.approx(b.value, rel=1e-14)

    def test_weighting_preserves_uniform_target_scale(self):
        # identical per-lead content: mean-1 weights must not change the loss
        rng = np.random.default_rng(3)
        bins = BinSet((1.0, 2.0))
        rates = np.tile(rng.uniform(0, 3, size=(1, 6, 6)), (8, 1, 1))
        q = np.tile(rng.uniform(0.1, 0.9, size=(1, 2, 6, 6)), (8, 1, 1, 1))
        cm = exceedance_masks(rates, bins)
        weighted = ordinal_loss(q, cm, lead_time_weights(10.0, 8))
        unweighted = ordinal_loss(q, cm)
        assert weighted.value == pytest.approx(unweighted.value, abs=1e-10)

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        bins = BinSet((0.5, 2.0))
        rates = rng.uniform(0, 4, size=(3, 4, 4))
        rates[0, 0, 0] = SENTINEL
        cm = exceedance_masks(rates, bins)
        q = rng.uniform(0.1, 0.9, size=(3, 2, 4, 4))
        lw = lead_time_weights(3.0, 3)
        _, grad = ordinal_loss(q, cm, lw, return_grad=True)
        h = 1e-6
        rel_errs = []
        for idx in [(0, 0, 1, 1), (1, 1, 2, 2), (2, 0, 3, 0), (1, 0, 0, 0)]:
            qp, qm = q.copy(), q.copy()
            qp[idx] += h
            qm[idx] -= h
            fd = (ordinal_loss(qp, cm, lw).value - ordinal_loss(qm, cm, lw).value) / (2 * h)
            denom = max(abs(fd), abs(grad[idx]), 1e-12)
            rel_errs.append(abs(fd - grad[idx]) / denom)
        assert max(rel_errs) < 1e-6


class TestCeLoss:
    BINS = BinSet((1.0, 2.0))

    def test_uniform_logits(self):
        cm = exceedance_masks(np.full((2, 3, 3), 1.5), self.BINS)
        loss = ce_loss(np.zeros((2, 3, 3, 3)), cm)
        assert loss.value == pytest.approx(math.log(3.0), rel=1e-12)

    def test_confident_correct_logits(self):
        rates = np.array([[[0.5, 1.5], [2.5, 0.0]]])
        cm = exceedance_masks(rates, self.BINS)
        labels = cm.masks.sum(axis=1).astype(int)
        logits = np.full((1, 3, 2, 2), -40.0)
        for h in range(2):
            for w in range(2):
                logits[0, labels[0, h, w], h, w] = 40.0
        assert ce_loss(logits, cm).value < 1e-9

    def test_missing_flagged(self):
        cm = exceedance_masks(np.full((1, 1, 1), SENTINEL), self.BINS)
        assert ce_loss(np.zeros((1, 3, 1, 1)), cm).empty

    def test_tail_sum_rule(self):
        probs = np.array([0.5, 0.3, 0.2]).reshape(1, 3, 1, 1)
        p = bucket_probs_to_exceedance(probs)
        np.testing.assert_allclose(p.ravel(), [0.5, 0.2])

    def test_tail_sums_are_monotone(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(2, 4, 3, 3))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        p = bucket_probs_to_exceedance(probs)
        assert np.all(np.diff(p, axis=1) <= 0)


class TestCalibration:
    def masks_from(self, rates, bins):
        return exceedance_masks(rates, bins)

    def test_perfect_separation_picks_smallest_working_candidate(self):
        bins = BinSet((1.0,))
        rates = np.zeros((1, 1, 100))
        rates[0, 0, :40] = 2.0
        p = np.where(rates >= 1.0, 0.9, 0.1)[:, None]
        table = calibrate_thresholds([p], [self.masks_from(rates, bins)], bins=bins)
        candidates_above = DEFAULT_CANDIDATES[DEFAULT_CANDIDATES > 0.1]
        assert table.thr[0, 0] == candidates_above[0]

    def test_tie_breaks_toward_smaller(self):
        bins = BinSet((1.0,))
        rates = np.zeros((1, 1, 10))
        rates[0, 0, :5] = 2.0
        p = np.full((1, 1, 1, 10), 0.5)
        table = calibrate_thresholds([p], [self.masks_from(rates, bins)], bins=bins)
        assert table.thr[0, 0] == DEFAULT_CANDIDATES[0]

    def test_no_events_falls_back(self):
        bins = BinSet((1.0,))
        rates = np.zeros((1, 1, 10))
        p = np.random.default_rng(6).uniform(size=(1, 1, 1, 10))
        table = calibrate_thresholds([p], [self.masks_from(rates, bins)], bins=bins)
        assert table.thr[0, 0] == 0.5
        assert table.fallback[0, 0]

    def test_matches_brute_force_sweep(self):
        rng = np.random.default_rng(7)
        bins = BinSet((0.5, 2.0))
        rates = rng.uniform(0, 4, size=(2, 8, 8))
        rates[rng.uniform(size=rates.shape) < 0.1] = SENTINEL
        p = rng.uniform(size=(2, 2, 8, 8))
        cm = self.masks_from(rates, bins)
        table = calibrate_thresholds([p], [cm], bins=bins)
        for c in range(2):
            for t in range(2):
                v = cm.valid[t]
                best, best_thr = -1.0, 0.5
                for cand in DEFAULT_CANDIDATES:
                    pred = p[t, c][v] >= cand
                    y = cm.masks[t, c][v] > 0
                    tp = int(np.sum(pred & y))
                    fp = int(np.sum(pred & ~y))
                    fn = int(np.sum(~pred & y))
                    score = csi_loop(tp, fp, fn)
                    if not math.isnan(score) and score > best:
                        best, best_thr = score, cand
                assert table.thr[c, t] == best_thr

    def test_json_round_trip_validates_edges(self):
        bins = BinSet((1.0, 2.0))
        table = ThresholdTable(np.full((2, 3), 0.4), bins.edges, (10.0, 20.0, 30.0))
        back = ThresholdTable.from_json(table.to_json(), expect_edges=bins.edges)
        np.testing.assert_array_equal(back.thr, table.thr)
        with pytest.raises(ValueError):
            ThresholdTable.from_json(table.to_json(), expect_edges=(5.0, 6.0))


class TestExtractIntensity:
    def test_activation_walk(self):
        bins = BinSet((0.1, 1.0, 2.0))
        table = ThresholdTable(np.array([[0.4], [0.35], [0.3]]), bins.edges)
        p = cube([[0.5, 0.36, 0.1]])
        out = extract_intensity(p, table, bins)
        assert out[0, 0, 0] == 1.5

    def test_nothing_activated(self):
        bins = BinSet((0.1, 1.0, 2.0))
        table = ThresholdTable(np.full((3, 1), 0.9), bins.edges)
        assert extract_intensity(cube([[0.5, 0.3, 0.1]]), table, bins)[0, 0, 0] == 0.0

    def test_saturated(self):
        bins = BinSet((0.1, 1.0, 2.0))
        table = ThresholdTable(np.full((3, 1), 0.5), bins.edges)
        assert extract_intensity(cube([[1.0, 1.0, 1.0]]), table, bins)[0, 0, 0] == 2.0

    def test_monotone_in_probability(self):
        rng = np.random.default_rng(8)
        bins = BinSet((0.5, 1.0, 2.0, 5.0))
        table = ThresholdTable(rng.uniform(0.2, 0.8, size=(4, 2)), bins.edges)
        p = np.sort(rng.uniform(size=(2, 4, 5, 5)), axis=1)[:, ::-1]
        base = extract_intensity(p, table, bins)
        for _ in range(20):
            t, c = rng.integers(2), rng.integers(4)
            y, x = rng.integers(5), rng.integers(5)
            p2 = p.copy()
            p2[t, c, y, x] = min(1.0, p2[t, c, y, x] + rng.uniform(0, 0.5))
            bumped = extract_intensity(p2, table, bins)
            assert bumped[t, y, x] >= base[t, y, x]


class TestCrps:
    def test_hand_example(self):
        bins = BinSet((1.0, 2.0), top_width=1.0)
        r = crps(cube([[0.8, 0.2]]), np.full((1, 1, 1), 1.5), bins)
        assert r.value == pytest.approx(0.08, rel=1e-12)

    def test_point_mass_is_zero(self):
        bins = BinSet((1.0, 2.0), top_width=1.0)
        p = cube([[1.0, 0.0]])  # exactly the exceedance indicator of 1.5
        assert crps(p, np.full((1, 1, 1), 1.5), bins).value == 0.0

    def test_worst_case_sums_rain_bucket_widths(self):
        bins = BinSet((1.0, 2.0), top_width=1.0)
        r = crps(cube([[0.0, 0.0]]), np.full((1, 1, 1), 5.0), bins)
        assert r.value == pytest.approx(float(bins.widths[1:].sum()), rel=1e-12)

    def test_all_missing_flagged(self):
        bins = BinSet((1.0,))
        r = crps(np.full((1, 1, 1, 1), 0.5), np.full((1, 1, 1), SENTINEL), bins)
        assert r.empty and math.isnan(r.value)

    def test_zero_iff_indicator(self):
        rng = np.random.default_rng(9)
        bins = BinSet((0.5, 1.0, 3.0), top_width=2.0)
        rates = rng.uniform(0, 5, size=(2, 3, 3))
        indicator = (rates[:, None] >= np.asarray(bins.edges)[None, :, None, None]).astype(float)
        assert crps(indicator, rates, bins).value == 0.0
        perturbed = indicator.copy()
        perturbed[0, 1, 0, 0] = 0.5
        assert crps(perturbed, rates, bins).value > 0.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(10)
        bins = BinSet((0.5, 1.0, 3.0), top_width=2.0)
        rates = rng.uniform(0, 5, size=(2, 4, 4))
        rates[0, 0, 0] = SENTINEL
        p = np.sort(rng.uniform(size=(2, 3, 4, 4)), axis=1)[:, ::-1]
        got = crps(p, rates, bins)
        total, n = 0.0, 0
        for t in range(2):
            for y in range(4):
                for x in range(4):
                    if rates[t, y, x] == SENTINEL:
                        continue
                    total += crps_loop(p[t, :, y, x], rates[t, y, x], bins.edges, bins.widths)
                    n += 1
        assert got.count == n
        assert got.value == pytest.approx(total / n, rel=1e-12)
