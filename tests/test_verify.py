import math

import numpy as np
import pytest

from raincast.intensity import BinSet
from raincast.raster import SENTINEL
from raincast.verify import (
    ConfusionCounts,
    EvalSample,
    ReportConfig,
    accumulate_confusion,
    build_report,
    categorical_scores,
    error_scores,
    fss,
    fss_window_px,
    pooled_csi,
    ssim,
)

from oracles import (
    confusion_loop,
    csi_loop,
    fbi_loop,
    fss_components_loop,
    fss_loop,
    hss_loop,
    pooled_csi_loop,
    ssim_loop,
)


class TestConfusion:
    def test_hand_counts(self):
        c = accumulate_confusion([1, 1, 1, 0], [1, 1, 0, 1], 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 0)

    def test_perfect(self):
        x = np.array([0.0, 1.0, 2.0, 0.0])
        c = accumulate_confusion(x, x, 0.5)
        assert c.fp == 0 and c.fn == 0

    def test_all_invalid(self):
        c = accumulate_confusion([1.0], [SENTINEL], 0.5)
        assert c.total == 0

    def test_additivity(self):
        rng = np.random.default_rng(0)
        a_p, a_o = rng.uniform(0, 2, (2, 8)), rng.uniform(0, 2, (2, 8))
        b_p, b_o = rng.uniform(0, 2, (2, 8)), rng.uniform(0, 2, (2, 8))
        joint = accumulate_confusion(np.concatenate([a_p, b_p]), np.concatenate([a_o, b_o]), 1.0)
        split = accumulate_confusion(a_p, a_o, 1.0) + accumulate_confusion(b_p, b_o, 1.0)
        assert joint == split

    def test_total_counts_valid_pixels(self):
        rng = np.random.default_rng(1)
        obs = rng.uniform(0, 2, 50)
        obs[rng.uniform(size=50) < 0.3] = SENTINEL
        c = accumulate_confusion(rng.uniform(0, 2, 50), obs, 1.0)
        assert c.total == int(np.sum(obs != SENTINEL))


class TestCategoricalScores:
    def test_hand_values(self):
        s = categorical_scores(ConfusionCounts(tp=2, fp=1, fn=1, tn=0))
        assert s["csi"] == pytest.approx(0.5)
        assert s["fbi"] == pytest.approx(1.0)
        assert s["hss"] == pytest.approx(-1 / 3)

    def test_perfect_forecast(self):
        s = categorical_scores(ConfusionCounts(tp=5, fp=0, fn=0, tn=5))
        assert s["csi"] == 1.0 and s["fbi"] == 1.0 and s["hss"] == 1.0

    def test_vacuous_is_undefined(self):
        s = categorical_scores(ConfusionCounts(tn=10))
        assert math.isnan(s["csi"]) and math.isnan(s["fbi"])

    def test_csi_one_iff_no_misses_or_false_alarms(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = ConfusionCounts(*(int(v) for v in rng.integers(0, 3, size=4)))
            s = categorical_scores(c)
            if not math.isnan(s["csi"]):
                assert (s["csi"] == 1.0) == (c.fp == 0 and c.fn == 0 and c.tp > 0)


class TestFss:
    def test_window_one_equals_dice(self):
        pred = np.array([[1, 1, 0, 0]])
        obs = np.array([[1, 0, 1, 0]])
        got = fss(pred, obs, 1)
        tp, fp, fn, _ = confusion_loop(pred, obs, 0.5, valid=np.ones(4, bool))
        assert got == pytest.approx(2 * tp / (2 * tp + fp + fn))
        assert got == pytest.approx(0.5)

    def test_identical_fields(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(8, 8)) > 0.7
        assert fss(x, x, 5) == 1.0

    def test_disjoint_pixels(self):
        pred = np.zeros((8, 8))
        obs = np.zeros((8, 8))
        pred[0, 0] = 1
        obs[7, 7] = 1
        assert fss(pred, obs, 1) == 0.0

    def test_both_empty_is_vacuous_perfect(self):
        assert fss(np.zeros((4, 4)), np.zeros((4, 4)), 3) == 1.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        for window in (1, 3, 5):
            pred = rng.uniform(size=(9, 7)) > 0.6
            obs = rng.uniform(size=(9, 7)) > 0.6
            got = fss(pred, obs, window)
            assert got == pytest.approx(fss_loop(pred, obs, window), abs=1e-12)
            assert 0.0 <= got <= 1.0

    def test_window_grows_tolerance_to_displacement(self):
        field = np.zeros((16, 16))
        field[6:10, 6:10] = 1
        shifted = np.roll(field, 1, axis=1)
        scores = [fss(field, shifted, w) for w in (1, 3, 5, 7)]
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_neighborhood_to_window(self):
        assert [fss_window_px(km, 2.0) for km in (2, 10, 20)] == [1, 5, 11]

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            fss(np.zeros((4, 4)), np.zeros((4, 4)), 2)


class TestPooledCsi:
    def test_pooling_rescues_near_miss(self):
        pred = np.array([[1.0, 0.0], [0.0, 0.0]])
        obs = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert pooled_csi(pred, obs, 2, 0.5) == 1.0
        assert categorical_scores(accumulate_confusion(pred, obs, 0.5))["csi"] == 0.0

    def test_identity(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2, size=(8, 8))
        for pool in (1, 2, 4):
            assert pooled_csi(x, x, pool, 1.0) in (1.0,) or math.isnan(pooled_csi(x, x, pool, 1.0))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            pred = rng.uniform(0, 2, size=(16, 16))
            obs = rng.uniform(0, 2, size=(16, 16))
            obs[rng.uniform(size=(16, 16)) < 0.1] = SENTINEL
            got = pooled_csi(pred, obs, 4, 1.0)
            want = pooled_csi_loop(pred, obs, 4, 1.0)
            assert got == pytest.approx(want, abs=1e-12)


class TestErrorScores:
    def test_perfect(self):
        x = np.arange(6.0).reshape(2, 3)
        s = error_scores(x, x)
        assert s["mae"] == 0.0 and s["mse"] == 0.0

    def test_constant_offset(self):
        obs = np.arange(6.0).reshape(2, 3)
        s = error_scores(obs + 2.0, obs)
        assert s["mae"] == pytest.approx(2.0) and s["mse"] == pytest.approx(4.0)

    def test_single_valid_pixel(self):
        obs = np.full((2, 2), SENTINEL)
        obs[0, 0] = 1.0
        pred = np.full((2, 2), 4.0)
        s = error_scores(pred, obs)
        assert s["mae"] == 3.0 and s["mse"] == 9.0

    def test_all_invalid_undefined(self):
        s = error_scores(np.ones((2, 2)), np.full((2, 2), SENTINEL))
        assert math.isnan(s["mae"]) and math.isnan(s["mse"])


class TestSsim:
    def test_identical(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 5, size=(16, 16))
        assert ssim(x, x) == pytest.approx(1.0)

    def test_shifted_copy_below_one_and_matches_oracle(self):
        rng = np.random.default_rng(8)
        obs = rng.uniform(0, 5, size=(14, 14))
        pred = obs + 1.0
        got = ssim(pred, obs)
        assert got < 1.0
        assert got == pytest.approx(ssim_loop(pred, obs), rel=1e-9)

    def test_anticorrelated_checkerboards(self):
        base = np.indices((16, 16)).sum(axis=0) % 2
        got = ssim(base.astype(float), 1.0 - base)
        assert got < 0.0
        assert got == pytest.approx(ssim_loop(base.astype(float), 1.0 - base), rel=1e-9)

    def test_rejects_sentinel(self):
        x = np.ones((12, 12))
        y = x.copy()
        y[0, 0] = SENTINEL
        with pytest.raises(ValueError):
            ssim(x, y)


class TestBuildReport:
    def sample(self, seed=9, t=2, n=16):
        rng = np.random.default_rng(seed)
        pred = rng.uniform(0, 3, size=(t, n, n))
        obs = rng.uniform(0, 3, size=(t, n, n))
        return EvalSample(pred, obs)

    def config(self):
        return ReportConfig(thresholds=(0.5, 1.0), windows_km=(2.0, 10.0), pools=(4,),
                            res_km=2.0, bins=BinSet((0.5, 1.0)), lead_min=(60.0, 120.0))

    def test_repeats_are_idempotent(self):
        s = self.sample()
        r1 = build_report([s], self.config())
        r3 = build_report([s, s, s], self.config())
        for row1, row3 in zip(r1.rows, r3.rows):
            assert row1[:3] == row3[:3]
            if not (isinstance(row1[3], float) and math.isnan(row1[3])):
                assert row1[3] == pytest.approx(row3[3], rel=1e-12)

    def test_counts_add_over_disjoint_samples(self):
        a, b = self.sample(10), self.sample(11)
        ca = accumulate_confusion(a.pred[0], a.obs[0], 1.0)
        cb = accumulate_confusion(b.pred[0], b.obs[0], 1.0)
        joint = ca + cb
        report = build_report([a, b], self.config())
        assert report.value("csi", 1.0, 60.0) == pytest.approx(
            categorical_scores(joint)["csi"]
        )

    def test_perfect_forecast_rows(self):
        s = self.sample(12)
        report = build_report([EvalSample(s.obs, s.obs)], self.config())
        for th in (0.5, 1.0):
            for ld in (60.0, 120.0):
                assert report.value("csi", th, ld) == 1.0

    def test_csv_schema(self):
        report = build_report([self.sample()], self.config())
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "metric,threshold,lead_min,value"
        assert all(len(l.split(",")) == 4 for l in lines[1:])

    def test_crps_included_with_prob(self):
        rng = np.random.default_rng(13)
        bins = BinSet((0.5, 1.0))
        s = self.sample(14)
        prob = np.sort(rng.uniform(size=(2, 2, 16, 16)), axis=1)[:, ::-1]
        report = build_report([EvalSample(s.pred, s.obs, prob)], self.config())
        assert isinstance(report.value("crps", "all", 60.0), float)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            build_report([], self.config())

    def test_macro_skips_undefined(self):
        # no events anywhere at threshold 1.0 -> those cells are NaN and must
        # not drag the macro mean to 0
        pred = np.zeros((1, 8, 8))
        obs = np.zeros((1, 8, 8))
        pred[0, 0, 0] = obs[0, 0, 0] = 0.7
        cfg = ReportConfig(thresholds=(0.5, 1.0), windows_km=(2.0,), pools=(4,),
                           res_km=2.0, bins=None, lead_min=(60.0,))
        report = build_report([EvalSample(pred, obs)], cfg)
        assert report.value("csi", 0.5, 60.0) == 1.0
        assert math.isnan(report.value("csi", 1.0, 60.0))
        assert report.macro()["csi"] == 1.0

    def test_ssim_rows_are_running_means_of_each_field(self):
        """One stacked SSIM call per report: each lead's row is the mean, summed
        in sample order, of the fields scored one at a time; fields whose
        observation holds a sentinel are skipped, and a lead without any
        field has no row."""
        rng = np.random.default_rng(16)
        samples = []
        for j in range(5):
            obs = rng.uniform(0, 3, size=(3, 12, 12))
            obs[2, 5, 5] = SENTINEL  # lead 2 is never scored
            if j % 2:
                obs[1, 0, 0] = SENTINEL  # lead 1 is scored for every other sample
            samples.append(EvalSample(rng.uniform(0, 3, size=(3, 12, 12)), obs))
        cfg = ReportConfig(thresholds=(1.0,), windows_km=(2.0,), pools=(4,), res_km=2.0,
                           bins=None, lead_min=(60.0, 120.0, 180.0))
        report = build_report(samples, cfg)
        for t, lead in enumerate(cfg.lead_min[:2]):
            total, n = 0.0, 0
            for s in samples:
                if np.all(s.obs[t] != SENTINEL):
                    total += ssim(s.pred[t], s.obs[t])
                    n += 1
            assert report.value("ssim", "all", lead) == total / n
        with pytest.raises(KeyError):
            report.value("ssim", "all", 180.0)

    def test_rows_follow_sorted_thresholds_windows_and_pools(self):
        samples = [self.sample(17), self.sample(18)]
        ordered = ReportConfig(thresholds=(0.5, 1.0), windows_km=(2.0, 10.0), pools=(2, 4),
                               res_km=2.0, bins=None, lead_min=(60.0, 120.0))
        shuffled = ReportConfig(thresholds=(1.0, 0.5), windows_km=(10.0, 2.0), pools=(4, 2),
                                res_km=2.0, bins=None, lead_min=(60.0, 120.0))
        assert build_report(samples, shuffled).to_csv() == build_report(samples, ordered).to_csv()

    def test_samples_with_different_lead_counts_rejected(self):
        with pytest.raises(ValueError):
            build_report([self.sample(t=2), self.sample(t=1)], self.config())

    @pytest.mark.parametrize("n_samples", [1, 3])
    def test_rows_match_loop_oracles(self, n_samples):
        # sentinel holes in obs, a 12x16 field that the pools still divide,
        # and a 21-px window (40 km) wider than the field
        rng = np.random.default_rng(15)
        cfg = ReportConfig(thresholds=(0.5, 1.5), windows_km=(2.0, 6.0, 40.0), pools=(2, 4),
                           res_km=2.0, bins=None, lead_min=(60.0, 120.0))
        samples = []
        for _ in range(n_samples):
            obs = rng.uniform(0, 3, size=(2, 12, 16))
            obs[rng.uniform(size=obs.shape) < 0.15] = SENTINEL
            samples.append(EvalSample(rng.uniform(0, 3, size=(2, 12, 16)), obs))
        report = build_report(samples, cfg)
        assert fss_window_px(40.0, 2.0) > 16

        def same(got, want):
            return (math.isnan(got) and math.isnan(want)) or got == want

        for t, lead in enumerate(cfg.lead_min):
            preds = [s.pred[t] for s in samples]
            obss = [s.obs[t] for s in samples]
            # side by side, the samples' pixels and pool blocks add up exactly
            # as a report accumulates their counts
            wide_p, wide_o = np.concatenate(preds, axis=1), np.concatenate(obss, axis=1)
            for th in cfg.thresholds:
                tp, fp, fn, tn = confusion_loop(wide_p, wide_o, th)
                assert same(report.value("csi", th, lead), csi_loop(tp, fp, fn))
                assert same(report.value("fbi", th, lead), fbi_loop(tp, fp, fn))
                assert same(report.value("hss", th, lead), hss_loop(tp, fp, fn, tn))
                for pool in cfg.pools:
                    want = pooled_csi_loop(wide_p, wide_o, pool, th)
                    assert same(report.value(f"pooled_csi_p{pool}", th, lead), want)
                for w_km in cfg.windows_km:
                    window = fss_window_px(w_km, cfg.res_km)
                    events = [((p >= th) & (o != SENTINEL), (o >= th) & (o != SENTINEL))
                              for p, o in zip(preds, obss)]
                    if n_samples == 1:
                        want = fss_loop(*events[0], window)
                    else:
                        num, den = np.sum([fss_components_loop(pe, oe, window)
                                           for pe, oe in events], axis=0)
                        want = 1.0 - num / den
                    got = report.value(f"fss_{w_km:g}km", th, lead)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
