import numpy as np
import pytest

from raincast.raster import SENTINEL
from raincast.synthdata import (
    MIN_PER_DAY,
    MIN_PER_HOUR,
    SceneConfig,
    gen_sequence,
    make_splits,
)


class TestGenSequence:
    def test_peak_tracks_velocity(self):
        cfg = SceneConfig(h=32, w=32, n_cells=1, amp_range=(5.0, 5.0),
                          radius_range=(3.0, 3.0), velocity=(1.0, 0.0),
                          noise_sigma=0.0, seed=4)
        frames = gen_sequence(cfg, 6)
        cols = [np.unravel_index(np.argmax(f), f.shape)[1] for f in frames]
        assert np.all(np.diff(cols) == 1)

    def test_pure_advection_is_exact_shift(self):
        cfg = SceneConfig(h=48, w=48, n_cells=2, amp_range=(2.0, 6.0),
                          radius_range=(2.0, 4.0), velocity=(2.0, 1.0),
                          noise_sigma=0.0, drift_rate=0.0, seed=11)
        frames = gen_sequence(cfg, 2)
        # compare on the interior, away from any wrap seam
        core = np.s_[6:-6, 6:-6]
        shifted = np.roll(np.roll(frames[0], 1, axis=0), 2, axis=1)
        np.testing.assert_allclose(frames[1][core], shifted[core], atol=1e-9)

    def test_same_seed_identical(self):
        cfg = SceneConfig(seed=9, noise_sigma=0.3, hole_prob=0.2)
        np.testing.assert_array_equal(gen_sequence(cfg, 8), gen_sequence(cfg, 8))

    def test_holes_are_sentinel(self):
        cfg = SceneConfig(seed=2, hole_prob=1.0, hole_radius=3.0)
        frames = gen_sequence(cfg, 3)
        assert np.all(np.any(frames == SENTINEL, axis=(1, 2)))

    def test_rates_clipped_to_cap(self):
        cfg = SceneConfig(n_cells=8, amp_range=(50.0, 60.0), radius_range=(8.0, 10.0), seed=3)
        frames = gen_sequence(cfg, 2)
        assert frames.max() <= cfg.rate_cap

    def test_total_mass_continuous_in_drift(self):
        base = SceneConfig(seed=5, noise_sigma=0.0)
        masses = []
        for drift in (0.0, 1e-4, 2e-4):
            cfg = SceneConfig(**{**base.__dict__, "drift_rate": drift})
            masses.append(gen_sequence(cfg, 5).sum())
        assert abs(masses[1] - masses[0]) < 0.01 * masses[0]
        assert abs(masses[2] - masses[1]) < 0.01 * masses[0]


class TestMakeSplits:
    def hourly(self, days):
        return np.arange(0.0, days * MIN_PER_DAY, MIN_PER_HOUR)

    def test_calendar_walk_oracle(self):
        ts = self.hourly(32)
        got = make_splits(ts)
        cycle = 16 * MIN_PER_DAY
        bo = 12 * MIN_PER_HOUR
        for t, label in zip(got.timestamps_min, got.labels):
            pos = t % cycle
            if t >= cycle and pos < bo:
                want = "blackout"
            elif pos < 12 * MIN_PER_DAY:
                want = "train"
            elif pos < 12 * MIN_PER_DAY + bo:
                want = "blackout"
            elif pos < 14 * MIN_PER_DAY:
                want = "val"
            elif pos < 14 * MIN_PER_DAY + bo:
                want = "blackout"
            else:
                want = "test"
            assert label == want, f"t={t}"

    def test_zero_blackout_is_contiguous(self):
        got = make_splits(self.hourly(16), blackout_h=0.0)
        labels = np.asarray(got.labels)
        assert np.sum(labels == "train") == 12 * 24
        assert np.sum(labels == "val") == 2 * 24
        assert np.sum(labels == "test") == 2 * 24
        assert "blackout" not in labels

    def test_no_eval_timestamp_near_training(self):
        got = make_splits(self.hourly(60))
        train = got.of("train")
        for split in ("val", "test"):
            other = got.of(split)
            if len(other) and len(train):
                gaps = np.abs(train[None, :] - other[:, None]).min()
                assert gaps >= 12 * MIN_PER_HOUR

    def test_labels_tile_the_timeline(self):
        got = make_splits(self.hourly(40))
        assert len(got.labels) == len(got.timestamps_min)
        assert set(got.labels) <= {"train", "val", "test", "blackout"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_splits([])
