from unittest import mock

import numpy as np
import pytest

from raincast import baseline
from raincast.baseline import MotionField, advect, estimate_motion, estimate_motions, persistence
from raincast.raster import SENTINEL
from raincast.verify import accumulate_confusion, categorical_scores


def blob(h=32, w=32, cy=16.0, cx=16.0, r=3.0, amp=5.0):
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return amp * np.exp(-((ys - cy) ** 2 + (xs - cx) ** 2) / (2 * r * r))


class TestPersistence:
    def test_repeats_frame(self):
        f = blob()
        out = persistence(f, 4)
        assert out.shape == (4, 32, 32)
        for k in range(4):
            np.testing.assert_array_equal(out[k], f)

    def test_perfect_against_itself(self):
        f = blob()
        c = accumulate_confusion(persistence(f, 1)[0], f, 0.5)
        assert categorical_scores(c)["csi"] == 1.0

    def test_skill_decays_on_advected_scene(self):
        f0 = blob(cx=8.0)
        csis = []
        for k in (1, 6):
            truth = blob(cx=8.0 + 2.0 * k)
            c = accumulate_confusion(persistence(f0, 6)[k - 1], truth, 0.5)
            csis.append(categorical_scores(c)["csi"])
        assert csis[1] < csis[0]


class TestEstimateMotion:
    def test_recovers_integer_shift_exactly(self):
        f1 = blob(cy=14.0, cx=12.0)
        f2 = np.roll(np.roll(f1, -2, axis=0), 3, axis=1)  # shift by (vx=3, vy=-2)
        m = estimate_motion(np.stack([f1, f2]), search=6)
        assert (m.vx, m.vy) == (3.0, -2.0)
        assert not m.low_confidence

    def test_identical_frames(self):
        f = blob()
        m = estimate_motion(np.stack([f, f]))
        assert (m.vx, m.vy) == (0.0, 0.0)

    def test_noise_is_flagged_near_zero(self):
        rng = np.random.default_rng(0)
        f1 = rng.uniform(size=(32, 32))
        f2 = rng.uniform(size=(32, 32))
        m = estimate_motion(np.stack([f1, f2]), search=8)
        assert m.low_confidence
        assert abs(m.vx) <= 1.0 and abs(m.vy) <= 1.0

    def test_all_zero_frames_flagged(self):
        m = estimate_motion(np.zeros((2, 16, 16)))
        assert m.low_confidence and (m.vx, m.vy) == (0.0, 0.0)

    def test_shift_equivariance(self):
        f1 = blob(cy=16.0, cx=12.0, r=2.5)
        f2 = np.roll(f1, 2, axis=1)
        base = estimate_motion(np.stack([f1, f2]), search=5)
        s1 = np.roll(f1, 3, axis=0)
        s2 = np.roll(f2, 3, axis=0)
        moved = estimate_motion(np.stack([s1, s2]), search=5)
        assert (moved.vx, moved.vy) == (base.vx, base.vy)

    def test_sentinels_excluded_from_matching(self):
        f1 = blob(cy=14.0, cx=12.0)
        f2 = np.roll(f1, 2, axis=1)
        f2[:4, :4] = SENTINEL
        m = estimate_motion(np.stack([f1, f2]), search=4)
        assert (m.vx, m.vy) == (2.0, 0.0)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            estimate_motion(blob()[None])

    @pytest.mark.filterwarnings("error")
    def test_all_sentinel_stack_is_low_confidence(self):
        m = estimate_motion(np.full((3, 8, 8), SENTINEL))
        assert (m.vx, m.vy, m.low_confidence) == (0.0, 0.0, True)

    @pytest.mark.filterwarnings("error")
    def test_missing_middle_frame_is_low_confidence(self):
        frames = np.stack([blob(cx=12.0), np.full((32, 32), SENTINEL), blob(cx=16.0)])
        m = estimate_motion(frames, search=6)
        assert (m.vx, m.vy, m.low_confidence) == (0.0, 0.0, True)


class TestEstimateMotions:
    def frames(self, n=7):
        return np.stack([blob(cy=14.0 + 0.5 * k, cx=8.0 + 2.0 * k) for k in range(n)])

    def test_each_distinct_pair_is_matched_once(self):
        frames = self.frames()
        calls = []

        def spy(f_prev, f_next, search):
            # which pair: the offset of the earlier frame inside the stack
            calls.append((f_prev.ctypes.data - frames.ctypes.data) // frames[0].nbytes)
            return real(f_prev, f_next, search)

        real = baseline._pair_motion
        ends = [3, 4, 3, 6, 5, 4]  # overlapping, repeated and out of order
        with mock.patch.object(baseline, "_pair_motion", spy):
            motions = estimate_motions(frames, ends, 3, search=6)
        assert sorted(calls) == [1, 2, 3, 4, 5]
        assert len(motions) == len(ends)
        assert motions[0] == motions[2] and motions[1] == motions[5]

    def test_recovers_the_scene_motion(self):
        for m in estimate_motions(self.frames(), [2, 5], 3, search=6):
            assert (round(m.vx), round(m.vy)) == (2, 0) and not m.low_confidence

    @pytest.mark.parametrize("ends,t_in", [([1], 3), ([7], 3), ([-1], 2), ([4], 1)])
    def test_window_outside_the_frames_or_too_short_rejected(self, ends, t_in):
        with pytest.raises(ValueError):
            estimate_motions(self.frames(), ends, t_in)


class TestAdvect:
    def test_integer_shift_is_exact(self):
        f = blob(cy=16.0, cx=10.0, r=2.0)
        out = advect(f, MotionField(2.0, 0.0), 3)
        for k in (1, 2, 3):
            expect = np.roll(f, 2 * k, axis=1)
            interior = np.s_[:, 2 * k :]
            np.testing.assert_allclose(out[k - 1][interior], expect[interior], atol=1e-12)

    def test_zero_motion_is_persistence_bit_identical(self):
        f = blob()
        f[3, 3] = SENTINEL
        np.testing.assert_array_equal(advect(f, MotionField(0.0, 0.0), 4), persistence(f, 4))

    def test_out_of_domain_becomes_sentinel(self):
        f = blob()
        out = advect(f, MotionField(5.0, 0.0), 1)
        assert np.all(out[0][:, :5] == SENTINEL)

    def test_sentinel_source_propagates(self):
        f = blob()
        f[10, 10] = SENTINEL
        out = advect(f, MotionField(1.0, 0.0), 1)
        assert out[0, 10, 11] == SENTINEL

    def test_mass_conservation_for_interior_blob(self):
        f = blob(cy=16.0, cx=12.0, r=2.0)
        total0 = f.sum()
        out = advect(f, MotionField(1.3, 0.7), 4)
        for k in range(4):
            frame = out[k]
            frame = np.where(frame == SENTINEL, 0.0, frame)
            assert frame.sum() == pytest.approx(total0, rel=1e-6)

    def test_multi_step_equals_scaled_single_step(self):
        f = blob(cy=16.0, cx=14.0, r=3.0)
        v = MotionField(2.0, -1.0)
        direct = advect(f, MotionField(3 * v.vx, 3 * v.vy), 1)[0]
        assert np.allclose(advect(f, v, 3)[2], direct, atol=1e-9)
        # iterated fractional advection on a bilinear-exact (linear) field
        ramp = np.add.outer(np.arange(16.0), 2 * np.arange(16.0))
        vf = MotionField(0.5, 0.25)
        step1 = advect(ramp, vf, 1)[0]
        step1 = np.where(step1 == SENTINEL, 0.0, step1)
        twice = advect(step1, vf, 1)[0]
        direct2 = advect(ramp, MotionField(1.0, 0.5), 1)[0]
        interior = np.s_[2:, 2:]
        np.testing.assert_allclose(twice[interior], direct2[interior], atol=1e-9)
