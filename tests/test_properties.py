"""Property tests: invariants of the loss and reconstruction math checked on
generated shapes, sentinel holes and lead weights; the motion search, the
space-to-depth rearrangement and the calibration CSI curve against their
loop oracles; and the artifact codec on generated arrays and damage."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from raincast import artifact, baseline
from raincast.intensity import BinSet, exceedance_masks
from raincast.probcast import (
    DEFAULT_CANDIDATES,
    LeadWeights,
    _csi_curve,
    bucket_probs_to_exceedance,
    lead_time_weights,
    ordinal_loss,
    reconstruct,
)
from raincast.raster import SENTINEL, depth_to_space_array, space_to_depth_array

from oracles import csi_curve_loop, msd_surface_loop, ordinal_loss_loop, space_to_depth_loop

SETTINGS = settings(max_examples=60, deadline=None)

dims = st.integers(1, 4)
unit = st.floats(0.0, 1.0)


@st.composite
def ordinal_cases(draw):
    t, k, h, w = draw(dims), draw(dims), draw(dims), draw(dims)
    steps = draw(arrays(np.float64, k, elements=st.floats(0.1, 3.0)))
    bins = BinSet(tuple(np.cumsum(steps)))
    rates = draw(arrays(np.float64, (t, h, w), elements=st.floats(0.0, 12.0)))
    holes = draw(arrays(np.bool_, (t, h, w)))
    rates[holes] = SENTINEL
    q = draw(arrays(np.float64, (t, k, h, w), elements=unit))
    if draw(st.booleans()):
        weights = lead_time_weights(draw(st.floats(1.0, 50.0)), t)
    else:
        weights = LeadWeights(draw(arrays(np.float64, t, elements=st.floats(0.0, 4.0))), 1.0)
    return q, rates, bins, weights


class TestOrdinalLossProperties:
    @SETTINGS
    @given(ordinal_cases())
    def test_matches_element_loop(self, case):
        q, rates, bins, weights = case
        got = ordinal_loss(q, exceedance_masks(rates, bins), weights)
        want, n = ordinal_loss_loop(q, rates, bins.edges, weights.w)
        assert got.count == n
        assert got.value == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestMonotoneReconstruction:
    @SETTINGS
    @given(st.tuples(dims, dims, dims, dims).flatmap(
        lambda shape: arrays(np.float64, shape, elements=unit)))
    def test_reconstruct_nonincreasing_across_classes(self, cond):
        p = reconstruct(cond)
        assert np.all(np.diff(p, axis=-3) <= 0)
        assert np.all((p >= 0) & (p <= 1))

    @SETTINGS
    @given(st.tuples(dims, st.integers(2, 5), dims, dims).flatmap(
        lambda shape: arrays(np.float64, shape, elements=unit)))
    def test_tail_sums_nonincreasing_across_classes(self, probs):
        p = bucket_probs_to_exceedance(probs)
        assert p.shape[-3] == probs.shape[-3] - 1
        assert np.all(np.diff(p, axis=-3) <= 0)


@st.composite
def frame_pairs(draw):
    """Two frames of pure noise, noise with sentinel holes, all zeros (every
    shift ties) or a moving blob, and a search radius up to past the frame."""
    h, w = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    search = draw(st.integers(1, max(h, w) + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "holes", "zeros", "blob"]))
    if kind == "zeros":
        return np.zeros((2, h, w)), search
    if kind == "blob":
        ys, xs = np.mgrid[0:h, 0:w]
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        dy, dx = rng.uniform(-2, 2, size=2)
        frames = np.stack([np.exp(-((ys - cy - k * dy) ** 2 + (xs - cx - k * dx) ** 2) / 8.0)
                           for k in (0, 1)])
        return 5.0 * frames, search
    frames = rng.uniform(0, 5, size=(2, h, w))
    if kind == "holes":
        frames[rng.uniform(size=frames.shape) < rng.uniform(0.1, 0.9)] = SENTINEL
    return frames, search


class TestMotionSearch:
    @SETTINGS
    @given(frame_pairs())
    def test_surface_matches_shift_loop(self, case):
        frames, search = case
        got = baseline._msd_surface(frames[0], frames[1], search)
        want = msd_surface_loop(frames[0], frames[1], search)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)

    @SETTINGS
    @given(frame_pairs())
    def test_motion_matches_motion_from_loop_surface(self, case):
        frames, search = case
        # with no valid pixel pair at any shift there is nothing to estimate
        assume(not np.isinf(msd_surface_loop(frames[0], frames[1], search)).all())
        got = baseline.estimate_motion(frames, search)
        with mock.patch.object(baseline, "_msd_surface", msd_surface_loop):
            want = baseline.estimate_motion(frames, search)
        assert got.vx == pytest.approx(want.vx, rel=1e-12, abs=1e-12)
        assert got.vy == pytest.approx(want.vy, rel=1e-12, abs=1e-12)
        assert got.low_confidence == want.low_confidence


class TestSpaceToDepth:
    @SETTINGS
    @given(st.integers(1, 3), st.tuples(dims, dims, dims, dims))
    def test_matches_loop_and_round_trips(self, block, shape):
        t, c, h, w = shape
        x = np.random.default_rng(sum(shape)).normal(size=(t, c, h * block, w * block))
        packed = space_to_depth_array(x, block)
        np.testing.assert_array_equal(packed, space_to_depth_loop(x, block))
        np.testing.assert_array_equal(depth_to_space_array(packed, block), x)


probs = st.floats(0.0, 1.0) | st.sampled_from(DEFAULT_CANDIDATES.tolist())


class TestCsiCurve:
    @SETTINGS
    @given(st.lists(probs, min_size=1, max_size=40), st.data())
    def test_matches_pixel_loop(self, p, data):
        # probabilities drawn from the candidates too, so some sit exactly on one
        events = np.array(data.draw(st.lists(st.booleans(), min_size=len(p), max_size=len(p))))
        cand = np.unique(data.draw(st.lists(probs.filter(lambda v: 0 < v < 1), min_size=1,
                                            max_size=8)))
        got = _csi_curve(np.array(p), events, cand)
        np.testing.assert_array_equal(got, csi_curve_loop(p, events, cand))


def f32_arrays(min_side=0):
    shapes = st.lists(st.integers(min_side, 4), max_size=3).map(tuple)
    return shapes.flatmap(lambda shape: arrays(
        np.float32, shape, elements=st.floats(width=32, allow_nan=False)))


class TestArtifactCodec:
    @SETTINGS
    @given(st.lists(f32_arrays(), max_size=4), st.dictionaries(
        st.sampled_from(["config_hash", "kind", "step"]), st.integers() | st.text()))
    def test_round_trip_is_bit_exact(self, blobs, fields):
        with tempfile.TemporaryDirectory() as tmp:
            artifact.write(Path(tmp) / "a", fields, blobs)
            header, back = artifact.read(Path(tmp) / "a")
        assert {k: header[k] for k in fields} == fields
        assert len(back) == len(blobs)
        for got, want in zip(back, blobs):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.astype(np.float32).tobytes() == want.tobytes()

    @SETTINGS
    @given(st.lists(f32_arrays(min_side=1), min_size=1, max_size=3), st.data())
    def test_truncation_or_changed_byte_is_damage(self, blobs, data):
        with tempfile.TemporaryDirectory() as tmp:
            artifact.write(Path(tmp) / "a", {}, blobs)
            payload = Path(tmp) / "a.f32"
            raw = bytearray(payload.read_bytes())
            if data.draw(st.booleans(), label="truncate"):
                raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="keep")]
            else:
                raw[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
                    st.integers(1, 255), label="xor")
            payload.write_bytes(bytes(raw))
            with pytest.raises(artifact.DamagedArtifactError):
                artifact.read(Path(tmp) / "a")
