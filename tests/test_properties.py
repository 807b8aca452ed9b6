"""Property tests: invariants of the loss and reconstruction math checked on
generated shapes, sentinel holes and lead weights; the tape convolutions, the
motion search, the space-to-depth rearrangement, the calibration CSI curve and
SSIM against their loop oracles; windowed motion estimates against one
window at a time, all-lead advection against the per-lead loop and stacked
SSIM against one field at a time; an input-only backward sweep against a full
one; the artifact codec on generated arrays and damage; and the CLI on
mutated configs, stage orders and damaged artifacts."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from raincast import artifact, baseline
from raincast.autodiff import Tape, _sigmoid
from raincast.cli import main
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
from raincast.verify import ssim

from oracles import (
    advect_loop,
    conv3x3_loop,
    csi_curve_loop,
    msd_surface_loop,
    ordinal_loss_loop,
    sigmoid_loop,
    space_to_depth_loop,
    ssim_loop,
)
from test_pipeline_cli import BASE_CONFIG

SETTINGS = settings(max_examples=60, deadline=None)

dims = st.integers(1, 4)
unit = st.floats(0.0, 1.0)


@st.composite
def ordinal_cases(draw):
    t, k, h, w = draw(dims), draw(dims), draw(dims), draw(dims)
    steps = draw(arrays(np.float64, k, elements=st.floats(0.1, 3.0)))
    bins = BinSet(tuple(np.cumsum(steps).tolist()))  # config fields take Python floats
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


def exact_decision(frames, search):
    """The motion decision read from the whole exact surface."""
    surface = baseline._msd_rows(frames[0], frames[1], search, range(2 * search + 1))
    return baseline._decide(surface, search)


class TestMotionSearch:
    @SETTINGS
    @given(frame_pairs())
    def test_surface_matches_shift_loop(self, case):
        frames, search = case
        got = baseline._msd_rows(frames[0], frames[1], search, range(2 * search + 1))
        want = msd_surface_loop(frames[0], frames[1], search)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)

    @SETTINGS
    @given(frame_pairs())
    def test_motion_matches_motion_from_loop_surface(self, case):
        frames, search = case
        got = baseline.estimate_motion(frames, search)
        assert (got.vx, got.vy, got.low_confidence) == exact_decision(frames, search)

    @SETTINGS
    @given(frame_pairs())
    def test_estimate_bound_holds_candidates_cover_the_minimum(self, case):
        frames, search = case
        exact = baseline._msd_rows(frames[0], frames[1], search, range(2 * search + 1))
        est, bound = baseline._msd_estimate(frames[0], frames[1], search)
        # the rounded FFT count is zero exactly where no valid pixels overlap
        assert np.array_equal(np.isinf(est), np.isinf(exact))
        finite = np.isfinite(exact)
        assert np.all(np.abs(est[finite] - exact[finite]) <= bound[finite])
        cand = baseline._candidates(est, bound)
        assert np.all(cand[exact == exact.min()])
        assert np.all(exact[~cand] > exact.min())

    @SETTINGS
    @given(frame_pairs(), st.sampled_from([1e-9, 1e-3, 0.3, 10.0]), st.integers(0, 2**32 - 1))
    def test_any_estimate_within_its_bound_gives_the_exact_decision(self, case, scale, seed):
        """An adversarial estimate anywhere inside a loose bound: the exact rows
        and, near the flatness boundary, the exact fallback recover the decision."""
        frames, search = case
        exact = baseline._msd_rows(frames[0], frames[1], search, range(2 * search + 1))
        finite = np.isfinite(exact)
        bound = np.where(finite, scale * (1.0 + np.abs(np.where(finite, exact, 0.0))), 0.0)
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=exact.shape)
        est = np.where(finite, exact + 0.5 * bound * noise, np.inf)
        with mock.patch.object(baseline, "_msd_estimate", lambda *a: (est.copy(), bound)):
            got = baseline.estimate_motion(frames, search)
        assert (got.vx, got.vy, got.low_confidence) == exact_decision(frames, search)

    def test_flat_boundary_falls_back_to_the_exact_surface(self):
        """A bound wider than the gap to the flatness boundary recomputes every
        row, even where no candidate asks for it."""
        ys, xs = np.mgrid[0:16, 0:16]
        frames = np.stack([5.0 * np.exp(-((ys - 8) ** 2 + (xs - 7 - k) ** 2) / 8.0) for k in (0, 1)])
        search = 4
        exact = baseline._msd_rows(frames[0], frames[1], search, range(2 * search + 1))
        # a valid estimate whose one loose cell, in row 0, is no candidate
        est, bound = exact.copy(), np.zeros_like(exact)
        est[0, 0] += 1e6
        bound[0, 0] = 1e6
        calls = []
        rows = baseline._msd_rows

        def spy(f_prev, f_next, s, r):
            calls.append(list(r))
            return rows(f_prev, f_next, s, r)

        with mock.patch.object(baseline, "_msd_estimate", lambda *a: (est.copy(), bound)), \
                mock.patch.object(baseline, "_msd_rows", spy):
            got = baseline.estimate_motion(frames, search)
        assert calls == [[search - 1, search, search + 1], list(range(2 * search + 1))]
        assert (got.vx, got.vy, got.low_confidence) == exact_decision(frames, search)


@st.composite
def conv_cases(draw):
    """x (B,C,H,W), a 3x3 kernel w (O,C,3,3), b (O) and an upstream gradient
    g (B,O,H,W); H and W are drawn apart, so fields may be 1x1 or non-square."""
    b, c, o = draw(st.integers(1, 3)), draw(dims), draw(dims)
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.normal(size=(b, c, h, w)), rng.normal(size=(o, c, 3, 3)),
            rng.normal(size=o), rng.normal(size=(b, o, h, w)))


def tape_conv(op, x, w, b, g):
    """Forward value and (w, b, x) gradients of sum(g * op(x, w, b)) on a tape."""
    tape = Tape()
    xl, wl, bl = tape.leaf(x), tape.leaf(w), tape.leaf(b)
    y = op(tape, xl, wl, bl)
    tape.backward(tape.weighted_sum(y, g))
    return y.value, wl.grad, bl.grad, xl.grad


@st.composite
def frame_stacks(draw):
    """Three to seven frames of noise with sentinel holes, a moving blob, all
    zeros or a blob with whole frames missing; a window length; and window
    ends that overlap, leave gaps and repeat, in any order."""
    n, h, w = draw(st.integers(3, 7)), draw(st.integers(2, 10)), draw(st.integers(2, 10))
    search = draw(st.integers(1, max(h, w) + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["holes", "blob", "zeros", "missing"]))
    if kind == "zeros":
        frames = np.zeros((n, h, w))
    elif kind == "holes":
        frames = rng.uniform(0, 5, size=(n, h, w))
        frames[rng.uniform(size=frames.shape) < rng.uniform(0.1, 0.9)] = SENTINEL
    else:
        ys, xs = np.mgrid[0:h, 0:w]
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        dy, dx = rng.uniform(-2, 2, size=2)
        frames = np.stack([5.0 * np.exp(-((ys - cy - k * dy) ** 2 + (xs - cx - k * dx) ** 2) / 8.0)
                           for k in range(n)])
        if kind == "missing":
            frames[rng.uniform(size=n) < 0.4] = SENTINEL
    t_in = draw(st.integers(2, n))
    ends = draw(st.lists(st.integers(t_in - 1, n - 1), min_size=1, max_size=6))
    return frames, ends, t_in, search


class TestMotionWindows:
    @SETTINGS
    @given(frame_stacks())
    def test_equals_one_window_at_a_time(self, case):
        """Each window's motion is the mean of its pairs' estimates, and is low
        confidence when every pair is flat, whether the window is estimated
        alone or among others."""
        frames, ends, t_in, search = case
        got = [(m.vx, m.vy, m.low_confidence)
               for m in baseline.estimate_motions(frames, ends, t_in, search)]
        alone = [baseline.estimate_motion(frames[e - t_in + 1 : e + 1], search) for e in ends]
        assert got == [(m.vx, m.vy, m.low_confidence) for m in alone]
        pairs = [[baseline._pair_motion(frames[i], frames[i + 1], search)
                  for i in range(e - t_in + 1, e)] for e in ends]
        assert got == [(float(np.mean([p[0] for p in ps])), float(np.mean([p[1] for p in ps])),
                        all(p[2] for p in ps)) for ps in pairs]


class TestAdvect:
    @SETTINGS
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 5),
           st.sampled_from(["plain", "holes", "missing"]),
           st.one_of(st.floats(-3.0, 3.0), st.integers(-15, 15).map(float)),
           st.one_of(st.floats(-3.0, 3.0), st.integers(-15, 15).map(float)),
           st.integers(0, 2**32 - 1))
    def test_equals_the_per_lead_loop(self, h, w, t_out, kind, vx, vy, seed):
        """Fractional, negative and out-of-domain motions, on frames with
        sentinel holes or none valid at all."""
        rng = np.random.default_rng(seed)
        frame = rng.uniform(0, 5, size=(h, w))
        if kind == "holes":
            frame[rng.uniform(size=frame.shape) < 0.2] = SENTINEL
        elif kind == "missing":
            frame[:] = SENTINEL
        motion = baseline.MotionField(vx, vy)
        assert np.array_equal(baseline.advect(frame, motion, t_out), advect_loop(frame, motion, t_out))


class TestConvolutions:
    @SETTINGS
    @given(conv_cases())
    def test_conv3x3_matches_loop(self, case):
        got = tape_conv(Tape.conv3x3, *case)
        for name, a, want in zip(("y", "gw", "gb", "gx"), got, conv3x3_loop(*case)):
            np.testing.assert_allclose(a, want, rtol=0, atol=1e-12, err_msg=name)

    @SETTINGS
    @given(conv_cases())
    def test_conv1x1_matches_centre_tap_loop(self, case):
        # a 1x1 kernel is a 3x3 kernel that is zero off its centre tap
        x, w3, b, g = case
        w = w3[:, :, 1, 1].copy()
        w3 = np.zeros_like(w3)
        w3[:, :, 1, 1] = w
        y, gw, gb, gx = tape_conv(Tape.conv1x1, x, w, b, g)
        want_y, want_gw, want_gb, want_gx = conv3x3_loop(x, w3, b, g)
        for name, a, want in (("y", y, want_y), ("gw", gw, want_gw[:, :, 1, 1]),
                              ("gb", gb, want_gb), ("gx", gx, want_gx)):
            np.testing.assert_allclose(a, want, rtol=0, atol=1e-12, err_msg=name)


@st.composite
def op_chains(draw):
    """An input x (B,C,H,W) and 1-6 ops drawn from conv3x3, conv1x1, silu and
    add; each conv brings its own weight and bias leaves, and an add joins the
    current tensor with an earlier one of its shape (itself included) or with
    a new leaf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 2)), draw(dims), draw(dims), draw(dims))
    ops = []
    c = shape[1]
    for op in draw(st.lists(st.sampled_from(["conv3x3", "conv1x1", "silu", "add", "add_leaf"]),
                            min_size=1, max_size=6)):
        if op.startswith("conv"):
            o = draw(dims)
            k = (o, c, 3, 3) if op == "conv3x3" else (o, c)
            ops.append((op, rng.normal(size=k), rng.normal(size=o)))
            c = o
        else:
            ops.append((op, draw(st.integers(0, 10)), None))
    return rng.normal(size=shape), ops, rng


def record_chain(x, ops, rng):
    """Record the chain on a tape; return the tape, the scalar root, the input
    leaf and every other leaf."""
    tape = Tape()
    xl = tape.leaf(x)
    params, seen, h = [], [xl], xl
    for op, a, b in ops:
        if op == "silu":
            h = tape.silu(h)
        elif op == "add":
            same = [t for t in seen if t.shape == h.shape]
            h = tape.add(h, same[a % len(same)])
        elif op == "add_leaf":
            params.append(tape.leaf(rng.normal(size=h.shape)))
            h = tape.add(h, params[-1])
        else:
            wl, bl = tape.leaf(a), tape.leaf(b)
            params += [wl, bl]
            h = getattr(tape, op)(h, wl, bl)
        seen.append(h)
    root = tape.weighted_sum(h, rng.normal(size=h.shape))
    return tape, root, xl, params


class TestSigmoid:
    @SETTINGS
    @given(arrays(np.float64, st.integers(0, 20), elements=st.floats(allow_nan=False)
                  | st.sampled_from([0.0, -0.0, 700.0, -700.0, 710.0, -710.0])))
    def test_bits_equal_the_loop(self, v):
        assert _sigmoid(v).tobytes() == sigmoid_loop(v).tobytes()


class TestInputOnlySweep:
    @SETTINGS
    @given(op_chains())
    def test_input_gradient_equals_full_sweep_and_parameters_get_none(self, case):
        tape, root, xl, params = record_chain(*case)
        tape.backward(root)
        full = xl.grad.copy()
        assert all(p.grad is not None for p in params)
        tape.backward(root, wrt=[xl])
        assert np.array_equal(xl.grad, full)
        assert all(p.grad is None for p in params)
        # a later full sweep on the same tape takes every gradient again
        tape.backward(root)
        assert np.array_equal(xl.grad, full)
        assert all(p.grad is not None for p in params)


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


def rain_field(rng, kind, shape):
    """Uniform rain, sparse rain (about nine pixels in ten dry) or one constant."""
    if kind == "constant":
        return np.full(shape, rng.uniform(0, 10))
    field = rng.uniform(0, 10, size=shape)
    return field * (rng.uniform(size=shape) < 0.1) if kind == "sparse" else field


class TestSsim:
    """``ssim`` against the window-by-window loop.  Near-constant fields (a
    range of about 1e-4 around 3) are left out.  Their variances cancel
    catastrophically in every form, so a 2-D window and the separable filter
    alike miss the loop by 1e-6 to 3e-6 there."""

    @SETTINGS
    @given(st.integers(11, 24), st.integers(11, 24), st.sampled_from(["uniform", "sparse"]),
           st.sampled_from(["uniform", "sparse", "constant"]), st.integers(0, 2**32 - 1))
    def test_matches_window_loop(self, h, w, pred_kind, obs_kind, seed):
        rng = np.random.default_rng(seed)
        pred, obs = rain_field(rng, pred_kind, (h, w)), rain_field(rng, obs_kind, (h, w))
        assert abs(ssim(pred, obs) - ssim_loop(pred, obs)) <= 1e-12

    @SETTINGS
    @given(st.integers(11, 16), st.integers(11, 16), st.lists(st.integers(1, 3), max_size=2),
           st.integers(0, 2**32 - 1))
    def test_stack_equals_each_field_bit_for_bit(self, h, w, stack_shape, seed):
        rng = np.random.default_rng(seed)
        kinds = ["uniform", "sparse", "constant"]
        shape = (*stack_shape, h, w)
        n = int(np.prod(stack_shape))
        pred = np.stack([rain_field(rng, kinds[i % 3], (h, w)) for i in range(n)]).reshape(shape)
        obs = np.stack([rain_field(rng, kinds[(i + 1) % 3], (h, w)) for i in range(n)]).reshape(shape)
        got = ssim(pred, obs)
        if not stack_shape:
            assert isinstance(got, float)
            return
        assert got.shape == tuple(stack_shape)
        for idx in np.ndindex(*stack_shape):
            assert got[idx] == ssim(pred[idx], obs[idx])


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


# The CLI fuzz gate: mutated configs, an optional --seed (negative ones too),
# stages in any order and damaged artifacts must end in a documented exit code
# with one line on stderr, never a traceback.
# The base is the CLI tests' config trained for two steps; dropping model.steps
# is left out only because its 2000-step default is slow, not wrong.

FUZZ_CONFIG = copy.deepcopy(BASE_CONFIG)
FUZZ_CONFIG["model"]["steps"] = 2
STAGE_ARGS = [["gen"], ["split"], ["train"], ["calibrate"],
              *(["predict", "--model", m] for m in ("micromodel", "persistence", "advection")),
              *(["eval", "--model", m] for m in ("micromodel", "persistence", "advection")),
              ["attribute", "--steps", "2"], ["report"]]
MUTATIONS = ["sign", "zero", "nan", "type", "drop"]


def leaf_paths(node, prefix=()):
    """Paths to every value below the root: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, prefix + (key,))


def holds(node, key) -> bool:
    return (isinstance(node, dict) and key in node) or (
        isinstance(node, list) and isinstance(key, int) and key < len(node))


def mutate(doc, path, kind):
    """Apply one mutation at ``path`` in place; a path an earlier mutation
    removed is skipped."""
    parent = doc
    for key in path[:-1]:
        if not holds(parent, key):
            return
        parent = parent[key]
    key = path[-1]
    if not holds(parent, key):
        return
    value = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "sign":
        parent[key] = -value if isinstance(value, (int, float)) else value
    elif kind == "zero":
        parent[key] = 0
    elif kind == "nan":
        parent[key] = float("nan")
    else:
        parent[key] = {str: 1, list: "x", dict: []}.get(type(value), str(value))


FUZZ_PATHS = [p for p in leaf_paths(FUZZ_CONFIG) if p != ("model", "steps")]
config_mutations = st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), st.sampled_from(MUTATIONS)),
                            max_size=3)


def damage(path: Path, data) -> None:
    """Truncate, flip a byte of, delete or rewrite one artifact file; a JSON
    header may instead get one field mutated as the config is."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "delete", "rewrite", "field"]), label="damage")
    raw = path.read_bytes()
    if kind == "field" and path.suffix == ".json":
        try:
            header = json.loads(raw)
        except ValueError:  # damaged already
            return
        paths = list(leaf_paths(header)) if isinstance(header, dict) else []
        if paths:
            mutate(header, data.draw(st.sampled_from(paths), label="field"),
                   data.draw(st.sampled_from(MUTATIONS), label="mutation"))
            path.write_text(json.dumps(header))
    elif kind == "delete":
        path.unlink()
    elif kind == "rewrite":
        path.write_text(data.draw(st.sampled_from(["", "[]", "{}", "null", "1", '"x"']), label="text"))
    elif kind == "flip" and raw:
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        path.write_bytes(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:])
    else:
        path.write_bytes(raw[: data.draw(st.integers(0, max(len(raw) - 1, 0)), label="keep")])


class TestCliFuzz:
    @settings(max_examples=20, deadline=None)
    @given(config_mutations, st.integers(0, len(STAGE_ARGS)), st.data())
    def test_exit_code_is_documented_and_error_is_one_line(self, mutations, prefix, data):
        doc = copy.deepcopy(FUZZ_CONFIG)
        for path, kind in mutations:
            mutate(doc, path, kind)
        extra = data.draw(st.lists(st.sampled_from(STAGE_ARGS), max_size=4), label="extra stages")
        seed = data.draw(st.none() | st.integers(-3, 3), label="--seed")
        seed_args = [] if seed is None else ["--seed", str(seed)]
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.json", Path(tmp) / "out"
            cfg.write_text(json.dumps(doc))
            for args in STAGE_ARGS[:prefix] + extra:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([*args, "--config", str(cfg), "--out", str(out), *seed_args])
                assert code in (0, 2, 3, 4), (args, code)
                lines = err.getvalue().splitlines()
                assert len(lines) == (code != 0), (args, lines)
                files = sorted(out.iterdir()) if out.is_dir() else []
                if files and data.draw(st.booleans(), label="damage?"):
                    damage(data.draw(st.sampled_from(files), label="file"), data)
