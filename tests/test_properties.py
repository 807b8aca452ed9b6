"""Property tests: invariants of the loss and reconstruction math checked on
generated shapes, sentinel holes and lead weights, and of the artifact codec
checked on generated arrays and damage."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from raincast import artifact
from raincast.intensity import BinSet, exceedance_masks
from raincast.probcast import (
    LeadWeights,
    bucket_probs_to_exceedance,
    lead_time_weights,
    ordinal_loss,
    reconstruct,
)
from raincast.raster import SENTINEL

from oracles import ordinal_loss_loop

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
