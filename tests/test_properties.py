"""Property tests: invariants of the loss and reconstruction math checked on
generated shapes, sentinel holes and lead weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
