import numpy as np
import pytest

from raincast.intensity import (
    BinSet,
    bucket_representative,
    bucket_representatives,
    classify,
    clip_dbz,
    dbz_to_rate,
    exceedance_masks,
    rate_to_dbz,
)
from raincast.raster import SENTINEL

EUROPE = BinSet.preset("europe")


class TestDbzConversion:
    def test_one_mm_per_hour(self):
        # Z = 200 * 1^1.6 -> 10*log10(200)
        assert rate_to_dbz(1.0) == pytest.approx(10.0 * np.log10(200.0), rel=1e-12)
        assert dbz_to_rate(10.0 * np.log10(200.0)) == pytest.approx(1.0, rel=1e-12)

    def test_max_dbz(self):
        r = float(dbz_to_rate(64.0))
        assert r == pytest.approx(364.7, abs=0.1)
        assert rate_to_dbz(r) == pytest.approx(64.0, rel=1e-12)

    def test_sentinel_passthrough(self):
        vals = np.array([10.0, 30.0])
        missing = np.array([False, True])
        out = dbz_to_rate(vals, missing=missing)
        assert out[1] == SENTINEL
        assert clip_dbz(np.array([70.0, -5.0]), missing=missing)[1] == SENTINEL

    def test_round_trip_inside_clip_range(self):
        rng = np.random.default_rng(0)
        dbz = rng.uniform(-0.9, 63.9, size=200)
        rates = dbz_to_rate(dbz)
        np.testing.assert_allclose(rate_to_dbz(rates), dbz, rtol=1e-9)
        rates0 = rng.uniform(0.05, 300.0, size=200)  # dBZ stays within (-1, 64)
        np.testing.assert_allclose(dbz_to_rate(rate_to_dbz(rates0)), rates0, rtol=1e-9)


class TestClip:
    def test_bounds(self):
        assert clip_dbz(70.0) == 64.0
        assert clip_dbz(-5.0) == -1.0
        assert clip_dbz(23.0) == 23.0


class TestClassify:
    def test_light_rain_bucket(self):
        assert classify(0.05, EUROPE) == 0  # [0.0, 0.1)

    def test_top_bucket(self):
        assert classify(30.0, EUROPE) == EUROPE.n_classes  # >= 25.0

    def test_left_closed_edges(self):
        for c, e in enumerate(EUROPE.edges):
            assert classify(e, EUROPE) == c + 1

    def test_monotone(self):
        rng = np.random.default_rng(1)
        r = np.sort(rng.uniform(0, 40, size=500))
        b = classify(r, EUROPE)
        assert np.all(np.diff(b) >= 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.5, EUROPE)


class TestBuckets:
    def test_europe_preset(self):
        assert EUROPE.n_classes == 18
        assert EUROPE.edges[0] == 0.1 and EUROPE.edges[-1] == 25.0
        assert EUROPE.top_width == 5.0
        # the alias required by the external interface
        assert BinSet.preset("paper-europe") is EUROPE

    def test_sevir_preset(self):
        s = BinSet.preset("sevir")
        assert s.edges == (16.0, 31.0, 59.0, 74.0, 100.0, 133.0, 160.0, 181.0, 219.0, 255.0)

    def test_widths(self):
        b = BinSet((1.0, 2.0), top_width=3.0)
        np.testing.assert_allclose(b.widths, [1.0, 1.0, 3.0])

    def test_json_round_trip(self):
        b = BinSet((0.5, 2.0), top_width=1.5)
        assert BinSet.from_json(b.to_json()) == b

    def test_validation(self):
        with pytest.raises(ValueError):
            BinSet((2.0, 1.0))
        with pytest.raises(ValueError):
            BinSet((0.0, 1.0))

    def test_representatives(self):
        b = BinSet((0.1, 1.0, 2.0))
        assert bucket_representative(b, 2) == 1.5  # midpoint of [1, 2)
        assert bucket_representative(b, 3) == 2.0  # lower edge of the open bucket
        assert bucket_representative(b, 0) == 0.0
        np.testing.assert_allclose(bucket_representatives(b), [0.0, 0.55, 1.5, 2.0])


class TestExceedanceMasks:
    def test_definition(self):
        bins = BinSet((1.0, 2.0))
        cm = exceedance_masks(np.full((1, 1, 1), 1.5), bins)
        assert cm.masks[0, :, 0, 0].tolist() == [1.0, 0.0]

    def test_sentinel(self):
        bins = BinSet((1.0, 2.0))
        cm = exceedance_masks(np.full((1, 1, 1), SENTINEL), bins)
        assert not cm.valid[0, 0, 0]

    def test_no_rain(self):
        bins = BinSet((1.0, 2.0))
        cm = exceedance_masks(np.zeros((1, 1, 1)), bins)
        assert np.all(cm.masks == 0)

    def test_nonincreasing_and_one_hot(self):
        rng = np.random.default_rng(2)
        rates = rng.uniform(0, 30, size=(3, 4, 4))
        cm = exceedance_masks(rates, EUROPE)
        assert np.all(np.diff(cm.masks, axis=1) <= 0)
        # sum over classes counts the exceeded edges, i.e. the bucket index
        np.testing.assert_array_equal(cm.masks.sum(axis=1), classify(rates, EUROPE))
