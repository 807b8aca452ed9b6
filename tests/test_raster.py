import numpy as np
import pytest

from raincast.raster import (
    SENTINEL,
    AlignmentError,
    DimensionError,
    Raster,
    SourceStack,
    align_center,
    depth_to_space_array,
    load_raster,
    merge_time_channels,
    save_raster,
    space_to_depth,
    space_to_depth_array,
    split_time_channels,
)

from oracles import space_to_depth_loop


def stack_of(data, res=1.0, origin=(0.0, 0.0)):
    t = data.shape[0]
    return SourceStack(data, res, origin, tuple(range(t)), "rate")


class TestSpaceToDepth:
    def test_block_phases(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = space_to_depth_array(x, 2)
        assert out.shape == (1, 4, 2, 2)
        np.testing.assert_array_equal(out, space_to_depth_loop(x, 2))

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 8, 12))
        back = depth_to_space_array(space_to_depth_array(x, 2), 2)
        np.testing.assert_array_equal(back, x)

    def test_block_one_identity(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        np.testing.assert_array_equal(space_to_depth_array(x, 1), x)

    def test_nondivisible(self):
        with pytest.raises(DimensionError):
            space_to_depth_array(np.zeros((1, 1, 3, 4)), 2)

    def test_stack_metadata(self):
        s = stack_of(np.zeros((1, 1, 4, 4)), res=2.0)
        out = space_to_depth(s, 2)
        assert out.res_km == 4.0
        assert out.data.shape == (1, 4, 2, 2)


class TestTimeChannels:
    def test_time_major_order(self):
        data = np.zeros((2, 3, 1, 1))
        for t in range(2):
            for c in range(3):
                data[t, c] = 10 * t + c
        merged = merge_time_channels(stack_of(data))
        assert merged[:, 0, 0].tolist() == [0, 1, 2, 10, 11, 12]

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(2)
        data = np.abs(rng.normal(size=(3, 2, 4, 5)))
        s = stack_of(data)
        np.testing.assert_array_equal(split_time_channels(merge_time_channels(s), 3), data)

    def test_single_step(self):
        data = np.abs(np.random.default_rng(3).normal(size=(1, 4, 2, 2)))
        merged = merge_time_channels(stack_of(data))
        np.testing.assert_array_equal(merged, data[0])

    def test_bad_split(self):
        with pytest.raises(DimensionError):
            split_time_channels(np.zeros((5, 2, 2)), 2)


class TestAlignCenter:
    def test_pad_to_wider_context(self):
        s = stack_of(np.ones((1, 1, 256, 256)), res=4.0)
        out = align_center(s, (1536.0, 1536.0))
        assert out.data.shape == (1, 1, 384, 384)
        assert np.all(out.data[:, :, :64, :] == 0)
        assert np.all(out.data[:, :, 64:-64, 64:-64] == 1)
        assert out.origin_km == (-256.0, -256.0)

    def test_crop_to_target(self):
        data = np.arange(192 * 192, dtype=float).reshape(1, 1, 192, 192)
        s = stack_of(data, res=8.0)
        out = align_center(s, (512.0, 512.0))
        assert out.data.shape == (1, 1, 64, 64)
        np.testing.assert_array_equal(out.data[0, 0], data[0, 0, 64:128, 64:128])
        assert out.origin_km == (512.0, 512.0)

    def test_identity(self):
        s = stack_of(np.ones((1, 1, 8, 8)), res=2.0)
        out = align_center(s, (16.0, 16.0))
        np.testing.assert_array_equal(out.data, s.data)
        assert out.origin_km == s.origin_km

    def test_odd_remainder_rejected(self):
        s = stack_of(np.ones((1, 1, 8, 8)), res=2.0)
        with pytest.raises(AlignmentError):
            align_center(s, (18.0, 18.0))

    def test_pad_then_crop_round_trip(self):
        rng = np.random.default_rng(4)
        data = np.abs(rng.normal(size=(2, 1, 16, 16)))
        s = stack_of(data, res=2.0)
        big = align_center(s, (48.0, 48.0))
        back = align_center(big, (32.0, 32.0))
        np.testing.assert_array_equal(back.data, data)
        assert back.origin_km == s.origin_km

    def test_retained_pixel_coordinates_unchanged(self):
        s = stack_of(np.ones((1, 1, 8, 8)), res=2.0, origin=(10.0, 20.0))
        out = align_center(s, (24.0, 24.0))
        # pixel (0,0) of the input sits at (10,20); in the padded stack it is
        # pixel (2,2), whose coordinate must still be origin + 2*res
        assert out.origin_km[0] + 2 * out.res_km == 10.0
        assert out.origin_km[1] + 2 * out.res_km == 20.0


class TestSentinelPropagation:
    def test_rearrangements_keep_sentinels(self):
        data = np.ones((1, 1, 4, 4))
        data[0, 0, 1, 2] = SENTINEL
        s = stack_of(data)
        assert np.sum(space_to_depth(s, 2).data == SENTINEL) == 1
        assert np.sum(align_center(s, (6.0, 6.0)).data == SENTINEL) == 1


class TestRasterFiles:
    def test_round_trip(self, tmp_path):
        v = np.array([[0.5, 1.25], [0.0, SENTINEL]])
        save_raster(tmp_path / "r", Raster(v, 2.0, (4.0, 8.0), "rate"))
        back = load_raster(tmp_path / "r")
        np.testing.assert_array_equal(back.values, v)
        assert back.res_km == 2.0 and back.origin_km == (4.0, 8.0) and back.kind == "rate"

    def test_stack_round_trip(self, tmp_path):
        data = np.round(np.abs(np.random.default_rng(5).normal(size=(3, 1, 4, 4))), 3)
        s = SourceStack(data, 1.0, (0.0, 0.0), (0.0, 10.0, 20.0), "rate")
        save_raster(tmp_path / "s", s)
        back = load_raster(tmp_path / "s")
        assert isinstance(back, SourceStack)
        assert back.timesteps_min == (0.0, 10.0, 20.0)
        np.testing.assert_allclose(back.data, data, atol=1e-6)


class TestValidation:
    def test_rate_rejects_negative(self):
        with pytest.raises(ValueError):
            Raster(np.array([[-0.5]]), 1.0)

    def test_dbz_range(self):
        with pytest.raises(ValueError):
            Raster(np.array([[70.0]]), 1.0, kind="dbz")

    def test_timesteps_must_increase(self):
        with pytest.raises(ValueError):
            SourceStack(np.zeros((2, 1, 2, 2)), 1.0, (0, 0), (10.0, 10.0))
