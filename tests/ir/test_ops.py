"""Operator shape inference and receptive-field (slicing) semantics."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.ops import (
    Activation,
    Add,
    Concat,
    Conv2D,
    Crop,
    Dense,
    DepthwiseConv2D,
    GlobalAvgPool,
    Padding,
    Pool2D,
    PoolKind,
    Softmax,
    TransposedConv2D,
    Upsample,
    Window2D,
)
from repro.ir.tensor import Interval, Region, TensorShape


def full(shape: TensorShape) -> Region:
    return Region.full(shape)


class TestWindow2D:
    def test_same_output_size(self):
        w = Window2D.square(3, stride=2, padding=Padding.SAME)
        assert w.out_size(224, 224) == (112, 112)

    def test_valid_output_size(self):
        w = Window2D.square(3, padding=Padding.VALID)
        assert w.out_size(10, 10) == (8, 8)

    def test_dilated_valid_output_size(self):
        w = Window2D.square(3, dilation=2, padding=Padding.VALID)
        # effective kernel = 5
        assert w.out_size(10, 10) == (6, 6)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ValueError):
            Window2D.square(0)

    @given(
        in_size=st.integers(4, 64),
        kernel=st.integers(1, 7),
        stride=st.integers(1, 4),
        dilation=st.integers(1, 3),
        padding=st.sampled_from([Padding.SAME, Padding.VALID]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_input_interval_matches_bruteforce(
        self, in_size, kernel, stride, dilation, padding, data
    ):
        """input_interval must equal the union of tap positions exactly."""
        w = Window2D.square(kernel, stride, dilation, padding)
        eff = dilation * (kernel - 1) + 1
        if padding is Padding.VALID and in_size < eff:
            return
        out_size, _ = w.out_size(in_size, in_size)
        if out_size <= 0:
            return
        start = data.draw(st.integers(0, out_size - 1))
        stop = data.draw(st.integers(start + 1, out_size))
        iv = w.input_interval(Interval(start, stop), in_size, "h")

        pad = w.pad_before_axis(in_size, "h")
        taps = set()
        for o in range(start, stop):
            for k in range(kernel):
                pos = o * stride - pad + k * dilation
                if 0 <= pos < in_size:
                    taps.add(pos)
        if not taps:
            assert iv.length <= eff
            return
        assert iv.start == min(taps)
        assert iv.stop == max(taps) + 1

    def test_empty_output_interval(self):
        w = Window2D.square(3)
        assert w.input_interval(Interval(0, 0), 10, "h").is_empty


class TestConv2D:
    def make(self, **kw):
        defaults = dict(
            out_channels=8, in_channels=4, window=Window2D.square(3)
        )
        defaults.update(kw)
        return Conv2D(**defaults)

    def test_output_shape_same(self):
        op = self.make()
        assert op.infer_output_shape([TensorShape(10, 12, 4)]) == TensorShape(10, 12, 8)

    def test_output_shape_strided(self):
        op = self.make(window=Window2D.square(3, stride=2))
        assert op.infer_output_shape([TensorShape(11, 11, 4)]) == TensorShape(6, 6, 8)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            self.make().infer_output_shape([TensorShape(10, 10, 5)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            self.make().infer_output_shape([])

    def test_input_region_needs_all_channels(self):
        op = self.make()
        ishape = TensorShape(10, 10, 4)
        oshape = op.infer_output_shape([ishape])
        out = Region(Interval(0, 5), Interval(0, 10), Interval(0, 8))
        needed = op.input_region(out, 0, ishape, oshape)
        assert needed.chans == Interval(0, 4)
        # 3x3 SAME: rows [0,5) need input rows [0,6)
        assert needed.rows == Interval(0, 6)

    def test_macs(self):
        op = self.make()
        out = Region(Interval(0, 2), Interval(0, 2), Interval(0, 8))
        assert op.macs_for_output(out, [TensorShape(10, 10, 4)]) == 2 * 2 * 8 * 9 * 4

    def test_weight_shape_and_slicing(self):
        op = self.make()
        assert op.weight_shape == (3, 3, 4, 8)
        assert op.weight_elements == 288
        out = Region(Interval(0, 10), Interval(0, 10), Interval(0, 4))
        # half the output channels need half the filters
        assert op.weight_elements_for_output(out, TensorShape(10, 10, 8)) == 144


class TestDepthwiseConv2D:
    def test_output_shape(self):
        op = DepthwiseConv2D(channels=6, window=Window2D.square(3, stride=2))
        assert op.infer_output_shape([TensorShape(9, 9, 6)]) == TensorShape(5, 5, 6)

    def test_channelwise_input_region(self):
        op = DepthwiseConv2D(channels=6, window=Window2D.square(3))
        ishape = TensorShape(9, 9, 6)
        out = Region(Interval(0, 9), Interval(0, 9), Interval(2, 4))
        needed = op.input_region(out, 0, ishape, TensorShape(9, 9, 6))
        assert needed.chans == Interval(2, 4)

    def test_macs_independent_of_channels_count(self):
        op = DepthwiseConv2D(channels=6, window=Window2D.square(3))
        out = Region(Interval(0, 3), Interval(0, 3), Interval(0, 6))
        assert op.macs_for_output(out, [TensorShape(9, 9, 6)]) == 3 * 3 * 6 * 9


class TestPool2D:
    def test_output_shape(self):
        op = Pool2D(PoolKind.MAX, Window2D.square(2, stride=2, padding=Padding.VALID))
        assert op.infer_output_shape([TensorShape(8, 8, 5)]) == TensorShape(4, 4, 5)

    def test_channelwise(self):
        op = Pool2D(PoolKind.AVG, Window2D.square(3))
        assert op.weight_shape == ()


class TestGlobalAvgPool:
    def test_shape_and_region(self):
        op = GlobalAvgPool()
        ishape = TensorShape(7, 7, 12)
        assert op.infer_output_shape([ishape]) == TensorShape(1, 1, 12)
        out = Region(Interval(0, 1), Interval(0, 1), Interval(4, 8))
        needed = op.input_region(out, 0, ishape, TensorShape(1, 1, 12))
        assert needed.rows == Interval(0, 7)
        assert needed.chans == Interval(4, 8)

    def test_no_spatial_partition(self):
        assert not GlobalAvgPool().supports_spatial_partition


class TestDense:
    def test_shape(self):
        op = Dense(out_features=10, in_features=48)
        assert op.infer_output_shape([TensorShape(4, 4, 3)]) == TensorShape(1, 1, 10)

    def test_rejects_wrong_in_features(self):
        op = Dense(out_features=10, in_features=48)
        with pytest.raises(ValueError):
            op.infer_output_shape([TensorShape(4, 4, 4)])

    def test_weight_slice_scales_with_out_channels(self):
        op = Dense(out_features=10, in_features=48)
        out = Region(Interval(0, 1), Interval(0, 1), Interval(0, 5))
        assert op.weight_elements_for_output(out, TensorShape(1, 1, 10)) == 240


class TestAddConcat:
    def test_add_shape(self):
        op = Add()
        s = TensorShape(4, 4, 8)
        assert op.infer_output_shape([s, s]) == s

    def test_add_rejects_mismatch(self):
        with pytest.raises(ValueError):
            Add().infer_output_shape([TensorShape(4, 4, 8), TensorShape(4, 4, 7)])

    def test_add_identity_region(self):
        op = Add()
        region = Region(Interval(1, 3), Interval(0, 4), Interval(2, 6))
        s = TensorShape(4, 4, 8)
        assert op.input_region(region, 0, s, s) == region
        assert op.input_region(region, 1, s, s) == region

    def test_concat_shape(self):
        op = Concat()
        shapes = [TensorShape(4, 4, 3), TensorShape(4, 4, 5)]
        assert op.infer_output_shape(shapes) == TensorShape(4, 4, 8)

    def test_concat_rejects_spatial_mismatch(self):
        with pytest.raises(ValueError):
            Concat().infer_output_shape([TensorShape(4, 4, 3), TensorShape(5, 4, 5)])

    def test_concat_rejects_single_input(self):
        with pytest.raises(ValueError):
            Concat().infer_output_shape([TensorShape(4, 4, 3)])

    def test_concat_channel_mapping(self):
        op = Concat()
        out = Region(Interval(0, 4), Interval(0, 4), Interval(2, 6))
        # first input holds channels [0, 3): overlap [2, 3) -> local [2, 3)
        r0 = op.input_region_with_offset(out, 0, TensorShape(4, 4, 3))
        assert r0.chans == Interval(2, 3)
        # second input holds channels [3, 8): overlap [3, 6) -> local [0, 3)
        r1 = op.input_region_with_offset(out, 3, TensorShape(4, 4, 5))
        assert r1.chans == Interval(0, 3)


class TestUpsample:
    def test_nearest_shape(self):
        op = Upsample(factor_h=2, factor_w=2, mode="nearest")
        assert op.infer_output_shape([TensorShape(3, 4, 5)]) == TensorShape(6, 8, 5)

    def test_nearest_source_interval(self):
        op = Upsample(factor_h=2, factor_w=2, mode="nearest")
        ishape = TensorShape(4, 4, 2)
        out = Region(Interval(2, 6), Interval(0, 8), Interval(0, 2))
        needed = op.input_region(out, 0, ishape, TensorShape(8, 8, 2))
        assert needed.rows == Interval(1, 3)

    def test_bilinear_adds_halo(self):
        near = Upsample(factor_h=2, factor_w=2, mode="nearest")
        bil = Upsample(factor_h=2, factor_w=2, mode="bilinear")
        ishape = TensorShape(8, 8, 2)
        out = Region(Interval(4, 8), Interval(0, 16), Interval(0, 2))
        rn = near.input_region(out, 0, ishape, TensorShape(16, 16, 2))
        rb = bil.input_region(out, 0, ishape, TensorShape(16, 16, 2))
        assert rb.rows.start <= rn.rows.start
        assert rb.rows.stop >= rn.rows.stop
        assert rb.rows.length > rn.rows.length

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            Upsample(factor_h=2, factor_w=2, mode="bicubic")


class TestTransposedConv2D:
    def test_shape(self):
        op = TransposedConv2D(out_channels=4, in_channels=8, kernel=2, stride=2)
        assert op.infer_output_shape([TensorShape(5, 5, 8)]) == TensorShape(10, 10, 4)

    def test_source_interval_bruteforce(self):
        op = TransposedConv2D(out_channels=4, in_channels=8, kernel=3, stride=2)
        ishape = TensorShape(6, 6, 8)
        oshape = op.infer_output_shape([ishape])
        for start in range(oshape.h):
            for stop in range(start + 1, oshape.h + 1):
                out = Region(Interval(start, stop), Interval(0, oshape.w), Interval(0, 4))
                needed = op.input_region(out, 0, ishape, oshape)
                srcs = set()
                for r in range(start, stop):
                    for i in range(ishape.h):
                        if i * op.stride <= r <= i * op.stride + op.kernel - 1:
                            srcs.add(i)
                assert needed.rows.start == min(srcs)
                assert needed.rows.stop == max(srcs) + 1


class TestCrop:
    def test_center_crop_region(self):
        op = Crop(out_h=4, out_w=4)
        ishape = TensorShape(8, 8, 2)
        oshape = op.infer_output_shape([ishape])
        assert oshape == TensorShape(4, 4, 2)
        out = Region(Interval(0, 4), Interval(0, 4), Interval(0, 2))
        needed = op.input_region(out, 0, ishape, oshape)
        assert needed.rows == Interval(2, 6)

    def test_rejects_growing(self):
        with pytest.raises(ValueError):
            Crop(out_h=9, out_w=4).infer_output_shape([TensorShape(8, 8, 2)])


class TestSoftmaxActivation:
    def test_softmax_needs_full_channels(self):
        op = Softmax()
        ishape = TensorShape(4, 4, 10)
        out = Region(Interval(0, 2), Interval(0, 4), Interval(0, 5))
        needed = op.input_region(out, 0, ishape, ishape)
        assert needed.chans == Interval(0, 10)
        assert not op.supports_channel_partition

    def test_activation_identity(self):
        op = Activation("relu")
        s = TensorShape(4, 4, 8)
        region = Region(Interval(1, 2), Interval(1, 2), Interval(1, 2))
        assert op.input_region(region, 0, s, s) == region


@settings(max_examples=100, deadline=None)
@given(
    in_h=st.integers(6, 40),
    in_c=st.integers(1, 8),
    out_c=st.integers(1, 8),
    kernel=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.sampled_from([Padding.SAME, Padding.VALID]),
)
def test_conv_monotone_regions(in_h, in_c, out_c, kernel, stride, padding):
    """A larger output region never needs a smaller input region."""
    if padding is Padding.VALID and in_h < kernel:
        return
    op = Conv2D(
        out_channels=out_c,
        in_channels=in_c,
        window=Window2D.square(kernel, stride, padding=padding),
    )
    ishape = TensorShape(in_h, in_h, in_c)
    oshape = op.infer_output_shape([ishape])
    small = Region(Interval(0, max(1, oshape.h // 2)), Interval(0, oshape.w), Interval(0, out_c))
    large = Region(Interval(0, oshape.h), Interval(0, oshape.w), Interval(0, out_c))
    r_small = op.input_region(small, 0, ishape, oshape)
    r_large = op.input_region(large, 0, ishape, oshape)
    assert r_large.contains(r_small)
    assert r_large.within(ishape)
