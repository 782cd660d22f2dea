"""Operator definitions for the DNN graph IR.

Every operator knows three families of facts, all consumed by the compiler:

* **Shape inference** -- output shape from input shapes.
* **Slicing semantics** -- given a Region of the *output*, which Region of
  each input (and of the weights) is needed to produce it.  This is the
  receptive-field arithmetic that determines halo sizes, stratum inflation
  and redundant computation (Sections 2-3 of the paper).
* **Cost** -- MAC / arithmetic-op counts for an output Region, used by the
  workload balancer, the tiler and heuristic *h8*.

The reference (functional) semantics live in :mod:`repro.runtime.reference`;
operators here only expose metadata plus a ``weight_shape`` so the reference
executor can generate synthetic weights.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
import math
from typing import Optional, Sequence, Tuple

from repro.ir.tensor import Interval, Region, TensorShape


class Padding(enum.Enum):
    """Spatial padding policy, TensorFlow-style."""

    SAME = "same"
    VALID = "valid"


def _same_pad_total(in_size: int, kernel: int, stride: int, dilation: int) -> int:
    """Total padding along one axis for SAME semantics."""
    eff_kernel = dilation * (kernel - 1) + 1
    out_size = math.ceil(in_size / stride)
    return max(0, (out_size - 1) * stride + eff_kernel - in_size)


def _conv_out_size(in_size: int, kernel: int, stride: int, dilation: int, padding: Padding) -> int:
    eff_kernel = dilation * (kernel - 1) + 1
    if padding is Padding.SAME:
        return math.ceil(in_size / stride)
    return (in_size - eff_kernel) // stride + 1


@dataclasses.dataclass(frozen=True)
class Window2D:
    """A 2-D sliding-window descriptor shared by conv and pooling ops."""

    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    dilation_h: int = 1
    dilation_w: int = 1
    padding: Padding = Padding.SAME

    def __post_init__(self) -> None:
        for field in ("kernel_h", "kernel_w", "stride_h", "stride_w", "dilation_h", "dilation_w"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")

    @classmethod
    def square(
        cls,
        kernel: int,
        stride: int = 1,
        dilation: int = 1,
        padding: Padding = Padding.SAME,
    ) -> "Window2D":
        return cls(kernel, kernel, stride, stride, dilation, dilation, padding)

    def pad_total(self, in_h: int, in_w: int) -> Tuple[int, int]:
        if self.padding is Padding.VALID:
            return (0, 0)
        return (
            _same_pad_total(in_h, self.kernel_h, self.stride_h, self.dilation_h),
            _same_pad_total(in_w, self.kernel_w, self.stride_w, self.dilation_w),
        )

    def out_size(self, in_h: int, in_w: int) -> Tuple[int, int]:
        return (
            _conv_out_size(in_h, self.kernel_h, self.stride_h, self.dilation_h, self.padding),
            _conv_out_size(in_w, self.kernel_w, self.stride_w, self.dilation_w, self.padding),
        )

    def input_interval(
        self,
        out_iv: Interval,
        in_size: int,
        axis: str,
    ) -> Interval:
        """Input rows/cols required to compute output interval ``out_iv``.

        The returned interval is clamped to the valid input range: padded
        positions are materialized as zeros by whoever computes, so the
        *data* requirement never extends outside the tensor.
        """
        if out_iv.is_empty:
            return Interval(0, 0)
        if axis == "h":
            kernel, stride, dilation = self.kernel_h, self.stride_h, self.dilation_h
            pad = self.pad_before_axis(in_size, "h")
        elif axis == "w":
            kernel, stride, dilation = self.kernel_w, self.stride_w, self.dilation_w
            pad = self.pad_before_axis(in_size, "w")
        else:
            raise ValueError(f"axis must be 'h' or 'w', got {axis!r}")
        # Exact first/last *valid* tap over all outputs in the interval.
        # With dilation > 1 the taps are strided, so clamping to the
        # tensor bounds must step by whole dilations; and because clamping
        # depends on each output's phase, the extremum is searched over
        # (at most) one dilation-period of outputs at each boundary.
        first: Optional[int] = None
        for o in range(out_iv.start, min(out_iv.stop, out_iv.start + dilation + 1)):
            r = o * stride - pad
            if r >= 0:
                first = r if first is None else min(first, r)
                break
            candidate = r + math.ceil(-r / dilation) * dilation
            if candidate <= r + dilation * (kernel - 1) and candidate < in_size:
                first = candidate if first is None else min(first, candidate)

        last: Optional[int] = None
        for o in range(out_iv.stop - 1, max(out_iv.start - 1, out_iv.stop - dilation - 2), -1):
            r = o * stride - pad
            t = r + dilation * (kernel - 1)
            if t <= in_size - 1:
                candidate = t
                if candidate >= 0:
                    last = candidate if last is None else max(last, candidate)
                break
            candidate = t - math.ceil((t - (in_size - 1)) / dilation) * dilation
            if candidate >= r and candidate >= 0:
                last = candidate if last is None else max(last, candidate)

        if first is None or last is None or first > last:
            return Interval(0, 0)
        return Interval(first, last + 1)

    def pad_before_axis(self, in_size: int, axis: str) -> int:
        if self.padding is Padding.VALID:
            return 0
        if axis == "h":
            total = _same_pad_total(in_size, self.kernel_h, self.stride_h, self.dilation_h)
        else:
            total = _same_pad_total(in_size, self.kernel_w, self.stride_w, self.dilation_w)
        return total // 2

    @property
    def taps(self) -> int:
        """Number of window positions combined per output element."""
        return self.kernel_h * self.kernel_w


class Operator(abc.ABC):
    """Base class for all IR operators.

    Subclasses are immutable dataclasses; an Operator instance is shared by
    the layer it annotates and never refers back to the graph.
    """

    #: arity; ``None`` means variadic (Concat).
    num_inputs: Optional[int] = 1

    @abc.abstractmethod
    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        """Output shape from input shapes; raises ValueError on mismatch."""

    @abc.abstractmethod
    def input_region(
        self,
        out_region: Region,
        input_index: int,
        input_shape: TensorShape,
        output_shape: TensorShape,
    ) -> Region:
        """Region of input ``input_index`` needed to produce ``out_region``."""

    @abc.abstractmethod
    def macs_for_output(self, out_region: Region, input_shapes: Sequence[TensorShape]) -> int:
        """Arithmetic work (MACs or equivalent ops) to compute ``out_region``."""

    @property
    def weight_shape(self) -> Tuple[int, ...]:
        """Shape of the parameter tensor; ``()`` when the op has no weights."""
        return ()

    @property
    def weight_elements(self) -> int:
        n = 1
        for d in self.weight_shape:
            n *= d
        return n if self.weight_shape else 0

    def weight_elements_for_output(self, out_region: Region, output_shape: TensorShape) -> int:
        """Weight elements that must be resident to compute ``out_region``.

        Default: all weights (spatial partitioning replicates kernels --
        Table 1, row 1).  Channel-sliced ops override this.
        """
        return self.weight_elements

    @property
    def supports_spatial_partition(self) -> bool:
        return True

    @property
    def supports_channel_partition(self) -> bool:
        return True

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def __str__(self) -> str:
        return self.type_name


def _check_arity(op: Operator, input_shapes: Sequence[TensorShape]) -> None:
    if op.num_inputs is not None and len(input_shapes) != op.num_inputs:
        raise ValueError(
            f"{op.type_name} expects {op.num_inputs} input(s), got {len(input_shapes)}"
        )


@dataclasses.dataclass(frozen=True)
class Input(Operator):
    """Source node holding the network input."""

    shape: TensorShape

    num_inputs = 0

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        return self.shape

    def input_region(self, out_region, input_index, input_shape, output_shape):
        raise ValueError("Input op has no inputs")

    def macs_for_output(self, out_region, input_shapes) -> int:
        return 0


@dataclasses.dataclass(frozen=True)
class Conv2D(Operator):
    """Standard 2-D convolution, HWC activations, weights (kh, kw, cin, cout).

    ``activation`` records a fused pointwise nonlinearity; it affects
    neither shape nor slicing and adds negligible cost on the adder-tree
    engine, so it is metadata only.
    """

    out_channels: int
    window: Window2D
    in_channels: int
    use_bias: bool = True
    activation: Optional[str] = "relu"

    num_inputs = 1

    def __post_init__(self) -> None:
        if self.out_channels <= 0 or self.in_channels <= 0:
            raise ValueError("channel counts must be positive")

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        (ishape,) = input_shapes
        if ishape.c != self.in_channels:
            raise ValueError(
                f"Conv2D expects {self.in_channels} input channels, got {ishape.c}"
            )
        out_h, out_w = self.window.out_size(ishape.h, ishape.w)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"Conv2D window {self.window} too large for input {ishape}")
        return TensorShape(out_h, out_w, self.out_channels)

    def input_region(self, out_region, input_index, input_shape, output_shape):
        rows = self.window.input_interval(out_region.rows, input_shape.h, "h")
        cols = self.window.input_interval(out_region.cols, input_shape.w, "w")
        return Region(rows, cols, Interval(0, input_shape.c))

    def macs_for_output(self, out_region, input_shapes) -> int:
        return out_region.num_elements * self.window.taps * self.in_channels

    @property
    def weight_shape(self) -> Tuple[int, ...]:
        return (self.window.kernel_h, self.window.kernel_w, self.in_channels, self.out_channels)

    def weight_elements_for_output(self, out_region, output_shape) -> int:
        per_filter = self.window.taps * self.in_channels
        return per_filter * out_region.chans.length


@dataclasses.dataclass(frozen=True)
class DepthwiseConv2D(Operator):
    """Depthwise 2-D convolution; weights (kh, kw, c)."""

    channels: int
    window: Window2D
    use_bias: bool = True
    activation: Optional[str] = "relu"

    num_inputs = 1

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError("channels must be positive")

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        (ishape,) = input_shapes
        if ishape.c != self.channels:
            raise ValueError(
                f"DepthwiseConv2D expects {self.channels} channels, got {ishape.c}"
            )
        out_h, out_w = self.window.out_size(ishape.h, ishape.w)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"window {self.window} too large for input {ishape}")
        return TensorShape(out_h, out_w, self.channels)

    def input_region(self, out_region, input_index, input_shape, output_shape):
        rows = self.window.input_interval(out_region.rows, input_shape.h, "h")
        cols = self.window.input_interval(out_region.cols, input_shape.w, "w")
        return Region(rows, cols, out_region.chans)

    def macs_for_output(self, out_region, input_shapes) -> int:
        return out_region.num_elements * self.window.taps

    @property
    def weight_shape(self) -> Tuple[int, ...]:
        return (self.window.kernel_h, self.window.kernel_w, self.channels)

    def weight_elements_for_output(self, out_region, output_shape) -> int:
        return self.window.taps * out_region.chans.length


class PoolKind(enum.Enum):
    MAX = "max"
    AVG = "avg"


@dataclasses.dataclass(frozen=True)
class Pool2D(Operator):
    """Max / average pooling; channel-wise, no weights."""

    kind: PoolKind
    window: Window2D

    num_inputs = 1

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        (ishape,) = input_shapes
        out_h, out_w = self.window.out_size(ishape.h, ishape.w)
        if out_h <= 0 or out_w <= 0:
            raise ValueError(f"window {self.window} too large for input {ishape}")
        return TensorShape(out_h, out_w, ishape.c)

    def input_region(self, out_region, input_index, input_shape, output_shape):
        rows = self.window.input_interval(out_region.rows, input_shape.h, "h")
        cols = self.window.input_interval(out_region.cols, input_shape.w, "w")
        return Region(rows, cols, out_region.chans)

    def macs_for_output(self, out_region, input_shapes) -> int:
        # Comparisons / adds per output element; same order as MACs on the
        # vector engine, which is what the balancer needs.
        return out_region.num_elements * self.window.taps


@dataclasses.dataclass(frozen=True)
class GlobalAvgPool(Operator):
    """Global average pooling to 1x1xC."""

    num_inputs = 1

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        (ishape,) = input_shapes
        return TensorShape(1, 1, ishape.c)

    def input_region(self, out_region, input_index, input_shape, output_shape):
        return Region(
            Interval(0, input_shape.h), Interval(0, input_shape.w), out_region.chans
        )

    def macs_for_output(self, out_region, input_shapes) -> int:
        (ishape,) = input_shapes
        return out_region.chans.length * ishape.h * ishape.w

    @property
    def supports_spatial_partition(self) -> bool:
        # The 1x1 output cannot be split spatially.
        return False


@dataclasses.dataclass(frozen=True)
class Dense(Operator):
    """Fully connected layer over a flattened input; weights (in, out)."""

    out_features: int
    in_features: int
    use_bias: bool = True
    activation: Optional[str] = None

    num_inputs = 1

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        (ishape,) = input_shapes
        if ishape.num_elements != self.in_features:
            raise ValueError(
                f"Dense expects {self.in_features} input elements, got {ishape}"
            )
        return TensorShape(1, 1, self.out_features)

    def input_region(self, out_region, input_index, input_shape, output_shape):
        return Region.full(input_shape)

    def macs_for_output(self, out_region, input_shapes) -> int:
        return out_region.chans.length * self.in_features

    @property
    def weight_shape(self) -> Tuple[int, ...]:
        return (self.in_features, self.out_features)

    def weight_elements_for_output(self, out_region, output_shape) -> int:
        return self.in_features * out_region.chans.length

    @property
    def supports_spatial_partition(self) -> bool:
        return False


@dataclasses.dataclass(frozen=True)
class Add(Operator):
    """Elementwise addition of two same-shaped tensors (residual connections)."""

    activation: Optional[str] = None

    num_inputs = 2

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        a, b = input_shapes
        if a != b:
            raise ValueError(f"Add requires equal shapes, got {a} and {b}")
        return a

    def input_region(self, out_region, input_index, input_shape, output_shape):
        return out_region

    def macs_for_output(self, out_region, input_shapes) -> int:
        return out_region.num_elements


@dataclasses.dataclass(frozen=True)
class Mul(Operator):
    """Elementwise multiply with channel-broadcast support.

    The second input is either the same shape as the first or a
    ``1x1xC`` per-channel scale (squeeze-and-excitation gating).
    """

    activation: Optional[str] = None

    num_inputs = 2

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        a, b = input_shapes
        if a == b:
            return a
        if b.h == 1 and b.w == 1 and b.c == a.c:
            return a
        raise ValueError(f"Mul requires equal shapes or a 1x1xC scale, got {a} and {b}")

    def input_region(self, out_region, input_index, input_shape, output_shape):
        if input_index == 0:
            return out_region
        if input_shape.h == 1 and input_shape.w == 1 and input_shape != output_shape:
            # broadcast scale: only the channel slice is needed.
            return Region(Interval(0, 1), Interval(0, 1), out_region.chans)
        return out_region

    def macs_for_output(self, out_region, input_shapes) -> int:
        return out_region.num_elements


@dataclasses.dataclass(frozen=True)
class Concat(Operator):
    """Channel-axis concatenation of ``n`` tensors."""

    num_inputs = None

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        if len(input_shapes) < 2:
            raise ValueError("Concat needs at least two inputs")
        h, w = input_shapes[0].h, input_shapes[0].w
        for s in input_shapes:
            if (s.h, s.w) != (h, w):
                raise ValueError(f"Concat spatial mismatch: {input_shapes}")
        return TensorShape(h, w, sum(s.c for s in input_shapes))

    def channel_offset(self, input_index: int, input_shapes: Sequence[TensorShape]) -> int:
        return sum(s.c for s in input_shapes[:input_index])

    def input_region(self, out_region, input_index, input_shape, output_shape):
        # The caller does not pass sibling shapes, so the offset must be
        # recoverable: graph.py supplies it via input_region_with_offset.
        raise NotImplementedError(
            "Concat slicing needs sibling shapes; use Layer.input_region instead"
        )

    def input_region_with_offset(
        self, out_region: Region, offset: int, input_shape: TensorShape
    ) -> Region:
        band = Interval(offset, offset + input_shape.c)
        chans = out_region.chans.intersect(band).shift(-offset)
        return Region(out_region.rows, out_region.cols, chans)

    def macs_for_output(self, out_region, input_shapes) -> int:
        # Pure data movement; a tiny per-element copy cost keeps the
        # balancer from treating it as free.
        return out_region.num_elements


@dataclasses.dataclass(frozen=True)
class Activation(Operator):
    """Standalone pointwise nonlinearity (relu, relu6, sigmoid, ...)."""

    kind: str = "relu"

    num_inputs = 1

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        return input_shapes[0]

    def input_region(self, out_region, input_index, input_shape, output_shape):
        return out_region

    def macs_for_output(self, out_region, input_shapes) -> int:
        return out_region.num_elements


@dataclasses.dataclass(frozen=True)
class Upsample(Operator):
    """Nearest / bilinear spatial upsampling by an integer factor."""

    factor_h: int
    factor_w: int
    mode: str = "nearest"

    num_inputs = 1

    def __post_init__(self) -> None:
        if self.factor_h <= 0 or self.factor_w <= 0:
            raise ValueError("upsample factors must be positive")
        if self.mode not in ("nearest", "bilinear"):
            raise ValueError(f"unknown upsample mode {self.mode!r}")

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        (ishape,) = input_shapes
        return TensorShape(ishape.h * self.factor_h, ishape.w * self.factor_w, ishape.c)

    def _src_interval(self, out_iv: Interval, factor: int, in_size: int) -> Interval:
        if out_iv.is_empty:
            return Interval(0, 0)
        start = out_iv.start // factor
        stop = (out_iv.stop - 1) // factor + 1
        if self.mode == "bilinear":
            # Bilinear taps one extra source sample on each side.
            start = max(0, start - 1)
            stop = min(in_size, stop + 1)
        return Interval(start, stop)

    def input_region(self, out_region, input_index, input_shape, output_shape):
        rows = self._src_interval(out_region.rows, self.factor_h, input_shape.h)
        cols = self._src_interval(out_region.cols, self.factor_w, input_shape.w)
        return Region(rows, cols, out_region.chans)

    def macs_for_output(self, out_region, input_shapes) -> int:
        per_elem = 1 if self.mode == "nearest" else 4
        return out_region.num_elements * per_elem


@dataclasses.dataclass(frozen=True)
class TransposedConv2D(Operator):
    """Transposed (fractionally strided) convolution; weights (kh, kw, cin, cout).

    Only the VALID, no-output-padding form needed by UNet's up-convolutions
    is implemented: ``out = (in - 1) * stride + kernel``.
    """

    out_channels: int
    in_channels: int
    kernel: int
    stride: int
    use_bias: bool = True
    activation: Optional[str] = "relu"

    num_inputs = 1

    def __post_init__(self) -> None:
        if self.kernel <= 0 or self.stride <= 0:
            raise ValueError("kernel and stride must be positive")

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        (ishape,) = input_shapes
        if ishape.c != self.in_channels:
            raise ValueError(
                f"TransposedConv2D expects {self.in_channels} channels, got {ishape.c}"
            )
        out_h = (ishape.h - 1) * self.stride + self.kernel
        out_w = (ishape.w - 1) * self.stride + self.kernel
        return TensorShape(out_h, out_w, self.out_channels)

    def _src_interval(self, out_iv: Interval, in_size: int) -> Interval:
        if out_iv.is_empty:
            return Interval(0, 0)
        # Output position r receives contributions from input i with
        # i*stride <= r <= i*stride + kernel - 1.
        first = math.ceil((out_iv.start - self.kernel + 1) / self.stride)
        last = (out_iv.stop - 1) // self.stride
        return Interval(max(0, first), max(0, min(in_size, last + 1)))

    def input_region(self, out_region, input_index, input_shape, output_shape):
        rows = self._src_interval(out_region.rows, input_shape.h)
        cols = self._src_interval(out_region.cols, input_shape.w)
        return Region(rows, cols, Interval(0, input_shape.c))

    def macs_for_output(self, out_region, input_shapes) -> int:
        # Each output element accumulates at most ceil(k/s)^2 taps over all
        # input channels; use the exact average k^2/s^2 per element.
        taps = (self.kernel * self.kernel) / (self.stride * self.stride)
        return int(out_region.num_elements * taps * self.in_channels)

    @property
    def weight_shape(self) -> Tuple[int, ...]:
        return (self.kernel, self.kernel, self.in_channels, self.out_channels)

    def weight_elements_for_output(self, out_region, output_shape) -> int:
        return self.kernel * self.kernel * self.in_channels * out_region.chans.length


@dataclasses.dataclass(frozen=True)
class Crop(Operator):
    """Central spatial crop to a target size (UNet skip connections)."""

    out_h: int
    out_w: int

    num_inputs = 1

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        (ishape,) = input_shapes
        if self.out_h > ishape.h or self.out_w > ishape.w:
            raise ValueError(f"cannot crop {ishape} to {self.out_h}x{self.out_w}")
        return TensorShape(self.out_h, self.out_w, ishape.c)

    def _offsets(self, input_shape: TensorShape) -> Tuple[int, int]:
        return ((input_shape.h - self.out_h) // 2, (input_shape.w - self.out_w) // 2)

    def input_region(self, out_region, input_index, input_shape, output_shape):
        off_h, off_w = self._offsets(input_shape)
        return Region(
            out_region.rows.shift(off_h), out_region.cols.shift(off_w), out_region.chans
        )

    def macs_for_output(self, out_region, input_shapes) -> int:
        return out_region.num_elements


@dataclasses.dataclass(frozen=True)
class Softmax(Operator):
    """Channel-axis softmax (classifier heads / detection scores)."""

    num_inputs = 1

    def infer_output_shape(self, input_shapes: Sequence[TensorShape]) -> TensorShape:
        _check_arity(self, input_shapes)
        return input_shapes[0]

    def input_region(self, out_region, input_index, input_shape, output_shape):
        # Softmax normalizes over channels, so any output needs the full
        # channel extent at its spatial positions.
        return Region(out_region.rows, out_region.cols, Interval(0, input_shape.c))

    def macs_for_output(self, out_region, input_shapes) -> int:
        return 3 * out_region.num_elements

    @property
    def supports_channel_partition(self) -> bool:
        # Cross-channel normalization would need a partial reduction
        # (Table 1's starred rows); we simply forbid it.
        return False
