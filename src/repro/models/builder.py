"""Convenience builder for constructing DNN graphs.

Models in the zoo are *structural* reproductions: layer topology, shapes,
strides and data types match the published architectures, which is all
the compiler and the timing model consume.  Batch-norm layers are folded
into their preceding convolutions (standard for INT8 deployment, and what
an NPU toolchain does before compilation), so they do not appear as graph
nodes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.dtypes import DataType
from repro.ir.graph import Graph
from repro.ir.ops import (
    Activation,
    Add,
    Concat,
    Conv2D,
    Crop,
    Dense,
    DepthwiseConv2D,
    GlobalAvgPool,
    Input,
    Mul,
    Padding,
    Pool2D,
    PoolKind,
    Softmax,
    TransposedConv2D,
    Upsample,
    Window2D,
)
from repro.ir.tensor import TensorShape


class GraphBuilder:
    """Fluent construction of a Graph; methods return layer names."""

    def __init__(self, name: str, dtype: DataType = DataType.INT8) -> None:
        self.graph = Graph(name)
        self.dtype = dtype
        self._counts = {}

    # ------------------------------------------------------------------ util

    def _name(self, prefix: str, explicit: Optional[str]) -> str:
        if explicit is not None:
            return explicit
        n = self._counts.get(prefix, 0)
        self._counts[prefix] = n + 1
        return f"{prefix}{n}"

    def shape(self, layer: str) -> TensorShape:
        return self.graph.layer(layer).output_shape

    def channels(self, layer: str) -> int:
        return self.shape(layer).c

    def build(self) -> Graph:
        self.graph.validate()
        return self.graph

    # ------------------------------------------------------------------- ops

    def input(
        self, h: int, w: int, c: int, name: Optional[str] = None
    ) -> str:
        name = self._name("input", name)
        self.graph.add(name, Input(TensorShape(h, w, c)), dtype=self.dtype)
        return name

    def conv(
        self,
        x: str,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        dilation: int = 1,
        padding: Padding = Padding.SAME,
        kernel_w: Optional[int] = None,
        activation: Optional[str] = "relu",
        name: Optional[str] = None,
    ) -> str:
        name = self._name("conv", name)
        window = Window2D(
            kernel_h=kernel,
            kernel_w=kernel_w if kernel_w is not None else kernel,
            stride_h=stride,
            stride_w=stride,
            dilation_h=dilation,
            dilation_w=dilation,
            padding=padding,
        )
        op = Conv2D(
            out_channels=out_channels,
            in_channels=self.channels(x),
            window=window,
            activation=activation,
        )
        self.graph.add(name, op, [x], dtype=self.dtype)
        return name

    def dwconv(
        self,
        x: str,
        kernel: int = 3,
        stride: int = 1,
        dilation: int = 1,
        padding: Padding = Padding.SAME,
        activation: Optional[str] = "relu",
        name: Optional[str] = None,
    ) -> str:
        name = self._name("dwconv", name)
        op = DepthwiseConv2D(
            channels=self.channels(x),
            window=Window2D.square(kernel, stride, dilation, padding),
            activation=activation,
        )
        self.graph.add(name, op, [x], dtype=self.dtype)
        return name

    def maxpool(
        self,
        x: str,
        kernel: int = 2,
        stride: Optional[int] = None,
        padding: Padding = Padding.VALID,
        name: Optional[str] = None,
    ) -> str:
        name = self._name("maxpool", name)
        stride = kernel if stride is None else stride
        op = Pool2D(PoolKind.MAX, Window2D.square(kernel, stride, padding=padding))
        self.graph.add(name, op, [x], dtype=self.dtype)
        return name

    def avgpool(
        self,
        x: str,
        kernel: int = 2,
        stride: Optional[int] = None,
        padding: Padding = Padding.SAME,
        name: Optional[str] = None,
    ) -> str:
        name = self._name("avgpool", name)
        stride = kernel if stride is None else stride
        op = Pool2D(PoolKind.AVG, Window2D.square(kernel, stride, padding=padding))
        self.graph.add(name, op, [x], dtype=self.dtype)
        return name

    def global_avgpool(self, x: str, name: Optional[str] = None) -> str:
        name = self._name("gap", name)
        self.graph.add(name, GlobalAvgPool(), [x], dtype=self.dtype)
        return name

    def dense(
        self,
        x: str,
        units: int,
        activation: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        name = self._name("dense", name)
        op = Dense(
            out_features=units,
            in_features=self.shape(x).num_elements,
            activation=activation,
        )
        self.graph.add(name, op, [x], dtype=self.dtype)
        return name

    def add(
        self,
        a: str,
        b: str,
        activation: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        name = self._name("add", name)
        self.graph.add(name, Add(activation=activation), [a, b], dtype=self.dtype)
        return name

    def mul(
        self,
        a: str,
        b: str,
        activation: Optional[str] = None,
        name: Optional[str] = None,
    ) -> str:
        name = self._name("mul", name)
        self.graph.add(name, Mul(activation=activation), [a, b], dtype=self.dtype)
        return name

    def squeeze_excite(self, x: str, ratio: int = 4, prefix: Optional[str] = None) -> str:
        """Squeeze-and-excitation gate: GAP -> FC-reduce -> FC-expand -> scale."""
        prefix = prefix or self._name("se", None)
        channels = self.channels(x)
        squeezed = max(8, channels // ratio)
        s = self.global_avgpool(x, name=f"{prefix}_pool")
        s = self.conv(s, squeezed, kernel=1, activation="relu", name=f"{prefix}_reduce")
        s = self.conv(s, channels, kernel=1, activation="sigmoid", name=f"{prefix}_expand")
        return self.mul(x, s, name=f"{prefix}_scale")

    def concat(self, xs: Sequence[str], name: Optional[str] = None) -> str:
        name = self._name("concat", name)
        self.graph.add(name, Concat(), list(xs), dtype=self.dtype)
        return name

    def relu(self, x: str, name: Optional[str] = None) -> str:
        name = self._name("relu", name)
        self.graph.add(name, Activation("relu"), [x], dtype=self.dtype)
        return name

    def upsample(
        self,
        x: str,
        factor: int,
        mode: str = "bilinear",
        name: Optional[str] = None,
    ) -> str:
        name = self._name("up", name)
        self.graph.add(
            name, Upsample(factor_h=factor, factor_w=factor, mode=mode), [x],
            dtype=self.dtype,
        )
        return name

    def deconv(
        self,
        x: str,
        out_channels: int,
        kernel: int = 2,
        stride: int = 2,
        name: Optional[str] = None,
    ) -> str:
        name = self._name("deconv", name)
        op = TransposedConv2D(
            out_channels=out_channels,
            in_channels=self.channels(x),
            kernel=kernel,
            stride=stride,
        )
        self.graph.add(name, op, [x], dtype=self.dtype)
        return name

    def crop(self, x: str, h: int, w: int, name: Optional[str] = None) -> str:
        name = self._name("crop", name)
        self.graph.add(name, Crop(out_h=h, out_w=w), [x], dtype=self.dtype)
        return name

    def softmax(self, x: str, name: Optional[str] = None) -> str:
        name = self._name("softmax", name)
        self.graph.add(name, Softmax(), [x], dtype=self.dtype)
        return name

    # ------------------------------------------------------- common patterns

    def inverted_residual(
        self,
        x: str,
        out_channels: int,
        expansion: int,
        stride: int = 1,
        dilation: int = 1,
        prefix: Optional[str] = None,
    ) -> str:
        """MobileNetV2 inverted residual block (expand, dwconv, project)."""
        in_channels = self.channels(x)
        hidden = in_channels * expansion
        prefix = prefix or self._name("ir", None)
        y = x
        if expansion != 1:
            y = self.conv(
                y, hidden, kernel=1, activation="relu6", name=f"{prefix}_expand"
            )
        y = self.dwconv(
            y,
            kernel=3,
            stride=stride,
            dilation=dilation,
            activation="relu6",
            name=f"{prefix}_dw",
        )
        y = self.conv(
            y, out_channels, kernel=1, activation=None, name=f"{prefix}_project"
        )
        if stride == 1 and in_channels == out_channels:
            y = self.add(x, y, name=f"{prefix}_add")
        return y
