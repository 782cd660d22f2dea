"""NumPy reference semantics for every IR operator.

This is the correctness oracle of the repository: the partitioned /
tiled / stratified execution in :mod:`repro.runtime.functional` must
produce bit-identical results to this straightforward whole-tensor
executor.  Weights are synthesized deterministically per layer so any
indexing mistake changes the output.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Sequence

import numpy as np

from repro.ir.graph import Graph, Layer
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
    Pool2D,
    PoolKind,
    Softmax,
    TransposedConv2D,
    Upsample,
    Window2D,
)


def _rng(*key: object) -> np.random.Generator:
    """A generator seeded by a stable digest of ``key``.  Python salts
    ``hash`` of a ``str`` per process, so a seed taken from it would
    give other data in every run and a failing example could not be
    replayed."""
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


def synth_weights(layer: Layer, seed: int = 0) -> Optional[np.ndarray]:
    """Deterministic pseudo-random weights for a layer (None if weightless)."""
    shape = layer.op.weight_shape
    if not shape:
        return None
    return _rng(layer.name, seed).standard_normal(shape).astype(np.float64)


def synth_input(layer: Layer, seed: int = 0) -> np.ndarray:
    """Deterministic input tensor for an Input layer."""
    shape = layer.output_shape.as_tuple()
    return _rng(layer.name, "in", seed).standard_normal(shape).astype(np.float64)


def _apply_activation(x: np.ndarray, kind: Optional[str]) -> np.ndarray:
    if kind is None:
        return x
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "relu6":
        return np.clip(x, 0.0, 6.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    raise ValueError(f"unknown activation {kind!r}")


def _pad_input(x: np.ndarray, window: Window2D) -> np.ndarray:
    pad_h, pad_w = window.pad_total(x.shape[0], x.shape[1])
    top, left = pad_h // 2, pad_w // 2
    return np.pad(
        x,
        ((top, pad_h - top), (left, pad_w - left), (0, 0)),
        mode="constant",
    )


def _window_view(x: np.ndarray, window: Window2D, out_h: int, out_w: int) -> np.ndarray:
    """(out_h, out_w, kh, kw, c) view over padded input via strided slicing."""
    kh, kw = window.kernel_h, window.kernel_w
    sh, sw = window.stride_h, window.stride_w
    dh, dw = window.dilation_h, window.dilation_w
    c = x.shape[2]
    out = np.empty((out_h, out_w, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i * dh, i * dh + out_h * sh, sh)
            cols = slice(j * dw, j * dw + out_w * sw, sw)
            out[:, :, i, j, :] = x[rows, cols, :]
    return out


def conv2d_reference(x: np.ndarray, w: np.ndarray, op: Conv2D) -> np.ndarray:
    out_h, out_w = op.window.out_size(x.shape[0], x.shape[1])
    xp = _pad_input(x, op.window)
    view = _window_view(xp, op.window, out_h, out_w)
    # (oh, ow, kh, kw, cin) x (kh, kw, cin, cout) -> (oh, ow, cout)
    y = np.tensordot(view, w, axes=([2, 3, 4], [0, 1, 2]))
    return _apply_activation(y, op.activation)


def dwconv2d_reference(x: np.ndarray, w: np.ndarray, op: DepthwiseConv2D) -> np.ndarray:
    out_h, out_w = op.window.out_size(x.shape[0], x.shape[1])
    xp = _pad_input(x, op.window)
    view = _window_view(xp, op.window, out_h, out_w)
    # (oh, ow, kh, kw, c) * (kh, kw, c) summed over the window.
    y = np.einsum("hwijc,ijc->hwc", view, w)
    return _apply_activation(y, op.activation)


def pool2d_reference(x: np.ndarray, op: Pool2D) -> np.ndarray:
    out_h, out_w = op.window.out_size(x.shape[0], x.shape[1])
    if op.kind is PoolKind.MAX:
        fill = -np.inf
    else:
        fill = 0.0
    pad_h, pad_w = op.window.pad_total(x.shape[0], x.shape[1])
    top, left = pad_h // 2, pad_w // 2
    xp = np.pad(
        x,
        ((top, pad_h - top), (left, pad_w - left), (0, 0)),
        mode="constant",
        constant_values=fill,
    )
    view = _window_view(xp, op.window, out_h, out_w)
    if op.kind is PoolKind.MAX:
        return view.max(axis=(2, 3))
    # Average pooling counts only in-bounds samples (TF SAME semantics).
    ones = np.pad(
        np.ones_like(x[:, :, :1]),
        ((top, pad_h - top), (left, pad_w - left), (0, 0)),
        mode="constant",
        constant_values=0.0,
    )
    counts = _window_view(ones, op.window, out_h, out_w).sum(axis=(2, 3))
    return view.sum(axis=(2, 3)) / counts


def transposed_conv_reference(
    x: np.ndarray, w: np.ndarray, op: TransposedConv2D
) -> np.ndarray:
    in_h, in_w, _ = x.shape
    out_h = (in_h - 1) * op.stride + op.kernel
    out_w = (in_w - 1) * op.stride + op.kernel
    y = np.zeros((out_h, out_w, op.out_channels), dtype=x.dtype)
    for i in range(in_h):
        for j in range(in_w):
            patch = np.tensordot(x[i, j, :], w, axes=([0], [2]))  # (k, k, cout)
            y[
                i * op.stride : i * op.stride + op.kernel,
                j * op.stride : j * op.stride + op.kernel,
                :,
            ] += patch
    return _apply_activation(y, op.activation)


def upsample_reference(x: np.ndarray, op: Upsample) -> np.ndarray:
    if op.mode == "nearest":
        return np.repeat(np.repeat(x, op.factor_h, axis=0), op.factor_w, axis=1)
    # Bilinear with half-pixel centers, implemented per output pixel so a
    # region-sliced execution can reproduce it exactly.
    in_h, in_w, c = x.shape
    out_h, out_w = in_h * op.factor_h, in_w * op.factor_w
    return bilinear_sample(x, 0, out_h, 0, out_w, op.factor_h, op.factor_w)


def bilinear_sample(
    x: np.ndarray,
    row0: int,
    row1: int,
    col0: int,
    col1: int,
    factor_h: int,
    factor_w: int,
) -> np.ndarray:
    """Bilinear upsample output rows [row0, row1) x cols [col0, col1).

    Half-pixel-center convention; sampling clamps at the borders.  The
    whole array ``x`` is given, so slicing semantics stay exact for any
    output region.
    """
    in_h, in_w, _ = x.shape
    rows = (np.arange(row0, row1) + 0.5) / factor_h - 0.5
    cols = (np.arange(col0, col1) + 0.5) / factor_w - 0.5
    r0 = np.clip(np.floor(rows).astype(int), 0, in_h - 1)
    r1 = np.clip(r0 + 1, 0, in_h - 1)
    c0 = np.clip(np.floor(cols).astype(int), 0, in_w - 1)
    c1 = np.clip(c0 + 1, 0, in_w - 1)
    fr = np.clip(rows - r0, 0.0, 1.0)[:, None, None]
    fc = np.clip(cols - c0, 0.0, 1.0)[None, :, None]
    top = x[r0][:, c0, :] * (1 - fc) + x[r0][:, c1, :] * fc
    bottom = x[r1][:, c0, :] * (1 - fc) + x[r1][:, c1, :] * fc
    return top * (1 - fr) + bottom * fr


def softmax_reference(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def apply_layer(
    layer: Layer,
    inputs: Sequence[np.ndarray],
    weights: Optional[np.ndarray],
) -> np.ndarray:
    """Execute one layer on concrete arrays."""
    op = layer.op
    if isinstance(op, Input):
        raise ValueError("Input layers are not executed")
    if isinstance(op, Conv2D):
        return conv2d_reference(inputs[0], weights, op)
    if isinstance(op, DepthwiseConv2D):
        return dwconv2d_reference(inputs[0], weights, op)
    if isinstance(op, Pool2D):
        return pool2d_reference(inputs[0], op)
    if isinstance(op, GlobalAvgPool):
        return inputs[0].mean(axis=(0, 1), keepdims=True)
    if isinstance(op, Dense):
        flat = inputs[0].reshape(-1)
        y = flat @ weights
        return _apply_activation(y, op.activation).reshape(1, 1, -1)
    if isinstance(op, Add):
        return _apply_activation(inputs[0] + inputs[1], op.activation)
    if isinstance(op, Mul):
        # NumPy broadcasting covers both the equal-shape and 1x1xC cases.
        return _apply_activation(inputs[0] * inputs[1], op.activation)
    if isinstance(op, Concat):
        return np.concatenate(list(inputs), axis=2)
    if isinstance(op, Activation):
        return _apply_activation(inputs[0], op.kind)
    if isinstance(op, Upsample):
        return upsample_reference(inputs[0], op)
    if isinstance(op, TransposedConv2D):
        return transposed_conv_reference(inputs[0], weights, op)
    if isinstance(op, Crop):
        off_h = (inputs[0].shape[0] - op.out_h) // 2
        off_w = (inputs[0].shape[1] - op.out_w) // 2
        return inputs[0][off_h : off_h + op.out_h, off_w : off_w + op.out_w, :]
    if isinstance(op, Softmax):
        return softmax_reference(inputs[0])
    raise NotImplementedError(f"no reference semantics for {op.type_name}")


def run_reference(
    graph: Graph,
    inputs: Optional[Dict[str, np.ndarray]] = None,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Execute the whole graph; returns every layer's output tensor."""
    values: Dict[str, np.ndarray] = {}
    for layer in graph.layers():
        if layer.is_input:
            if inputs is not None and layer.name in inputs:
                values[layer.name] = np.asarray(inputs[layer.name], dtype=np.float64)
            else:
                values[layer.name] = synth_input(layer, seed)
            continue
        ins = [values[src] for src in layer.inputs]
        weights = synth_weights(layer, seed)
        out = apply_layer(layer, ins, weights)
        expected = layer.output_shape.as_tuple()
        if tuple(out.shape) != expected:
            raise AssertionError(
                f"{layer.name}: reference produced {out.shape}, IR says {expected}"
            )
        values[layer.name] = out
    return values
