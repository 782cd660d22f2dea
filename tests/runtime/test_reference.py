"""Reference operator semantics against brute-force / hand computations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ir import (
    Add,
    Concat,
    Conv2D,
    Crop,
    Dense,
    DepthwiseConv2D,
    GlobalAvgPool,
    Graph,
    Input,
    Padding,
    Pool2D,
    PoolKind,
    Softmax,
    TensorShape,
    TransposedConv2D,
    Upsample,
    Window2D,
)
from repro.runtime.reference import (
    apply_layer,
    conv2d_reference,
    run_reference,
    synth_input,
    synth_weights,
)


def brute_conv(x, w, stride, pad, dilation=1):
    kh, kw, cin, cout = w.shape
    in_h, in_w, _ = x.shape
    eff_h = dilation * (kh - 1) + 1
    out_h = (in_h + 2 * pad - eff_h) // stride + 1
    out_w = (in_w + 2 * pad - eff_h) // stride + 1
    y = np.zeros((out_h, out_w, cout))
    for oh in range(out_h):
        for ow in range(out_w):
            for i in range(kh):
                for j in range(kw):
                    r = oh * stride - pad + i * dilation
                    c = ow * stride - pad + j * dilation
                    if 0 <= r < in_h and 0 <= c < in_w:
                        y[oh, ow, :] += x[r, c, :] @ w[i, j, :, :]
    return y


class TestConvReference:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_valid_conv_matches_bruteforce(self, kernel, stride):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 9, 3))
        w = rng.standard_normal((kernel, kernel, 3, 4))
        op = Conv2D(
            out_channels=4,
            in_channels=3,
            window=Window2D.square(kernel, stride, padding=Padding.VALID),
            activation=None,
        )
        got = conv2d_reference(x, w, op)
        want = brute_conv(x, w, stride, pad=0)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_same_conv_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 8, 2))
        w = rng.standard_normal((3, 3, 2, 5))
        op = Conv2D(
            out_channels=5, in_channels=2, window=Window2D.square(3), activation=None
        )
        got = conv2d_reference(x, w, op)
        want = brute_conv(x, w, stride=1, pad=1)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_dilated_conv_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 10, 2))
        w = rng.standard_normal((3, 3, 2, 3))
        op = Conv2D(
            out_channels=3,
            in_channels=2,
            window=Window2D.square(3, dilation=2, padding=Padding.VALID),
            activation=None,
        )
        got = conv2d_reference(x, w, op)
        want = brute_conv(x, w, stride=1, pad=0, dilation=2)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_relu_applied(self):
        x = -np.ones((4, 4, 1))
        w = np.ones((1, 1, 1, 1))
        op = Conv2D(
            out_channels=1, in_channels=1, window=Window2D.square(1), activation="relu"
        )
        assert conv2d_reference(x, w, op).max() == 0.0

    def test_relu6_clips(self):
        x = np.full((2, 2, 1), 10.0)
        w = np.ones((1, 1, 1, 1))
        op = Conv2D(
            out_channels=1, in_channels=1, window=Window2D.square(1), activation="relu6"
        )
        assert conv2d_reference(x, w, op).max() == 6.0


class TestOtherOps:
    def _layer(self, op, *shapes, dtype=None):
        g = Graph("g")
        names = []
        for i, s in enumerate(shapes):
            g.add(f"in{i}", Input(s))
            names.append(f"in{i}")
        g.add("x", op, names)
        return g.layer("x")

    def test_depthwise(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 6, 3))
        w = rng.standard_normal((3, 3, 3))
        layer = self._layer(
            DepthwiseConv2D(
                channels=3,
                window=Window2D.square(3, padding=Padding.VALID),
                activation=None,
            ),
            TensorShape(6, 6, 3),
        )
        got = apply_layer(layer, [x], w)
        # per-channel brute force
        want = np.zeros((4, 4, 3))
        for c in range(3):
            for oh in range(4):
                for ow in range(4):
                    want[oh, ow, c] = np.sum(
                        x[oh : oh + 3, ow : ow + 3, c] * w[:, :, c]
                    )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_maxpool(self):
        x = np.arange(16, dtype=float).reshape(4, 4, 1)
        layer = self._layer(
            Pool2D(PoolKind.MAX, Window2D.square(2, 2, padding=Padding.VALID)),
            TensorShape(4, 4, 1),
        )
        got = apply_layer(layer, [x], None)
        np.testing.assert_array_equal(got[:, :, 0], [[5, 7], [13, 15]])

    def test_avgpool_same_excludes_padding(self):
        x = np.ones((3, 3, 1))
        layer = self._layer(
            Pool2D(PoolKind.AVG, Window2D.square(3, 1, padding=Padding.SAME)),
            TensorShape(3, 3, 1),
        )
        got = apply_layer(layer, [x], None)
        # average of ones must be one everywhere, corners included.
        np.testing.assert_allclose(got, np.ones((3, 3, 1)))

    def test_global_avgpool(self):
        x = np.arange(8, dtype=float).reshape(2, 2, 2)
        layer = self._layer(GlobalAvgPool(), TensorShape(2, 2, 2))
        got = apply_layer(layer, [x], None)
        np.testing.assert_allclose(got[0, 0], x.mean(axis=(0, 1)))

    def test_dense(self):
        x = np.arange(6, dtype=float).reshape(1, 2, 3)
        w = np.eye(6, 4)
        layer = self._layer(
            Dense(out_features=4, in_features=6), TensorShape(1, 2, 3)
        )
        got = apply_layer(layer, [x], w)
        np.testing.assert_allclose(got.reshape(-1), x.reshape(-1)[:4])

    def test_add(self):
        a = np.ones((2, 2, 1))
        layer = self._layer(Add(), TensorShape(2, 2, 1), TensorShape(2, 2, 1))
        np.testing.assert_allclose(apply_layer(layer, [a, 2 * a], None), 3 * a)

    def test_concat(self):
        a = np.zeros((2, 2, 1))
        b = np.ones((2, 2, 2))
        layer = self._layer(Concat(), TensorShape(2, 2, 1), TensorShape(2, 2, 2))
        got = apply_layer(layer, [a, b], None)
        assert got.shape == (2, 2, 3)
        assert got[0, 0, 0] == 0 and got[0, 0, 1] == 1

    def test_upsample_nearest(self):
        x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
        layer = self._layer(
            Upsample(factor_h=2, factor_w=2, mode="nearest"), TensorShape(2, 2, 1)
        )
        got = apply_layer(layer, [x], None)
        np.testing.assert_array_equal(
            got[:, :, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
        )

    def test_upsample_bilinear_preserves_constants(self):
        x = np.full((3, 3, 2), 7.0)
        layer = self._layer(
            Upsample(factor_h=2, factor_w=2, mode="bilinear"), TensorShape(3, 3, 2)
        )
        got = apply_layer(layer, [x], None)
        np.testing.assert_allclose(got, np.full((6, 6, 2), 7.0))

    def test_transposed_conv_ones(self):
        x = np.ones((2, 2, 1))
        w = np.ones((2, 2, 1, 1))
        layer = self._layer(
            TransposedConv2D(
                out_channels=1, in_channels=1, kernel=2, stride=2, activation=None
            ),
            TensorShape(2, 2, 1),
        )
        got = apply_layer(layer, [x], w)
        # stride == kernel: disjoint placement, all ones.
        np.testing.assert_allclose(got, np.ones((4, 4, 1)))

    def test_crop_center(self):
        x = np.arange(16, dtype=float).reshape(4, 4, 1)
        layer = self._layer(Crop(out_h=2, out_w=2), TensorShape(4, 4, 1))
        got = apply_layer(layer, [x], None)
        np.testing.assert_array_equal(got[:, :, 0], [[5, 6], [9, 10]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3, 7))
        layer = self._layer(Softmax(), TensorShape(3, 3, 7))
        got = apply_layer(layer, [x], None)
        np.testing.assert_allclose(got.sum(axis=-1), np.ones((3, 3)), atol=1e-12)


class TestRunReference:
    def test_shapes_checked(self, mixed_graph=None):
        from tests.conftest import make_mixed_graph

        g = make_mixed_graph()
        values = run_reference(g)
        for layer in g.layers():
            assert values[layer.name].shape == layer.output_shape.as_tuple()

    def test_deterministic(self):
        from tests.conftest import make_chain_graph

        g = make_chain_graph()
        a = run_reference(g, seed=7)
        b = run_reference(g, seed=7)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_seed_changes_data(self):
        from tests.conftest import make_chain_graph

        g = make_chain_graph()
        a = run_reference(g, seed=1)["c1"]
        b = run_reference(g, seed=2)["c1"]
        assert not np.array_equal(a, b)

    def test_custom_inputs_respected(self):
        from tests.conftest import make_chain_graph

        g = make_chain_graph()
        x = np.zeros(g.layer("in").output_shape.as_tuple())
        values = run_reference(g, inputs={"in": x})
        np.testing.assert_array_equal(values["in"], x)

    def test_synth_weights_depend_on_name(self):
        from tests.conftest import make_chain_graph

        g = make_chain_graph()
        w1 = synth_weights(g.layer("c2"))
        w2 = synth_weights(g.layer("c3"))
        assert not np.array_equal(w1, w2)

    def test_same_data_in_every_process(self):
        """Python salts ``str`` hashes per process: the data must not
        depend on them, or a failing example could not be replayed."""
        script = (
            "import hashlib\n"
            "from repro.runtime import run_reference\n"
            "from tests.conftest import make_chain_graph\n"
            "values = run_reference(make_chain_graph())\n"
            "digest = hashlib.sha256()\n"
            "for name in sorted(values):\n"
            "    digest.update(name.encode() + values[name].tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        root = Path(__file__).resolve().parents[2]
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            run = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert run.returncode == 0, run.stderr
            digests.add(run.stdout.strip())
        assert len(digests) == 1, digests

    def test_synth_input_shape(self):
        from tests.conftest import make_chain_graph

        g = make_chain_graph()
        x = synth_input(g.layer("in"))
        assert x.shape == g.layer("in").output_shape.as_tuple()
