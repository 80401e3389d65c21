"""Tests for the numpy NN layers: forward semantics and gradients."""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
)
from repro.nn.quant import QuantMode, QuantSpec


def num_parameters(model):
    """Trainable scalars of ``model``: every parameter array's size."""
    return sum(p.size for p, _ in model.params_and_grads())


def _numerical_grad(f, x, eps=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestConv2d:
    def test_output_shape(self):
        conv = Conv2d(3, 8, 3)
        out = conv.forward(np.zeros((2, 10, 10, 3)))
        assert out.shape == (2, 8, 8, 8)

    def test_padding(self):
        conv = Conv2d(3, 8, 3, pad=1)
        out = conv.forward(np.zeros((2, 10, 10, 3)))
        assert out.shape == (2, 10, 10, 8)

    def test_stride(self):
        conv = Conv2d(1, 4, 3, stride=2)
        out = conv.forward(np.zeros((1, 11, 11, 1)))
        assert out.shape == (1, 5, 5, 4)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(2, 3, 2, seed=1)
        x = rng.standard_normal((1, 4, 4, 2))
        out = conv.forward(x)
        # Direct loop check of one output position.
        w = conv.weight.reshape(2, 2, 2, 3)
        expect = (x[0, 1:3, 2:4, :, None] * w).sum(axis=(0, 1, 2)) + conv.bias
        np.testing.assert_allclose(out[0, 1, 2], expect)

    def test_input_gradient(self):
        rng = np.random.default_rng(1)
        conv = Conv2d(2, 3, 2, seed=2)
        x = rng.standard_normal((2, 5, 5, 2))

        def loss():
            return float(conv.forward(x).sum())

        loss()
        grad = conv.backward(np.ones((2, 4, 4, 3)))
        num = _numerical_grad(loss, x)
        np.testing.assert_allclose(grad, num, atol=1e-4)

    def test_weight_gradient(self):
        rng = np.random.default_rng(2)
        conv = Conv2d(1, 2, 2, seed=3)
        x = rng.standard_normal((1, 4, 4, 1))

        def loss():
            return float(conv.forward(x).sum())

        loss()
        conv.backward(np.ones((1, 3, 3, 2)))
        num = _numerical_grad(loss, conv.weight)
        np.testing.assert_allclose(conv.grad_weight, num, atol=1e-4)

    def test_quantised_forward_differs(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(2, 3, 3, seed=4)
        x = rng.standard_normal((1, 6, 6, 2))
        fp = conv.forward(x)
        q = conv.forward(x, QuantSpec(QuantMode.USYSTOLIC, 6))
        assert not np.allclose(fp, q)
        assert np.abs(fp - q).mean() / np.abs(fp).mean() < 0.5


class TestSimpleLayers:
    def test_relu(self):
        r = ReLU()
        out = r.forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])
        grad = r.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_allclose(grad, [[0.0, 5.0]])

    def test_maxpool_forward(self):
        p = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = p.forward(x)
        np.testing.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_max(self):
        p = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        p.forward(x)
        gx = p.backward(np.ones((1, 2, 2, 1)))
        assert gx[0, 1, 1, 0] == 1.0  # position of 5
        assert gx[0, 0, 0, 0] == 0.0

    def test_maxpool_truncation_gradient_shape(self):
        p = MaxPool2d(2)
        x = np.random.default_rng(0).standard_normal((1, 5, 5, 2))
        p.forward(x)
        gx = p.backward(np.ones((1, 2, 2, 2)))
        assert gx.shape == x.shape
        assert (gx[:, 4, :, :] == 0).all()

    def test_flatten_roundtrip(self):
        f = Flatten()
        x = np.zeros((2, 3, 3, 4))
        out = f.forward(x)
        assert out.shape == (2, 36)
        assert f.backward(out).shape == x.shape

    def test_global_avg_pool(self):
        g = GlobalAvgPool()
        x = np.ones((2, 4, 4, 3)) * 2.0
        np.testing.assert_allclose(g.forward(x), 2.0 * np.ones((2, 3)))
        gx = g.backward(np.ones((2, 3)))
        np.testing.assert_allclose(gx, np.ones((2, 4, 4, 3)) / 16)

    def test_linear_gradients(self):
        rng = np.random.default_rng(4)
        lin = Linear(5, 3, seed=5)
        x = rng.standard_normal((2, 5))

        def loss():
            return float(lin.forward(x).sum())

        loss()
        gx = lin.backward(np.ones((2, 3)))
        np.testing.assert_allclose(gx, _numerical_grad(loss, x), atol=1e-5)
        np.testing.assert_allclose(
            lin.grad_weight, _numerical_grad(loss, lin.weight), atol=1e-5
        )


class TestContainers:
    def test_residual_forward(self):
        inner = Sequential(Linear(4, 4, seed=6))
        res = Residual(inner)
        x = np.ones((2, 4))
        np.testing.assert_allclose(
            res.forward(x), x + inner.forward(x)
        )

    def test_residual_gradient_includes_skip(self):
        inner = Sequential(Linear(3, 3, seed=7))
        res = Residual(inner)
        x = np.random.default_rng(1).standard_normal((1, 3))

        def loss():
            return float(res.forward(x).sum())

        loss()
        gx = res.backward(np.ones((1, 3)))
        np.testing.assert_allclose(gx, _numerical_grad(loss, x), atol=1e-5)

    def test_sequential_param_collection(self):
        model = Sequential(Linear(4, 8, seed=8), ReLU(), Linear(8, 2, seed=9))
        pairs = model.params_and_grads()
        assert len(pairs) == 4  # two weights + two biases
        assert num_parameters(model) == 4 * 8 + 8 + 8 * 2 + 2

    def test_backward_not_implemented_default(self):
        class Dummy(Sequential):
            pass

        from repro.nn.layers import Layer

        class NoBack(Layer):
            def forward(self, x, spec=None):
                return x

        with pytest.raises(NotImplementedError):
            NoBack().backward(np.zeros(1))
