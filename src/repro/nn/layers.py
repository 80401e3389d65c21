"""Pure-numpy neural-network layers with pluggable GEMM backends.

Forward passes route every GEMM (convolution via im2col, fully-connected
directly) through a :class:`~repro.nn.quant.QuantSpec`, so one trained
model can be evaluated under FP32, fixed-point, or bit-exact uSystolic
arithmetic — the Figure 9 experiment.  Backward passes are float-only (the
paper performs no accuracy-preserving retraining; training happens in FP32
and quantisation is post-hoc).

Tensor layout: (batch, height, width, channels) for images, (batch,
features) after flattening.
"""

from __future__ import annotations

import abc

import numpy as np

from ..gemm.im2col import im2col_windows
from .quant import QuantMode, QuantSpec, quantized_gemm

__all__ = [
    "Layer",
    "Conv2d",
    "Linear",
    "ReLU",
    "MaxPool2d",
    "Flatten",
    "GlobalAvgPool",
    "Residual",
    "Sequential",
]

FP32 = QuantSpec(QuantMode.FP32)


class Layer(abc.ABC):
    """Base layer: forward with a quant spec, float backward for training."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        """Compute outputs; caches whatever backward needs."""

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate gradients (FP32 training only)."""
        raise NotImplementedError(f"{type(self).__name__} has no backward")

    def params_and_grads(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs for the optimiser."""
        return []

    def __call__(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        return self.forward(x, spec)


class Conv2d(Layer):
    """Valid-padding convolution lowered to GEMM (pad inputs upstream)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        fan_in = kernel * kernel * in_channels
        self.weight = rng.standard_normal((fan_in, out_channels)) * np.sqrt(
            2.0 / fan_in
        )
        self.bias = np.zeros(out_channels)
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        if self.pad:
            x = np.pad(
                x, ((0, 0), (self.pad, self.pad), (self.pad, self.pad), (0, 0))
            )
        self._x_shape = x.shape
        cols = im2col_windows(x, self.kernel, self.kernel, self.stride)
        b, oh, ow, k = cols.shape
        self._cols = cols.reshape(b * oh * ow, k)
        out = quantized_gemm(self._cols, self.weight, spec) + self.bias
        return out.reshape(b, oh, ow, -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        b, oh, ow, oc = grad.shape
        gmat = grad.reshape(-1, oc)
        self.grad_weight = self._cols.T @ gmat
        self.grad_bias = gmat.sum(axis=0)
        gcols = gmat @ self.weight.T
        # col2im: scatter patch gradients back onto the (padded) input.
        _, h, w, c = self._x_shape
        gx = np.zeros((b, h, w, c))
        gcols = gcols.reshape(b, oh, ow, self.kernel, self.kernel, c)
        s = self.stride
        for i in range(oh):
            for j in range(ow):
                gx[:, i * s : i * s + self.kernel, j * s : j * s + self.kernel, :] += (
                    gcols[:, i, j]
                )
        if self.pad:
            gx = gx[:, self.pad : h - self.pad, self.pad : w - self.pad, :]
        return gx

    def params_and_grads(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.weight, self.grad_weight), (self.bias, self.grad_bias)]


class Linear(Layer):
    """Fully-connected layer: (B, K) @ (K, OC) + bias."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.weight = rng.standard_normal((in_features, out_features)) * np.sqrt(
            2.0 / in_features
        )
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        self._x = x
        return quantized_gemm(x, self.weight, spec) + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.grad_weight = self._x.T @ grad
        self.grad_bias = grad.sum(axis=0)
        return grad @ self.weight.T

    def params_and_grads(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(self.weight, self.grad_weight), (self.bias, self.grad_bias)]


class ReLU(Layer):
    """Rectified linear unit: max(x, 0) with a pass-through mask gradient."""

    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class MaxPool2d(Layer):
    """Non-overlapping max pooling."""

    def __init__(self, size: int = 2) -> None:
        self.size = size

    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        b, h, w, c = x.shape
        s = self.size
        oh, ow = h // s, w // s
        self._in_shape = x.shape
        cropped = x[:, : oh * s, : ow * s, :]
        windows = cropped.reshape(b, oh, s, ow, s, c)
        out = windows.max(axis=(2, 4))
        self._argmask = windows == out[:, :, None, :, None, :]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        b, oh, ow, c = grad.shape
        s = self.size
        expanded = (grad[:, :, None, :, None, :] * self._argmask).reshape(
            b, oh * s, ow * s, c
        )
        # Rows/columns cropped by non-divisible inputs get zero gradient.
        gx = np.zeros(self._in_shape)
        gx[:, : oh * s, : ow * s, :] = expanded
        return gx


class Flatten(Layer):
    """Collapse every non-batch axis into one feature vector."""

    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class GlobalAvgPool(Layer):
    """Average over the spatial axes, one value per channel."""

    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        b, h, w, c = self._shape
        return np.broadcast_to(grad[:, None, None, :], self._shape) / (h * w)


class Residual(Layer):
    """Residual block: ``x + inner(x)`` (the ResNet-style skip)."""

    def __init__(self, inner: "Sequential") -> None:
        self.inner = inner

    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        return x + self.inner.forward(x, spec)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad + self.inner.backward(grad)

    def params_and_grads(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.inner.params_and_grads()


class Sequential(Layer):
    """Layer container; also the top-level model type."""

    def __init__(self, *layers: Layer) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, spec: QuantSpec = FP32) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, spec)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params_and_grads(self) -> list[tuple[np.ndarray, np.ndarray]]:
        pairs = []
        for layer in self.layers:
            pairs.extend(layer.params_and_grads())
        return pairs

