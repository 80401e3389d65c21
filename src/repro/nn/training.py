"""Minimal FP32 trainer: SGD with momentum on softmax cross-entropy.

The paper performs no accuracy-preserving retraining; models are trained
once in float and then evaluated under each computing scheme, which is
exactly the flow here.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .datasets import Dataset
from .layers import Sequential

__all__ = ["TrainResult", "softmax_cross_entropy", "train", "evaluate_fp32"]


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean CE loss and gradient w.r.t. logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = labels.size
    if n == 0:
        raise ValueError("empty batch")
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@dataclasses.dataclass(frozen=True)
class TrainResult:
    """Trained model plus its learning curve."""

    model: Sequential
    losses: list[float]
    test_accuracy: float


def train(
    model: Sequential,
    dataset: Dataset,
    epochs: int = 8,
    batch_size: int = 32,
    lr: float = 0.05,
    momentum: float = 0.9,
    seed: int = 0,
) -> TrainResult:
    """SGD-train ``model`` in FP32 on ``dataset``."""
    rng = np.random.default_rng(seed)
    x, y = dataset.x_train, dataset.y_train
    velocity = [np.zeros_like(p) for p, _ in model.params_and_grads()]
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            logits = model.forward(x[idx])
            loss, grad = softmax_cross_entropy(logits, y[idx])
            model.backward(grad)
            for v, (p, g) in zip(velocity, model.params_and_grads()):
                v *= momentum
                v -= lr * g
                p += v
            losses.append(loss)
    return TrainResult(
        model=model,
        losses=losses,
        test_accuracy=evaluate_fp32(model, dataset.x_test, dataset.y_test),
    )


def evaluate_fp32(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy in float."""
    logits = model.forward(x)
    return float((logits.argmax(axis=1) == y).mean())
