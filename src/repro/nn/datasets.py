"""Synthetic image-classification datasets of graded difficulty.

The paper evaluates on MNIST, CIFAR10 and ImageNet; those are unavailable
offline, so three procedural stand-ins provide the same *difficulty
gradient*, which is what Figure 9's shape depends on (easy tasks tolerate
aggressive early termination, hard tasks don't):

- ``easy``   — 10 well-separated digit-like glyph classes, light noise
               (MNIST stand-in);
- ``medium`` — 10 textured multi-channel classes with jitter and stronger
               noise (CIFAR10 stand-in);
- ``hard``   — 20 classes built from overlapping prototype mixtures with
               heavy noise and distractors (ImageNet stand-in, scaled).

Every dataset is deterministic given its seed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["Dataset", "make_dataset", "DIFFICULTIES"]

DIFFICULTIES = ("easy", "medium", "hard")


@dataclasses.dataclass(frozen=True)
class Dataset:
    """Train/test split of one synthetic task."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.x_train.shape[1:]


def _glyph_prototypes(num_classes: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth random glyphs: low-frequency patterns that CNN kernels like."""
    protos = np.zeros((num_classes, size, size))
    freqs = rng.uniform(0.5, 2.0, size=(num_classes, 2))
    phases = rng.uniform(0, 2 * np.pi, size=(num_classes, 2))
    yy, xx = np.meshgrid(np.linspace(0, np.pi, size), np.linspace(0, np.pi, size))
    for k in range(num_classes):
        protos[k] = np.sin(freqs[k, 0] * 2 * yy + phases[k, 0]) * np.cos(
            freqs[k, 1] * 2 * xx + phases[k, 1]
        )
        # A class-specific blob to break symmetry.
        cy, cx = rng.integers(2, size - 2, size=2)
        protos[k, cy - 1 : cy + 2, cx - 1 : cx + 2] += 1.5
    return protos


def _render(
    protos: np.ndarray,
    labels: np.ndarray,
    channels: int,
    noise: float,
    jitter: int,
    mix: float,
    rng: np.random.Generator,
) -> np.ndarray:
    n = labels.size
    size = protos.shape[1]
    x = np.empty((n, size, size, channels))
    num_classes = protos.shape[0]
    # Per-image loop pins the RNG draw order; vectorising would reorder
    # the stream and change every generated dataset byte.
    for i, label in enumerate(labels):
        img = protos[label].copy()
        if mix > 0:
            other = int(rng.integers(num_classes))
            img = (1 - mix) * img + mix * protos[other]
        if jitter:
            dy, dx = rng.integers(-jitter, jitter + 1, size=2)
            img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
        for c in range(channels):
            scale = 1.0 + 0.1 * c
            x[i, :, :, c] = scale * img + noise * rng.standard_normal((size, size))
    return x


def make_dataset(
    difficulty: str,
    train: int = 512,
    test: int = 200,
    size: int = 12,
    seed: int = 0,
) -> Dataset:
    """Build the synthetic dataset for one difficulty level."""
    if difficulty not in DIFFICULTIES:
        raise ValueError(f"difficulty must be one of {DIFFICULTIES}")
    # Stable per-difficulty seed offsets (str hash is process-salted).
    rng = np.random.default_rng(seed + {"easy": 1, "medium": 2, "hard": 7}[difficulty])
    settings = {
        "easy": dict(classes=10, channels=1, noise=0.20, jitter=0, mix=0.0),
        "medium": dict(classes=10, channels=3, noise=0.45, jitter=1, mix=0.10),
        "hard": dict(classes=20, channels=3, noise=0.60, jitter=1, mix=0.15),
    }[difficulty]
    protos = _glyph_prototypes(settings["classes"], size, rng)
    y_train = rng.integers(settings["classes"], size=train)
    y_test = rng.integers(settings["classes"], size=test)
    x_train = _render(
        protos,
        y_train,
        settings["channels"],
        settings["noise"],
        settings["jitter"],
        settings["mix"],
        rng,
    )
    x_test = _render(
        protos,
        y_test,
        settings["channels"],
        settings["noise"],
        settings["jitter"],
        settings["mix"],
        rng,
    )
    return Dataset(
        name=difficulty,
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        num_classes=settings["classes"],
    )
