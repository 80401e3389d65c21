"""CNN model builders standing in for the paper's three networks.

Scaled to what a pure-numpy trainer handles while keeping each network's
*architectural* character:

- :func:`mnist4` — the paper's small 4-layer CNN (2 conv + 2 FC);
- :func:`resnet_mini` — residual blocks with skip connections, the
  ResNet18 stand-in;
- :func:`alexnet_mini` — a deeper plain conv stack with a large FC head,
  the AlexNet stand-in (AlexNet's parameter mass lives in its FCs, which
  this preserves proportionally).
"""

from __future__ import annotations

from .layers import (
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
)

__all__ = ["mnist4", "resnet_mini", "alexnet_mini"]


def mnist4(input_shape: tuple[int, int, int], num_classes: int) -> Sequential:
    """4-layer CNN: conv-pool-conv-pool-fc-fc."""
    h, w, c = input_shape
    after = ((h - 2) // 2 - 2) // 2  # two valid 3x3 convs + two 2x2 pools
    return Sequential(
        Conv2d(c, 8, 3, seed=1),
        ReLU(),
        MaxPool2d(2),
        Conv2d(8, 16, 3, seed=2),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(after * after * 16, 32, seed=3),
        ReLU(),
        Linear(32, num_classes, seed=4),
    )


def _res_block(channels: int, seed: int) -> Residual:
    return Residual(
        Sequential(
            Conv2d(channels, channels, 3, pad=1, seed=seed),
            ReLU(),
            Conv2d(channels, channels, 3, pad=1, seed=seed + 1),
        )
    )


def resnet_mini(input_shape: tuple[int, int, int], num_classes: int) -> Sequential:
    """Residual CNN: stem conv, two residual blocks, global pool, FC."""
    _, _, c = input_shape
    width = 12
    return Sequential(
        Conv2d(c, width, 3, pad=1, seed=10),
        ReLU(),
        _res_block(width, seed=11),
        ReLU(),
        MaxPool2d(2),
        _res_block(width, seed=13),
        ReLU(),
        GlobalAvgPool(),
        Linear(width, num_classes, seed=15),
    )


def alexnet_mini(input_shape: tuple[int, int, int], num_classes: int) -> Sequential:
    """Deeper plain conv stack + wide FC head (AlexNet's shape in miniature)."""
    h, w, c = input_shape
    after = (h // 2) // 2
    return Sequential(
        Conv2d(c, 12, 3, pad=1, seed=20),
        ReLU(),
        MaxPool2d(2),
        Conv2d(12, 16, 3, pad=1, seed=21),
        ReLU(),
        Conv2d(16, 16, 3, pad=1, seed=22),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(after * after * 16, 64, seed=23),
        ReLU(),
        Linear(64, 48, seed=24),
        ReLU(),
        Linear(48, num_classes, seed=25),
    )

