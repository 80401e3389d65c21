"""Figure 9: top-1 accuracy vs effective bitwidth for three CNNs.

Pipeline: train each stand-in CNN in FP32 on its synthetic dataset, then
evaluate the test set under FXP-o-res, uSystolic and FXP-i-res at every
EBT (6..12 in the paper; configurable) and under FP32.  Also provides the
Section V-A GEMM error ranking measurement.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..nn.datasets import make_dataset
from ..nn.inference import accuracy_sweep
from ..nn.models import alexnet_mini, mnist4, resnet_mini
from ..nn.quant import QuantMode, QuantSpec, quantized_gemm
from ..nn.training import train
from .report import format_table

__all__ = [
    "AccuracyResult",
    "FIGURE9_TASKS",
    "run_accuracy_experiment",
    "gemm_error_ranking",
    "format_figure9",
]

#: The three Figure 9 panels: (paper task, stand-in dataset, model builder,
#: training epochs).
FIGURE9_TASKS = [
    ("MNIST / 4-layer CNN", "easy", mnist4, 6),
    ("CIFAR10 / ResNet18", "medium", resnet_mini, 10),
    ("ImageNet / AlexNet", "hard", alexnet_mini, 15),
]


@dataclasses.dataclass(frozen=True)
class AccuracyResult:
    """One Figure 9 panel: accuracies per mode per EBT."""

    task: str
    fp32_accuracy: float
    sweep: dict[str, dict[int, float]]


def run_accuracy_experiment(
    ebts: list[int] | None = None,
    train_samples: int = 500,
    test_samples: int = 150,
) -> list[AccuracyResult]:
    """Train and sweep all three tasks (Figure 9a-c), each from seed 0."""
    if ebts is None:
        ebts = list(range(6, 13))
    results = []
    for task, difficulty, builder, epochs in FIGURE9_TASKS:
        ds = make_dataset(difficulty, train=train_samples, test=test_samples, seed=0)
        model = builder(ds.image_shape, ds.num_classes)
        lr = 0.05 if difficulty != "medium" else 0.03
        outcome = train(model, ds, epochs=epochs, lr=lr, seed=0)
        sweep = accuracy_sweep(model, ds.x_test, ds.y_test, ebts=ebts)
        results.append(
            AccuracyResult(
                task=task,
                fp32_accuracy=outcome.test_accuracy,
                sweep=sweep,
            )
        )
    return results


def gemm_error_ranking(ebt: int = 8, trials: int = 10) -> dict[str, float]:
    """Section V-A: mean GEMM error per scheme over seed-0 operands,
    expected to rank FXP-o-res > uSystolic > FXP-i-res."""
    rng = np.random.default_rng(0)
    errors = {m.value: 0.0 for m in (QuantMode.FXP_O_RES, QuantMode.USYSTOLIC, QuantMode.FXP_I_RES)}
    for _ in range(trials):
        x = rng.standard_normal((16, 96))
        w = rng.standard_normal((96, 12))
        exact = x @ w
        for mode in (QuantMode.FXP_O_RES, QuantMode.USYSTOLIC, QuantMode.FXP_I_RES):
            est = quantized_gemm(x, w, QuantSpec(mode, ebt))
            errors[mode.value] += float(np.abs(est - exact).mean()) / trials
    return errors


def format_figure9(results: list[AccuracyResult], ebts: list[int]) -> str:
    """Print each panel as accuracy rows over the EBT axis, like Fig. 9."""
    blocks = []
    for res in results:
        headers = ["scheme"] + [f"{n}-{1 << (n - 1)}" for n in ebts] + ["FP32"]
        rows = []
        for mode in ("fxp-o-res", "usystolic", "fxp-i-res"):
            accs = res.sweep[mode]
            rows.append(
                [mode] + [f"{100 * accs[n]:.1f}" for n in ebts] + ["-"]
            )
        rows.append(
            ["fp32"] + ["-"] * len(ebts) + [f"{100 * res.fp32_accuracy:.1f}"]
        )
        blocks.append(
            format_table(headers, rows, title=f"Figure 9: {res.task} (top-1 %)")
        )
    return "\n\n".join(blocks)
