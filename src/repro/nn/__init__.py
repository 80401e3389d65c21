"""DNN inference substrate: numpy layers, quantised GEMM backends, trainer."""

from .datasets import DIFFICULTIES, Dataset, make_dataset
from .inference import accuracy_sweep, evaluate
from .layers import (
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
)
from .models import alexnet_mini, mnist4, resnet_mini
from .sparsity import act_frac_for_sparsity
from .quant import (
    QuantMode,
    QuantSpec,
    gemm_fp32,
    gemm_fxp,
    gemm_usystolic,
    quantize_symmetric,
    quantized_gemm,
)
from .training import TrainResult, evaluate_fp32, softmax_cross_entropy, train

__all__ = [
    "DIFFICULTIES",
    "Dataset",
    "make_dataset",
    "accuracy_sweep",
    "evaluate",
    "Conv2d",
    "Flatten",
    "GlobalAvgPool",
    "Layer",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Residual",
    "Sequential",
    "act_frac_for_sparsity",
    "alexnet_mini",
    "mnist4",
    "resnet_mini",
    "QuantMode",
    "QuantSpec",
    "gemm_fp32",
    "gemm_fxp",
    "gemm_usystolic",
    "quantize_symmetric",
    "quantized_gemm",
    "TrainResult",
    "evaluate_fp32",
    "softmax_cross_entropy",
    "train",
]
