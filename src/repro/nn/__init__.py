"""DNN inference substrate: numpy layers, quantised GEMM backends, trainer."""

from .datasets import DIFFICULTIES, Dataset, make_dataset
from .inference import accuracy_sweep, evaluate
from .layers import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
    Residual,
    Sequential,
)
from .models import MODEL_BUILDERS, alexnet_mini, mnist4, resnet_mini
from .pipeline import network_to_gemms
from .serialize import load_model, save_model
from .sparsity import (
    ActivationStats,
    act_frac_for_sparsity,
    activation_stats,
    sparsify,
)
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
    "AvgPool2d",
    "BatchNorm",
    "Conv2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool",
    "Layer",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Residual",
    "Sequential",
    "MODEL_BUILDERS",
    "network_to_gemms",
    "load_model",
    "save_model",
    "ActivationStats",
    "act_frac_for_sparsity",
    "activation_stats",
    "sparsify",
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
