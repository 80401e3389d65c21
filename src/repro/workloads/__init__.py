"""Workload definitions: AlexNet, the MLPerf suite, platform presets."""

from .alexnet import alexnet_layers
from .mlperf import (
    alphagozero_layers,
    googlenet_layers,
    mlperf_suite,
    ncf_layers,
    resnet50_layers,
    sentimental_seqcnn_layers,
    sentimental_seqlstm_layers,
    transformer_layers,
)
from .presets import CLOUD, EDGE, Platform, scheme_sweep
from .topology_io import load_topology

__all__ = [
    "alexnet_layers",
    "load_topology",
    "alphagozero_layers",
    "googlenet_layers",
    "mlperf_suite",
    "ncf_layers",
    "resnet50_layers",
    "sentimental_seqcnn_layers",
    "sentimental_seqlstm_layers",
    "transformer_layers",
    "CLOUD",
    "EDGE",
    "Platform",
    "scheme_sweep",
]
