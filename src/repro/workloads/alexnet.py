"""AlexNet layer shapes — the paper's detailed per-layer workload.

Dimensions follow SCALE-Sim's AlexNet topology (IFM sizes include the
padding of the original network so that output sizes match Krizhevsky et
al. [33]): five convolution layers and three fully-connected layers, 61.1M
parameters at batch 1.
"""

from __future__ import annotations

from ..gemm.params import GemmParams

__all__ = ["alexnet_layers"]

def alexnet_layers() -> list[GemmParams]:
    """The eight GEMM layers of AlexNet (Conv1-5, FC6-8)."""
    return [
        GemmParams("Conv1", ih=227, iw=227, ic=3, wh=11, ww=11, oc=96, stride=4),
        GemmParams("Conv2", ih=31, iw=31, ic=96, wh=5, ww=5, oc=256, stride=1),
        GemmParams("Conv3", ih=15, iw=15, ic=256, wh=3, ww=3, oc=384, stride=1),
        GemmParams("Conv4", ih=15, iw=15, ic=384, wh=3, ww=3, oc=384, stride=1),
        GemmParams("Conv5", ih=15, iw=15, ic=384, wh=3, ww=3, oc=256, stride=1),
        GemmParams.matmul("FC6", rows=1, inner=9216, cols=4096),
        GemmParams.matmul("FC7", rows=1, inner=4096, cols=4096),
        GemmParams.matmul("FC8", rows=1, inner=4096, cols=1000),
    ]
