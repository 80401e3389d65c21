"""MLPerf-style GEMM suite: the eight models of Section IV-C1.

The paper evaluates "the entire MLPerf benchmark ... in total containing
1094 GEMM layers with varying configurations": AlphaGoZero, AlexNet,
GoogleNet, ResNet50, neural collaborative filtering, sentimental_seqCNN,
sentimental_seqLSTM and transformer.  This module regenerates those layer
lists programmatically from each model's published architecture (SCALE-Sim
ships the same suite as topology CSVs).  Recurrent and attention models
unroll into per-timestep / per-projection matrix multiplications, which is
how a systolic array consumes them.

The paper's 1094-layer count implies a finer unrolling granularity than it
specifies; we unroll at an architecture-faithful granularity (~320 GEMMs)
that keeps the suite convolution-dominated like the underlying models —
over-unrolling the LSTM would swamp the Figure 14c/d per-layer means with
hundreds of identical tiny matmuls and invert the AlexNet-vs-MLPerf
ordering.  DESIGN.md records this substitution.
"""

from __future__ import annotations

from typing import Callable

from ..gemm.params import GemmParams
from .alexnet import alexnet_layers

__all__ = [
    "alphagozero_layers",
    "googlenet_layers",
    "resnet50_layers",
    "ncf_layers",
    "sentimental_seqcnn_layers",
    "sentimental_seqlstm_layers",
    "transformer_layers",
    "WORKLOADS",
    "mlperf_suite",
    "workload_layers",
]


def alphagozero_layers(blocks: int = 19) -> list[GemmParams]:
    """AlphaGoZero: 19x19x17 board, conv stem, residual tower, two heads."""
    layers = [
        GemmParams("AGZ-stem", ih=21, iw=21, ic=17, wh=3, ww=3, oc=256)
    ]
    for b in range(blocks):
        for i in (1, 2):
            layers.append(
                GemmParams(
                    f"AGZ-res{b + 1}-conv{i}", ih=21, iw=21, ic=256, wh=3, ww=3, oc=256
                )
            )
    # Policy head: 1x1 conv + FC; value head: 1x1 conv + 2 FCs.
    layers.append(GemmParams("AGZ-policy-conv", ih=19, iw=19, ic=256, wh=1, ww=1, oc=2))
    layers.append(GemmParams.matmul("AGZ-policy-fc", 1, 19 * 19 * 2, 362))
    layers.append(GemmParams("AGZ-value-conv", ih=19, iw=19, ic=256, wh=1, ww=1, oc=1))
    layers.append(GemmParams.matmul("AGZ-value-fc1", 1, 19 * 19, 256))
    layers.append(GemmParams.matmul("AGZ-value-fc2", 1, 256, 1))
    return layers


def _inception(
    name: str, size: int, ic: int, c1: int, r3: int, c3: int, r5: int, c5: int, pp: int
) -> list[GemmParams]:
    """One GoogLeNet inception module: 6 convolutions."""
    return [
        GemmParams(f"{name}-1x1", ih=size, iw=size, ic=ic, wh=1, ww=1, oc=c1),
        GemmParams(f"{name}-3x3r", ih=size, iw=size, ic=ic, wh=1, ww=1, oc=r3),
        GemmParams(f"{name}-3x3", ih=size + 2, iw=size + 2, ic=r3, wh=3, ww=3, oc=c3),
        GemmParams(f"{name}-5x5r", ih=size, iw=size, ic=ic, wh=1, ww=1, oc=r5),
        GemmParams(f"{name}-5x5", ih=size + 4, iw=size + 4, ic=r5, wh=5, ww=5, oc=c5),
        GemmParams(f"{name}-pool", ih=size, iw=size, ic=ic, wh=1, ww=1, oc=pp),
    ]


def googlenet_layers() -> list[GemmParams]:
    """GoogLeNet v1: stem + 9 inception modules + classifier FC."""
    layers = [
        GemmParams("GN-conv1", ih=229, iw=229, ic=3, wh=7, ww=7, oc=64, stride=2),
        GemmParams("GN-conv2r", ih=56, iw=56, ic=64, wh=1, ww=1, oc=64),
        GemmParams("GN-conv2", ih=58, iw=58, ic=64, wh=3, ww=3, oc=192),
    ]
    modules = [
        ("GN-3a", 28, 192, 64, 96, 128, 16, 32, 32),
        ("GN-3b", 28, 256, 128, 128, 192, 32, 96, 64),
        ("GN-4a", 14, 480, 192, 96, 208, 16, 48, 64),
        ("GN-4b", 14, 512, 160, 112, 224, 24, 64, 64),
        ("GN-4c", 14, 512, 128, 128, 256, 24, 64, 64),
        ("GN-4d", 14, 512, 112, 144, 288, 32, 64, 64),
        ("GN-4e", 14, 528, 256, 160, 320, 32, 128, 128),
        ("GN-5a", 7, 832, 256, 160, 320, 32, 128, 128),
        ("GN-5b", 7, 832, 384, 192, 384, 48, 128, 128),
    ]
    for mod in modules:
        layers.extend(_inception(*mod))
    layers.append(GemmParams.matmul("GN-fc", 1, 1024, 1000))
    return layers


def resnet50_layers() -> list[GemmParams]:
    """ResNet50: stem + 4 bottleneck stages + classifier FC."""
    layers = [
        GemmParams("RN50-conv1", ih=229, iw=229, ic=3, wh=7, ww=7, oc=64, stride=2)
    ]
    stages = [
        ("2", 56, 64, 64, 256, 3),
        ("3", 28, 256, 128, 512, 4),
        ("4", 14, 512, 256, 1024, 6),
        ("5", 7, 1024, 512, 2048, 3),
    ]
    for stage, size, ic, mid, out, blocks in stages:
        for b in range(blocks):
            in_ch = ic if b == 0 else out
            prefix = f"RN50-{stage}{chr(ord('a') + b)}"
            layers.append(
                GemmParams(f"{prefix}-1x1a", ih=size, iw=size, ic=in_ch, wh=1, ww=1, oc=mid)
            )
            layers.append(
                GemmParams(
                    f"{prefix}-3x3", ih=size + 2, iw=size + 2, ic=mid, wh=3, ww=3, oc=mid
                )
            )
            layers.append(
                GemmParams(f"{prefix}-1x1b", ih=size, iw=size, ic=mid, wh=1, ww=1, oc=out)
            )
            if b == 0:
                layers.append(
                    GemmParams(
                        f"{prefix}-down", ih=size, iw=size, ic=in_ch, wh=1, ww=1, oc=out
                    )
                )
    layers.append(GemmParams.matmul("RN50-fc", 1, 2048, 1000))
    return layers


def ncf_layers(batch: int = 64) -> list[GemmParams]:
    """Neural collaborative filtering: an MLP over embeddings."""
    dims = [(256, 256), (256, 128), (128, 64), (64, 1)]
    return [
        GemmParams.matmul(f"NCF-fc{i + 1}", batch, k, n)
        for i, (k, n) in enumerate(dims)
    ]


def sentimental_seqcnn_layers(seq: int = 38) -> list[GemmParams]:
    """Sentiment sequence-CNN: 1-D convolutions over token embeddings."""
    layers = []
    ic = 64
    for i, oc in enumerate((128, 128, 64, 64)):
        # 1-D conv of width 3 over the sequence = (seq)x1 images.
        layers.append(
            GemmParams(f"seqCNN-conv{i + 1}", ih=seq + 2, iw=1, ic=ic, wh=3, ww=1, oc=oc)
        )
        ic = oc
    layers.append(GemmParams.matmul("seqCNN-fc", 1, seq * 64, 2))
    return layers


def sentimental_seqlstm_layers(
    seq: int = 25, hidden: int = 128, embed: int = 64
) -> list[GemmParams]:
    """Sentiment LSTM unrolled: 4 gate matmuls per timestep + classifier.

    The systolic array executes an LSTM as a sequence of (1, K) x (K, 4H)
    matrix multiplications (input and recurrent paths per step).
    """
    layers = []
    for t in range(seq):
        layers.append(
            GemmParams.matmul(f"seqLSTM-t{t + 1}-x", 1, embed, 4 * hidden)
        )
        layers.append(
            GemmParams.matmul(f"seqLSTM-t{t + 1}-h", 1, hidden, 4 * hidden)
        )
    layers.append(GemmParams.matmul("seqLSTM-fc", 1, hidden, 2))
    return layers


def transformer_layers(
    blocks: int = 6, d_model: int = 512, d_ff: int = 2048, seq: int = 64
) -> list[GemmParams]:
    """Transformer (translation): 6 encoder + 6 decoder blocks.

    Encoder blocks contribute 6 GEMMs (QKV, attention output, FFN pair);
    decoder blocks add a cross-attention set for 10 GEMMs each.
    """
    layers = []
    for b in range(blocks):
        prefix = f"TF-enc{b + 1}"
        for proj in ("q", "k", "v"):
            layers.append(
                GemmParams.matmul(f"{prefix}-{proj}", seq, d_model, d_model)
            )
        layers.append(GemmParams.matmul(f"{prefix}-attnout", seq, d_model, d_model))
        layers.append(GemmParams.matmul(f"{prefix}-ffn1", seq, d_model, d_ff))
        layers.append(GemmParams.matmul(f"{prefix}-ffn2", seq, d_ff, d_model))
    for b in range(blocks):
        prefix = f"TF-dec{b + 1}"
        for attn in ("self", "cross"):
            for proj in ("q", "k", "v"):
                layers.append(
                    GemmParams.matmul(
                        f"{prefix}-{attn}-{proj}", seq, d_model, d_model
                    )
                )
            layers.append(
                GemmParams.matmul(f"{prefix}-{attn}-out", seq, d_model, d_model)
            )
        layers.append(GemmParams.matmul(f"{prefix}-ffn1", seq, d_model, d_ff))
        layers.append(GemmParams.matmul(f"{prefix}-ffn2", seq, d_ff, d_model))
    return layers


#: Every named workload's layer-list function, in the suite's order: the
#: names the CLIs and pool specs accept.
WORKLOADS: dict[str, Callable[[], list[GemmParams]]] = {
    "alphagozero": alphagozero_layers,
    "alexnet": alexnet_layers,
    "googlenet": googlenet_layers,
    "resnet50": resnet50_layers,
    "ncf": ncf_layers,
    "sentimental_seqCNN": sentimental_seqcnn_layers,
    "sentimental_seqLSTM": sentimental_seqlstm_layers,
    "transformer": transformer_layers,
}


def mlperf_suite() -> dict[str, list[GemmParams]]:
    """The full eight-model suite, keyed by model name."""
    return {name: build() for name, build in WORKLOADS.items()}


def workload_layers(workload: str) -> list[GemmParams]:
    """GEMM layer list of one named workload in :data:`WORKLOADS`."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; pick from {sorted(WORKLOADS)}"
        )
    return WORKLOADS[workload]()
