"""Memory traffic profiling for weight-stationary GEMM execution.

This is the trace-profiling half of uSystolic-Sim: for one GEMM folded
onto the array it derives, per variable (IFM, weight, OFM) and per level
(SRAM, DRAM), how many bytes move.  The accounting follows SCALE-Sim's
weight-stationary schedule:

- weights stream from memory into the array exactly once per fold plan;
- the IFM's im2col stream is re-read once per column fold — served by the
  IFM SRAM when present and the layer fits, straight from DRAM otherwise;
- the OFM is written once per reduction fold, and partial sums are re-read
  ``k_folds - 1`` times — the partial-sum round trips that make folded
  convolutions DRAM-hungry once SRAM is eliminated (Section V-E's
  "negative gains mainly originate from matrix convolution").
"""

from __future__ import annotations

import dataclasses

from ..gemm.params import GemmParams
from ..gemm.tiling import Tiling
from ..memory.hierarchy import MemoryConfig

__all__ = [
    "VariableTraffic",
    "TrafficProfile",
    "profile_traffic_batched",
]


@dataclasses.dataclass(frozen=True)
class VariableTraffic:
    """Byte counts one GEMM variable moves at each memory level."""

    sram_read: int = 0
    sram_write: int = 0
    dram_read: int = 0
    dram_write: int = 0

    @property
    def sram_total(self) -> int:
        return self.sram_read + self.sram_write

    @property
    def dram_total(self) -> int:
        return self.dram_read + self.dram_write

    def to_json(self) -> dict:
        """JSON-able field dict."""
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class TrafficProfile:
    """Per-variable traffic of one GEMM under one memory configuration."""

    ifm: VariableTraffic
    weight: VariableTraffic
    ofm: VariableTraffic

    @property
    def sram_read(self) -> int:
        return self.ifm.sram_read + self.weight.sram_read + self.ofm.sram_read

    @property
    def sram_write(self) -> int:
        return self.ifm.sram_write + self.weight.sram_write + self.ofm.sram_write

    @property
    def dram_read(self) -> int:
        return self.ifm.dram_read + self.weight.dram_read + self.ofm.dram_read

    @property
    def dram_write(self) -> int:
        return self.ifm.dram_write + self.weight.dram_write + self.ofm.dram_write

    @property
    def sram_total(self) -> int:
        return self.sram_read + self.sram_write

    @property
    def dram_total(self) -> int:
        return self.dram_read + self.dram_write

    def variable(self, name: str) -> VariableTraffic:
        return {"ifm": self.ifm, "weight": self.weight, "ofm": self.ofm}[name]

    def to_json(self) -> dict:
        """JSON-able nested dict."""
        return {
            "ifm": self.ifm.to_json(),
            "weight": self.weight.to_json(),
            "ofm": self.ofm.to_json(),
        }


def profile_traffic_batched(
    params: GemmParams,
    tiling: Tiling,
    bits: int,
    memory: MemoryConfig,
    batch: int = 1,
    warm_weights: bool = False,
) -> TrafficProfile:
    """Traffic of ``batch`` requests folded into the ``N`` dimension.

    Every per-request stream (IFM, OFM, partial sums) scales linearly
    with the batch — each request brings its own activations — while the
    weight stream is paid **once** per layer execution: the batch shares
    the preloaded weights, which is the entire bandwidth argument for
    batching.  The IFM-fits-in-SRAM cap is evaluated against the whole
    batch's footprint, since all B activation sets must be live at once.

    ``warm_weights=True`` models a weight working set already resident in
    the SRAM from the previous execution (see ``repro.serve.executor``):
    the weight DRAM fill and its SRAM fill-write are skipped; the array
    still reads the weights out of SRAM.  Without an SRAM there is
    nowhere for weights to stay resident, so the flag is a no-op.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    elem = (bits + 7) // 8
    # Every size below is arithmetic on the layer's ints, with each
    # GemmParams property read once.
    vectors = batch * params.oh * params.ow
    window = params.window
    outputs = vectors * params.oc
    k_folds = tiling.k_folds
    c_folds = tiling.c_folds

    # Element counts the array actually consumes/produces.
    ifm_stream_bytes = vectors * window * c_folds * elem
    weight_stream_bytes = params.weight_bytes(bits)
    ofm_write_bytes = outputs * k_folds * elem
    ofm_psum_read_bytes = outputs * (k_folds - 1) * elem
    ifm_footprint_bytes = batch * params.ih * params.iw * params.ic * elem

    if memory.has_sram:
        if ifm_footprint_bytes <= memory.usable_sram_bytes():
            # Demand traffic: a strided window (stride > window edge) can
            # leave the im2col stream *smaller* than the IFM footprint, and
            # only touched pixels are ever fetched — without the cap, adding
            # SRAM would inflate DRAM traffic above the bare demand stream.
            ifm_dram_read = min(ifm_footprint_bytes, ifm_stream_bytes)
        else:
            # Each column fold re-streams the IFM from DRAM through the
            # (too-small) buffer; never more than the raw im2col stream.
            ifm_dram_read = min(ifm_footprint_bytes * c_folds, ifm_stream_bytes)
        ifm = VariableTraffic(
            sram_read=ifm_stream_bytes,
            sram_write=ifm_dram_read,
            dram_read=ifm_dram_read,
        )
        weight_fill_bytes = 0 if warm_weights else weight_stream_bytes
        weight = VariableTraffic(
            sram_read=weight_stream_bytes,
            sram_write=weight_fill_bytes,
            dram_read=weight_fill_bytes,
        )
        # With an OFM SRAM, partial sums accumulate on chip: the schedule
        # tiles output positions so the live partial window fits, and only
        # final OFMs reach DRAM (SCALE-Sim's demand-traffic assumption).
        ofm = VariableTraffic(
            sram_read=ofm_psum_read_bytes,
            sram_write=ofm_write_bytes,
            dram_write=outputs * elem,
        )
    else:
        ifm = VariableTraffic(dram_read=ifm_stream_bytes)
        weight = VariableTraffic(dram_read=weight_stream_bytes)
        ofm = VariableTraffic(
            dram_read=ofm_psum_read_bytes, dram_write=ofm_write_bytes
        )
    return TrafficProfile(ifm=ifm, weight=weight, ofm=ofm)
