"""Golden models the differential engine judges the simulator against.

Every oracle here is a deliberately *independent* derivation: the exact
functional outputs come from direct numpy arithmetic (no ``im2col``, no
tiling, no unary kernels), and the performance totals come from the
closed-form Table II algebra, or — :func:`per_tile_schedule_oracle` —
from iterating the fold schedule the simulator sums in closed form.  An
implementation bug therefore cannot hide by being shared between the
system under test and its reference — the tubGEMM/tuGEMM
exact-binary-oracle discipline applied to this reproduction.
"""

from __future__ import annotations

import math

import numpy as np

from ..gemm.params import GemmParams
from ..gemm.tiling import Tiling
from ..memory.hierarchy import MemoryConfig
from ..schemes import WEIGHT_STATIONARY_SKEWED, ComputeScheme, DataflowGeometry
from ..sim.dataflow import LayerSchedule, schedule_tile

__all__ = [
    "im2col_oracle",
    "conv_oracle",
    "mac_latency_oracle",
    "compute_cycles_oracle",
    "per_tile_schedule_oracle",
    "traffic_oracle",
]


# ----------------------------------------------------------------------
# functional oracles (exact binary arithmetic)
# ----------------------------------------------------------------------
def im2col_oracle(params: GemmParams, ifm: np.ndarray) -> np.ndarray:
    """The (OH*OW, WH*WW*IC) lowering, rebuilt by pure index arithmetic.

    Uses a single fancy-indexing gather (no python window loop), so it
    shares no control flow with :func:`repro.gemm.im2col.im2col` while
    pinning the same (wh, ww, ic) column ordering of Algorithm 1.
    """
    ifm = np.asarray(ifm)
    if ifm.shape != (params.ih, params.iw, params.ic):
        raise ValueError(
            f"IFM shape {ifm.shape} != ({params.ih}, {params.iw}, {params.ic})"
        )
    s = params.stride
    oh_idx = s * np.arange(params.oh)
    ow_idx = s * np.arange(params.ow)
    # rows[r] flattens window (oh, ow); columns iterate (wh, ww, ic).
    h = oh_idx[:, None, None, None, None] + np.arange(params.wh)[None, None, :, None, None]
    w = ow_idx[None, :, None, None, None] + np.arange(params.ww)[None, None, None, :, None]
    c = np.arange(params.ic)[None, None, None, None, :]
    gathered = ifm[h, w, c]  # (OH, OW, WH, WW, IC)
    return gathered.reshape(params.oh * params.ow, params.window)


def conv_oracle(
    params: GemmParams, weight: np.ndarray, ifm: np.ndarray
) -> np.ndarray:
    """Exact direct convolution: the (OH, OW, OC) golden OFM.

    ``weight`` has shape (OC, WH, WW, IC); the result is the exact
    integer-product OFM the binary array must reproduce bit for bit and
    the unary schemes approximate.  Computed by per-position tensor
    contraction — no lowering, no tiling.
    """
    weight = np.asarray(weight, dtype=np.int64)
    ifm = np.asarray(ifm, dtype=np.int64)
    if weight.shape != (params.oc, params.wh, params.ww, params.ic):
        raise ValueError(f"weight shape {weight.shape} mismatches {params.name!r}")
    if ifm.shape != (params.ih, params.iw, params.ic):
        raise ValueError(f"IFM shape {ifm.shape} mismatches {params.name!r}")
    s = params.stride
    out = np.empty((params.oh, params.ow, params.oc), dtype=np.int64)
    for oh in range(params.oh):
        for ow in range(params.ow):
            window = ifm[oh * s : oh * s + params.wh, ow * s : ow * s + params.ww, :]
            out[oh, ow, :] = np.tensordot(weight, window, axes=([1, 2, 3], [0, 1, 2]))
    return out.astype(np.float64)


# ----------------------------------------------------------------------
# timing oracles (closed form, Section III)
# ----------------------------------------------------------------------
def mac_latency_oracle(
    scheme: ComputeScheme,
    bits: int,
    ebt: int | None = None,
    act_frac: float | None = None,
) -> int:
    """Closed-form PE MAC latency per scheme, written out independently.

    The crawl latency of Section III-A/C: a rate-coded uSystolic MAC
    takes ``2**(n-1) + 1`` cycles at effective bitwidth n (the +1 is the
    binary fold of the partial sum), uGEMM's bipolar streams double the
    length, temporal coding always runs the full ``2**(N-1)`` stream.
    The zoo: tuGEMM's counters run the same full temporal stream, DiP
    keeps the single-cycle binary MAC, and tubGEMM streams the expected
    activation magnitude (``act_frac`` of full scale, rounded half-up).
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    n = bits if ebt is None else ebt
    if not 2 <= n <= bits:
        raise ValueError(f"ebt must be in [2, {bits}], got {n}")
    # The oracle must re-derive latency without the registry's law, so
    # this one identity branch is a deliberate SCHEME001 exception.
    if (
        scheme is ComputeScheme.TUBGEMM_TEMPORAL  # repro-lint: ignore[scheme]
        and act_frac is not None
    ):
        # Independent rounding path (floor of x + 1/2, not banker's).
        return math.floor(act_frac * 2 ** (bits - 1) + 0.5) + 1
    return {
        ComputeScheme.BINARY_PARALLEL: 1,
        ComputeScheme.BINARY_SERIAL: bits + 1,
        ComputeScheme.USYSTOLIC_RATE: 2 ** (n - 1) + 1,
        ComputeScheme.USYSTOLIC_TEMPORAL: 2 ** (bits - 1) + 1,
        ComputeScheme.UGEMM_RATE: 2**n + 1,
        ComputeScheme.TUGEMM_TEMPORAL: 2 ** (bits - 1) + 1,
        ComputeScheme.TUBGEMM_TEMPORAL: 2 ** (bits - 1) + 1,
        ComputeScheme.DIP_PARALLEL: 1,
    }[scheme]


def compute_cycles_oracle(
    params: GemmParams,
    rows: int,
    cols: int,
    mac_cycles: int,
    skewed: bool = True,
) -> int:
    """Analytical contention-free layer cycles (no fold iteration).

    With K = WH*WW*IC, V = OH*OW, ``kf = ceil(K/rows)`` reduction folds
    and ``cf = ceil(OC/cols)`` column folds, the per-fold preloads sum in
    closed form because edge-tile rows sum to exactly K across reduction
    folds (and edge-tile columns to OC across column folds)::

        sum preloads = cf*K + kf*OC - kf*cf
        sum streams  = kf*cf * V * mac_cycles
        last drain   = (K - (kf-1)*rows) + (OC - (cf-1)*cols) - 2

    which must equal :func:`repro.sim.dataflow.schedule_layer` exactly.
    ``skewed=False`` is the diagonal-input (DiP) variant: no column
    stagger in the preloads and no drain at all::

        sum preloads = cf*K
        last drain   = 0
    """
    if rows < 1 or cols < 1 or mac_cycles < 1:
        raise ValueError("rows, cols and mac_cycles must be positive")
    k = params.window
    oc = params.oc
    v = params.oh * params.ow
    kf = math.ceil(k / rows)
    cf = math.ceil(oc / cols)
    streams = kf * cf * v * mac_cycles
    if not skewed:
        return cf * k + streams
    preloads = cf * k + kf * oc - kf * cf
    last_drain = (k - (kf - 1) * rows) + (oc - (cf - 1) * cols) - 2
    return preloads + streams + last_drain


def per_tile_schedule_oracle(
    tiling: Tiling,
    mac_cycles: int,
    geometry: DataflowGeometry = WEIGHT_STATIONARY_SKEWED,
) -> tuple[LayerSchedule, float]:
    """Layer schedule and MAC-weighted utilisation, summed fold by fold.

    Sums :func:`~repro.sim.dataflow.schedule_tile` over every fold (only
    the last drain is paid); both results must equal the closed-form
    ``schedule_layer`` and ``Tiling.utilization`` exactly.
    """
    compute = active = macs = vectors = last_drain = 0
    for tile in tiling:
        ts = schedule_tile(tile, mac_cycles, geometry)
        compute += ts.preload_cycles + ts.stream_cycles
        last_drain = ts.drain_cycles
        active += ts.active_pe_mac_cycles
        macs += tile.macs
        vectors += tile.vectors
    slots = vectors * tiling.array_rows * tiling.array_cols
    schedule = LayerSchedule(
        compute_cycles=compute + last_drain,
        active_pe_mac_cycles=active,
        num_tiles=tiling.num_tiles,
        mac_cycles=mac_cycles,
    )
    return schedule, (macs / slots if slots else 0.0)


# ----------------------------------------------------------------------
# traffic oracle (Table II byte algebra)
# ----------------------------------------------------------------------
def traffic_oracle(
    params: GemmParams, rows: int, cols: int, bits: int, memory: MemoryConfig
) -> dict[str, int]:
    """Analytical per-variable byte totals at each memory level.

    Returns a flat ``{"<variable>.<level>_<op>": bytes}`` dict derived
    from Table II parameters only: the im2col stream is re-read once per
    column fold, weights stream exactly once, the OFM is written once
    per reduction fold with ``kf - 1`` partial-sum re-reads, and an IFM
    SRAM caps DRAM reads at the smaller of the footprint-per-fold and
    the raw demand stream.
    """
    elem = (bits + 7) // 8
    k = params.window
    v = params.oh * params.ow
    kf = math.ceil(k / rows)
    cf = math.ceil(params.oc / cols)
    outputs = v * params.oc

    ifm_stream = v * k * cf * elem
    weight_stream = k * params.oc * elem
    ofm_write = outputs * kf * elem
    psum_read = outputs * (kf - 1) * elem
    ifm_footprint = params.ih * params.iw * params.ic * elem

    totals = {
        f"{variable}.{level}_{op}": 0
        for variable in ("ifm", "weight", "ofm")
        for level in ("sram", "dram")
        for op in ("read", "write")
    }
    if memory.has_sram:
        if ifm_footprint <= memory.usable_sram_bytes():
            ifm_dram = min(ifm_footprint, ifm_stream)
        else:
            ifm_dram = min(ifm_footprint * cf, ifm_stream)
        totals["ifm.sram_read"] = ifm_stream
        totals["ifm.sram_write"] = ifm_dram
        totals["ifm.dram_read"] = ifm_dram
        totals["weight.sram_read"] = weight_stream
        totals["weight.sram_write"] = weight_stream
        totals["weight.dram_read"] = weight_stream
        totals["ofm.sram_read"] = psum_read
        totals["ofm.sram_write"] = ofm_write
        totals["ofm.dram_write"] = outputs * elem
    else:
        totals["ifm.dram_read"] = ifm_stream
        totals["weight.dram_read"] = weight_stream
        totals["ofm.dram_read"] = psum_read
        totals["ofm.dram_write"] = ofm_write
    return totals
