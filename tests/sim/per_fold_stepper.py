"""The per-fold cycle stepper, kept as the reference for the grouped one.

:func:`repro.sim.arraysim.simulate_array` at ``"cycle"`` granularity
clocks consecutive folds together on a leading fold axis.  Each fold is
its own fresh machine, so stepping the folds one after another, one
clock per numpy turn, must give the same psums, provenance, planes, busy
counts, fold traces and ``CycleLimitError`` state.  ``_step_fold_cycle``
below steps one fold at a time: it is the loop version the grouped
stepper replaced, byte for byte, and :func:`simulate_array_per_fold`
loops it over a layer's folds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.array import check_operands
from repro.core.config import ArrayConfig
from repro.core.pe import make_pe
from repro.gemm.im2col import im2col
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.schemes import DataflowGeometry
from repro.sim.arraysim import (
    _COLUMN_LAG,
    ArraySimResult,
    CycleLimitError,
    FoldTrace,
)


@dataclasses.dataclass(frozen=True)
class _FoldRun:
    """Per-fold plane artifacts the stepper hands back."""

    psums: np.ndarray  # (V, cols) at integer product scale
    finish: np.ndarray  # (V, cols) absolute completion cycle per column sum
    launch0: np.ndarray  # (rows, cols) absolute launch cycle of vector 0
    busy: int
    next_offset: int  # absolute cycle the next fold's preload may begin
    last_mac_finish: int


def _step_fold_cycle(
    counts: np.ndarray,
    scale: float,
    mac: int,
    offset: int,
    max_cycles: int,
    geometry: DataflowGeometry,
) -> _FoldRun:
    """Advance one fold one clock cycle at a time (register semantics).

    Per cycle, a launch mask admits due vectors, every occupied PE burns
    one cycle, and PEs whose MAC retires land their product into the
    column psum — all as whole-plane numpy operations.
    """
    nvec, rows, cols = counts.shape
    preload = geometry.preload_cycles(rows, cols)
    skew = (
        geometry.row_lag * np.arange(rows, dtype=np.int64)[:, None]
        + geometry.col_lag
        * _COLUMN_LAG
        * np.arange(cols, dtype=np.int64)[None, :]
    )
    working = np.full((rows, cols), -1, dtype=np.int64)
    remaining = np.zeros((rows, cols), dtype=np.int64)
    launch0 = np.zeros((rows, cols), dtype=np.int64)
    pending = np.full((nvec, cols), rows, dtype=np.int64)
    psum_cols = np.zeros((nvec, cols), dtype=counts.dtype)
    finish = np.zeros((nvec, cols), dtype=np.int64)
    busy = 0
    done_macs = 0
    total_macs = rows * cols * nvec
    next_offset = offset + preload + nvec * mac
    t = 0
    while done_macs < total_macs:
        cycle = offset + preload + t
        if cycle > max_cycles:
            raise CycleLimitError(cycle, total_macs - done_macs, max_cycles)
        vnext, lag = np.divmod(t - skew, mac)
        can = (lag == 0) & (vnext >= 0) & (vnext < nvec) & (remaining == 0)
        if can.any():
            if (working[can] >= vnext[can]).any():
                raise RuntimeError("PE re-entered an old vector")
            working[can] = vnext[can]
            remaining[can] = mac
            launch0[can & (vnext == 0)] = cycle
        active = remaining > 0
        occupied = int(np.count_nonzero(active))
        if occupied:
            remaining[active] -= 1
            busy += occupied
            landed = active & (remaining == 0)
            if landed.any():
                r_idx, c_idx = np.nonzero(landed)
                v_idx = working[landed]
                np.add.at(psum_cols, (v_idx, c_idx), counts[v_idx, r_idx, c_idx])
                np.add.at(pending, (v_idx, c_idx), -1)
                closed = pending[v_idx, c_idx] == 0
                finish[v_idx[closed], c_idx[closed]] = cycle + 1
                done_macs += len(v_idx)
        t += 1
    return _FoldRun(
        psums=psum_cols.astype(np.float64) * scale,
        finish=finish,
        launch0=launch0,
        busy=busy,
        next_offset=next_offset,
        last_mac_finish=int(finish.max()),
    )


def simulate_array_per_fold(
    params: GemmParams,
    config: ArrayConfig,
    weight: np.ndarray,
    ifm: np.ndarray,
    max_cycles: int = 50_000_000,
) -> ArraySimResult:
    """``simulate_array(granularity="cycle", collect_planes=True)``, one fold at a time."""
    weight, ifm = check_operands(params, config, weight, ifm)
    pe = make_pe(config.scheme, config.bits, config.ebt, act_frac=config.act_frac)
    geometry = config.geometry
    cols_mat = im2col(params, ifm)
    wmat = weight.reshape(params.oc, params.window).T
    tiling = tile_gemm(params, config.rows, config.cols)
    nvec = cols_mat.shape[0]
    psums = np.zeros((nvec, params.oc), dtype=np.float64)
    provenance = np.zeros((tiling.k_folds, nvec, params.oc), dtype=np.int64)
    folds, launch_planes, finish_planes = [], [], []
    busy_total = 0
    offset = 0
    for index, tile in enumerate(tiling):
        k_fold = tile.k_start // config.rows
        cs = slice(tile.c_start, tile.c_start + tile.cols)
        ks = slice(tile.k_start, tile.k_start + tile.rows)
        counts, scale = pe.fold_products(wmat[ks, cs], cols_mat[:, ks])
        run = _step_fold_cycle(
            counts, scale, pe.mac_cycles, offset, max_cycles, geometry
        )
        psums[:, cs] += run.psums
        provenance[k_fold, :, cs] += tile.rows
        folds.append(
            FoldTrace(
                index=index,
                k_fold=k_fold,
                c_fold=tile.c_start // config.cols,
                k_start=tile.k_start,
                c_start=tile.c_start,
                rows=tile.rows,
                cols=tile.cols,
                start_cycle=offset,
                preload_cycles=geometry.preload_cycles(tile.rows, tile.cols),
                first_launch_cycle=int(run.launch0[0, 0]),
                last_mac_finish=run.last_mac_finish,
            )
        )
        launch_planes.append(run.launch0)
        finish_planes.append(run.finish)
        busy_total += run.busy
        offset = run.next_offset
    return ArraySimResult(
        psums=psums,
        provenance=provenance,
        compute_cycles=folds[-1].last_mac_finish,
        pe_busy_cycles=busy_total,
        folds=tuple(folds),
        granularity="cycle",
        launch_planes=tuple(launch_planes),
        finish_planes=tuple(finish_planes),
    )
