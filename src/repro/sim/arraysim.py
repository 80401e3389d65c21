"""Full-array cycle-accurate co-simulation: the stepped R x C truth source.

Every fold of the :func:`repro.gemm.tiling.tile_gemm` schedule is stepped
on a full R x C array whose per-PE state lives in numpy planes
(``working`` vector index, ``remaining`` MAC cycles, the column psum
ripple), advanced whole-array per step with no Python-per-PE loops.
Partial sums accumulate across reduction folds with the preload/drain
overlap the analytic model assumes (a fold's psum ripple is pushed out by
the next fold's weight preload), and every contribution is attributed to
its reduction fold in a ``(k_folds, V, OC)`` provenance tensor — the
register-level ground truth the differential engine
(:mod:`repro.verify.diff`) holds the closed-form schedule and the event
trace against.

Two step granularities, differentially pinned against each other:

- ``"cycle"`` — one plane advance per clock cycle through weight
  preload, skewed IFM streaming with ``mac_cycles``-long PE occupancy and
  the one-cycle column lag (the IDFF of Figure 7); a one-fold layer is
  the register-level golden model of a single fold.  O(cycles) — the
  truth source for small configs (the fuzzer's diet).
- ``"wave"`` — each fold's plane state evaluated at vector-admission
  boundaries in closed form.  Between admissions every PE's evolution is
  rigid (``remaining`` decrements once per cycle, nothing else moves), so
  one whole-plane step per fold gives the launch and finish planes, the
  busy count and, on a budget overrun, the cycle stepper's
  :class:`CycleLimitError` state; the ``array`` diff surface holds it to
  the cycle stepper on small cases.  Its column psums come from the PE's
  own fold kernel (:meth:`~repro.core.pe.PeModel.tile_psums`), with no
  per-PE product plane: every product, uGEMM-H's included, is an exact
  integer, so under the layer bound of
  :func:`~repro.core.array.check_operands` a column sum is the same in
  any order.  A full AlexNet conv layer steps inside the test suite.

Timing convention (shared with :mod:`repro.sim.dataflow`): fold ``f+1``'s
weight preload begins the cycle PE(0, 0) retires fold ``f``'s last MAC, so
each fold costs ``preload + V*mac`` and only the last fold's drain is paid
— the stepped model *derives* these boundaries from plane state rather
than assuming them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.array import check_operands
from ..core.config import ArrayConfig
from ..core.pe import PeModel, make_pe
from ..gemm.im2col import im2col
from ..gemm.params import GemmParams
from ..gemm.tiling import Tile, tile_gemm
from ..schemes import DataflowGeometry

__all__ = [
    "ArraySimResult",
    "CycleLimitError",
    "FoldTrace",
    "GRANULARITIES",
    "simulate_array",
]

#: Step granularities (see module docstring).
GRANULARITIES = ("cycle", "wave")

#: Per-column launch lag multiplier of the IDFF pipeline (Figure 7):
#: PE(r, c) admits a vector ``geometry.col_lag * _COLUMN_LAG`` cycles
#: after PE(r, c-1).  A mutation seam: the verify suite plants an
#: off-by-one here and must catch it (on skewed geometries; DiP's zero
#: column lag is immune by construction).
_COLUMN_LAG = 1

#: Default absolute-cycle budget for one layer run.
_DEFAULT_MAX_CYCLES = 50_000_000


class CycleLimitError(RuntimeError):
    """The stepper exceeded ``max_cycles`` with MACs still pending.

    Carries the machine state a bare assert would discard: the absolute
    cycle at which the limit tripped and how many MACs were still pending
    — enough to tell a too-small budget from a genuine schedule deadlock.
    """

    def __init__(self, cycle: int, pending_macs: int, max_cycles: int) -> None:
        self.cycle = cycle
        self.pending_macs = pending_macs
        self.max_cycles = max_cycles
        super().__init__(
            f"cycle limit exceeded at cycle {cycle} with {pending_macs} "
            f"MAC(s) still pending (max_cycles={max_cycles}) — raise the "
            "budget or suspect a schedule deadlock"
        )


@dataclasses.dataclass(frozen=True)
class FoldTrace:
    """Stepped timing of one fold, derived from plane state."""

    index: int
    k_fold: int
    c_fold: int
    k_start: int
    c_start: int
    rows: int
    cols: int
    start_cycle: int
    """Absolute cycle the fold's weight preload begins."""
    preload_cycles: int
    first_launch_cycle: int
    """Absolute cycle vector 0 enters PE(0, 0)."""
    last_mac_finish: int
    """Absolute cycle the fold's final MAC retires."""


@dataclasses.dataclass(frozen=True)
class ArraySimResult:
    """Outcome of one stepped whole-layer run."""

    psums: np.ndarray
    """(V, OC) partial sums at integer product scale, all folds folded in."""
    provenance: np.ndarray
    """(k_folds, V, OC) MACs each reduction fold contributed per output."""
    compute_cycles: int
    """Layer completion under the drain-overlap convention (== analytic)."""
    pe_busy_cycles: int
    """Sum over PEs of occupied cycles (the utilization ground truth)."""
    folds: tuple[FoldTrace, ...]
    granularity: str
    launch_planes: tuple[np.ndarray, ...] | None = None
    """Per fold, the (rows, cols) absolute launch cycle of vector 0 at
    each PE — present when ``collect_planes`` was requested."""
    finish_planes: tuple[np.ndarray, ...] | None = None
    """Per fold, the (V, cols) absolute cycle each column sum completed."""

    @property
    def num_folds(self) -> int:
        return len(self.folds)


@dataclasses.dataclass(frozen=True)
class _FoldRun:
    """Per-fold plane artifacts one stepper hands back."""

    psums: np.ndarray  # (V, cols) at integer product scale
    finish: np.ndarray  # (V, cols) absolute completion cycle per column sum
    launch0: np.ndarray  # (rows, cols) absolute launch cycle of vector 0
    busy: int
    next_offset: int  # absolute cycle the next fold's preload may begin
    last_mac_finish: int


# ----------------------------------------------------------------------
# fold steppers
# ----------------------------------------------------------------------
def _step_fold_wave(
    psums: np.ndarray,
    rows: int,
    mac: int,
    offset: int,
    max_cycles: int,
    geometry: DataflowGeometry,
) -> _FoldRun:
    """Evaluate one fold's plane state at vector-admission boundaries.

    ``psums`` is the fold's ``(V, cols)`` column sums from the PE's fold
    kernel and ``rows`` its reduction depth.  PE(r, c) admits vector
    ``v`` at ``launch0[r, c] + v * mac`` and holds it for ``mac`` cycles,
    so the whole fold's timing is closed form: the bottom row retires
    column sum ``(v, c)`` at ``launch0[rows - 1, c] + (v + 1) * mac`` and
    every PE is busy ``mac`` cycles per vector.  The cycle stepper
    evolves the same state one clock at a time; the ``array`` diff
    surface holds the two to each other plane for plane.  A budget
    overrun raises the cycle stepper's :class:`CycleLimitError` state: it
    trips at the first cycle past ``max_cycles`` (or the fold's first
    launch, if later) with the MACs not yet retired by then.
    """
    nvec, cols = psums.shape
    preload = geometry.preload_cycles(rows, cols)
    rplane = np.arange(rows, dtype=np.int64)[:, None]
    cplane = np.arange(cols, dtype=np.int64)[None, :]
    launch0 = (
        offset
        + preload
        + geometry.row_lag * rplane
        + geometry.col_lag * _COLUMN_LAG * cplane
    )
    waves = mac * np.arange(1, nvec + 1, dtype=np.int64)[:, None]
    finish = launch0[rows - 1, :] + waves
    last_finish = int(finish[nvec - 1].max())
    if last_finish - 1 > max_cycles:
        trip = max(max_cycles + 1, offset + preload)
        retired = np.clip((trip - launch0 - mac) // mac + 1, 0, nvec)
        raise CycleLimitError(
            trip, rows * cols * nvec - int(retired.sum()), max_cycles
        )
    return _FoldRun(
        psums=psums,
        finish=finish,
        launch0=launch0,
        busy=mac * rows * cols * nvec,
        next_offset=int(launch0[0, 0]) + nvec * mac,
        last_mac_finish=last_finish,
    )


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


# ----------------------------------------------------------------------
# fold-boundary accumulation (a mutation seam the verify suite targets)
# ----------------------------------------------------------------------
def _accumulate_fold(
    psums: np.ndarray,
    provenance: np.ndarray,
    tile: Tile,
    k_fold: int,
    fold_psums: np.ndarray,
) -> None:
    """Fold one tile's column sums into the layer OFM, with provenance.

    Reduction folds accumulate through the psum buffer exactly in binary
    (the HUB fold-invariance guarantee); ``provenance[k_fold]`` records
    how many MACs this reduction fold contributed to each touched output.
    """
    cols = slice(tile.c_start, tile.c_start + tile.cols)
    psums[:, cols] += fold_psums
    provenance[k_fold, :, cols] += tile.rows


# ----------------------------------------------------------------------
# the whole-layer co-simulator
# ----------------------------------------------------------------------
def simulate_array(
    params: GemmParams,
    config: ArrayConfig,
    weight: np.ndarray,
    ifm: np.ndarray,
    granularity: str = "wave",
    max_cycles: int = _DEFAULT_MAX_CYCLES,
    collect_planes: bool = False,
) -> ArraySimResult:
    """Step one whole GEMM through the full R x C array, fold by fold.

    ``weight`` has shape (OC, WH, WW, IC) and ``ifm`` (IH, IW, IC), as for
    :meth:`repro.core.array.UsystolicArray.execute`; the result's
    ``psums`` carry the same integer-product-scale values the functional
    array produces (byte-identical — the diff surface asserts it), plus
    the stepped timing and per-fold psum provenance the analytic schedule
    is held against.  With ``collect_planes`` the per-fold launch and
    finish planes are kept so a differential run can name the first
    divergent (cycle, pe, fold).
    """
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
        )
    params.validate()
    config.validate()
    weight, ifm = check_operands(params, config, weight, ifm)

    pe: PeModel = make_pe(
        config.scheme, config.bits, config.ebt, act_frac=config.act_frac
    )
    mac = pe.mac_cycles
    geometry = config.geometry
    cols_mat = im2col(params, ifm)  # (V, K)
    wmat = weight.reshape(params.oc, params.window).T  # (K, OC)
    tiling = tile_gemm(params, config.rows, config.cols)

    nvec = cols_mat.shape[0]
    psums = np.zeros((nvec, params.oc), dtype=np.float64)
    provenance = np.zeros((tiling.k_folds, nvec, params.oc), dtype=np.int64)
    folds: list[FoldTrace] = []
    launch_planes: list[np.ndarray] = []
    finish_planes: list[np.ndarray] = []
    busy_total = 0
    offset = 0
    for index, tile in enumerate(tiling):
        k_fold = tile.k_start // config.rows
        w_tile = wmat[tile.k_start : tile.k_start + tile.rows,
                      tile.c_start : tile.c_start + tile.cols]
        x_tile = cols_mat[:, tile.k_start : tile.k_start + tile.rows]
        if granularity == "cycle":
            counts, scale = pe.fold_products(w_tile, x_tile)
            run = _step_fold_cycle(counts, scale, mac, offset, max_cycles, geometry)
        else:
            run = _step_fold_wave(
                pe.tile_psums(w_tile, x_tile),
                tile.rows,
                mac,
                offset,
                max_cycles,
                geometry,
            )
        _accumulate_fold(psums, provenance, tile, k_fold, run.psums)
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
        if collect_planes:
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
        granularity=granularity,
        launch_planes=tuple(launch_planes) if collect_planes else None,
        finish_planes=tuple(finish_planes) if collect_planes else None,
    )
