"""Full-array cycle-accurate co-simulation: the stepped R x C truth source.

Every fold of the :func:`repro.gemm.tiling.tile_gemm` schedule is stepped
on a full R x C array whose per-PE state lives in numpy planes
(``working`` vector index, ``remaining`` MAC cycles, the column psum
ripple), advanced whole-array per step with no Python-per-PE loops.
Partial sums accumulate across reduction folds with the preload/drain
overlap the analytic model assumes (a fold's psum ripple is pushed out by
the next fold's weight preload), and every contribution is attributed to
its reduction fold in a ``(k_folds, V, OC)`` provenance tensor (recorded
once per fold and output column, since no count varies by vector) — the
register-level ground truth the differential engine
(:mod:`repro.verify.diff`) holds the closed-form schedule and the event
trace against.

Two step granularities, differentially pinned against each other:

- ``"cycle"`` — one plane advance per clock cycle through weight
  preload, skewed IFM streaming with ``mac_cycles``-long PE occupancy and
  the one-cycle column lag (the IDFF of Figure 7); a one-fold layer is
  the register-level golden model of a single fold.  Each fold is a
  fresh machine of its own, so consecutive folds are clocked together on
  a leading fold axis, as many as keep their stacked product planes
  within the kernels' ``_TILE_CHUNK_ELEMS`` bound: a group costs its
  longest fold's cycles, not the sum over its folds.  The truth source
  for small configs (the fuzzer's diet).
- ``"wave"`` — each fold's plane state evaluated at vector-admission
  boundaries in closed form.  Between admissions every PE's evolution is
  rigid (``remaining`` decrements once per cycle, nothing else moves), so
  one whole-plane step per fold gives the launch and finish planes, the
  busy count and, on a budget overrun, the cycle stepper's
  :class:`CycleLimitError` state; the ``array`` diff surface holds it to
  the cycle stepper on small cases.  Its psums are the whole layer's,
  from the one call of the PE's kernel
  (:meth:`~repro.core.pe.PeModel.tile_psums`) that
  :meth:`~repro.core.array.UsystolicArray.execute` makes, with no per-PE
  product plane: every product, uGEMM-H's included, is an exact integer,
  so under the layer bound of :func:`~repro.core.array.check_operands` a
  column sum is the same in any order and any grouping into folds.  A
  full AlexNet conv layer steps inside the test suite.

Timing convention (shared with :mod:`repro.sim.dataflow`): fold ``f+1``'s
weight preload begins the cycle PE(0, 0) retires fold ``f``'s last MAC, so
each fold costs ``preload + V*mac`` and only the last fold's drain is paid.
Both steppers take fold starts from this drain-overlap closed form.  From
each start the cycle stepper clocks launches, landings, finishes and busy
counts out of plane state, and the differential surfaces hold both
steppers to the analytic schedule.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable, Iterator

import numpy as np

from ..contracts import require_positive_int
from ..core.array import check_operands
from ..core.config import ArrayConfig
from ..core.pe import PeModel, make_pe
from ..gemm.im2col import im2col
from ..gemm.params import GemmParams
from ..gemm.tiling import Tile, Tiling, tile_gemm
from ..schemes import DataflowGeometry
from ..unary.vectorized import _TILE_CHUNK_ELEMS

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
    """(k_folds, V, OC) MACs each reduction fold contributed per output: a
    read-only broadcast of one row per fold, since no count varies by
    vector."""
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

    psums: np.ndarray | None  # (V, cols) at integer product scale; wave: None
    finish: np.ndarray  # (V, cols) absolute completion cycle per column sum
    launch0: np.ndarray  # (rows, cols) absolute launch cycle of vector 0
    busy: int
    last_mac_finish: int


def _fold_schedule(
    tiling: Tiling, nvec: int, mac: int, geometry: DataflowGeometry
) -> Iterator[tuple[Tile, int, int]]:
    """Every fold with its start and preload cycles, in schedule order.

    The drain-overlap convention in closed form: fold ``f+1``'s weight
    preload begins the cycle PE(0, 0) retires fold ``f``'s last MAC,
    ``preload + V*mac`` cycles after fold ``f`` began.
    """
    start = 0
    for tile in tiling:
        preload = geometry.preload_cycles(tile.rows, tile.cols)
        yield tile, start, preload
        start += preload + nvec * mac


def _skew(geometry: DataflowGeometry, rows: int, cols: int) -> np.ndarray:
    """``(rows, cols)`` cycles PE(r, c) admits a vector after PE(0, 0)."""
    return (
        geometry.row_lag * np.arange(rows, dtype=np.int64)[:, None]
        + geometry.col_lag
        * _COLUMN_LAG
        * np.arange(cols, dtype=np.int64)[None, :]
    )


# ----------------------------------------------------------------------
# fold steppers
# ----------------------------------------------------------------------
def _step_fold_wave(
    tile: Tile,
    nvec: int,
    mac: int,
    base: int,
    max_cycles: int,
    geometry: DataflowGeometry,
) -> _FoldRun:
    """Evaluate one fold's plane state at vector-admission boundaries.

    ``base`` is the absolute cycle PE(0, 0) admits vector 0 (the fold's
    start plus its preload).  PE(r, c) admits vector ``v`` at
    ``launch0[r, c] + v * mac`` and holds it for ``mac`` cycles, so the
    whole fold's timing is closed form: the bottom row retires column sum
    ``(v, c)`` at ``launch0[rows - 1, c] + (v + 1) * mac`` and every PE is
    busy ``mac`` cycles per vector.  The cycle stepper evolves the same
    state one clock at a time; the ``array`` diff surface holds the two
    to each other plane for plane.  A budget overrun raises the cycle
    stepper's :class:`CycleLimitError` state: it trips at the first cycle
    past ``max_cycles`` (or the fold's first launch, if later) with the
    MACs not yet retired by then.  The run carries no psums: the wave
    stepper sums the whole layer in one kernel call.
    """
    rows, cols = tile.rows, tile.cols
    launch0 = base + _skew(geometry, rows, cols)
    waves = mac * np.arange(1, nvec + 1, dtype=np.int64)[:, None]
    finish = launch0[rows - 1, :] + waves
    last_finish = int(finish[nvec - 1].max())
    if last_finish - 1 > max_cycles:
        trip = max(max_cycles + 1, base)
        retired = np.clip((trip - launch0 - mac) // mac + 1, 0, nvec)
        raise CycleLimitError(
            trip, rows * cols * nvec - int(retired.sum()), max_cycles
        )
    return _FoldRun(
        psums=None,
        finish=finish,
        launch0=launch0,
        busy=mac * rows * cols * nvec,
        last_mac_finish=last_finish,
    )


@dataclasses.dataclass
class _FoldGroup:
    """Register planes of consecutive folds clocked together.

    Fold ``g`` is a fresh array of its own: index ``[g]`` of every plane,
    its tile in the top-left corner of the group's padded ``(R, C)``
    planes, with ``valid`` masking the padding so a padded PE never
    launches.  The folds share one relative clock ``t``, so the planes
    hold relative cycles; fold ``g`` is at absolute cycle ``base_g + t``.
    Every plane is stored flat, so one index addresses a PE of any fold:
    PE ``p = (g * R + r) * C + c`` holds vector ``v``'s product at
    ``count_base[p] + v * R * C`` of ``counts`` and lands it in column sum
    ``col_base[p] + v * C`` of the ``(G, V, C)`` column planes.  A padded
    column sum awaits no MACs, so ``pending`` sums to each fold's MACs
    still to retire.
    """

    counts: np.ndarray  # (G * V * R * C,) product planes, zero-padded
    valid: np.ndarray  # (G, R * C) PE inside its fold's tile
    skew: np.ndarray  # (R * C,) launch lag behind PE(0, 0)
    mac: int
    nvec: int
    cols: int
    count_base: np.ndarray  # (G * R * C,) counts index of a PE's vector 0
    col_base: np.ndarray  # (G * R * C,) column-plane index of vector 0's sum
    working: np.ndarray  # (G * R * C,) vector held, -1 before the first
    remaining: np.ndarray  # (G * R * C,) MAC cycles left
    launch0: np.ndarray  # (G * R * C,) relative launch cycle of vector 0
    pending: np.ndarray  # (G * V * C,) MACs each column sum awaits
    psum_cols: np.ndarray  # (G * V * C,) column sums, in the counts' type
    finish: np.ndarray  # (G * V * C,) relative completion cycle
    busy: np.ndarray  # (G * R * C,) cycles each PE was occupied


def _fold_group(
    counts: np.ndarray, tiles: list[Tile], mac: int, geometry: DataflowGeometry
) -> _FoldGroup:
    """Fresh register planes for the stacked ``(G, V, R, C)`` products."""
    nfolds, nvec, rows, cols = counts.shape
    fold_rows = np.array([tile.rows for tile in tiles], dtype=np.int64)
    fold_cols = np.array([tile.cols for tile in tiles], dtype=np.int64)
    pes = nfolds * rows * cols
    fold_of, rc = np.divmod(np.arange(pes, dtype=np.int64), rows * cols)
    valid = (np.arange(rows)[:, None] < fold_rows[:, None, None]) & (
        np.arange(cols) < fold_cols[:, None, None]
    )
    awaits = np.where(np.arange(cols) < fold_cols[:, None], fold_rows[:, None], 0)
    return _FoldGroup(
        counts=counts.reshape(-1),
        valid=valid.reshape(nfolds, rows * cols),
        skew=_skew(geometry, rows, cols).reshape(-1),
        mac=mac,
        nvec=nvec,
        cols=cols,
        count_base=fold_of * (nvec * rows * cols) + rc,
        col_base=fold_of * (nvec * cols) + rc % cols,
        working=np.full(pes, -1, dtype=np.int64),
        remaining=np.zeros(pes, dtype=np.int64),
        launch0=np.zeros(pes, dtype=np.int64),
        pending=np.repeat(awaits[:, None, :], nvec, axis=1).reshape(-1),
        psum_cols=np.zeros(nfolds * nvec * cols, dtype=counts.dtype),
        finish=np.zeros(nfolds * nvec * cols, dtype=np.int64),
        busy=np.zeros(pes, dtype=np.int64),
    )


def _clock(group: _FoldGroup, t: int) -> int:
    """Advance every fold of ``group`` one clock: relative cycle ``t``.

    A launch mask admits due vectors, every occupied PE burns one cycle,
    and PEs whose MAC retires land their product into the column psum —
    whole-plane numpy operations over the whole group.  Which PEs are due
    depends only on the clock and the skew, so the due mask is taken on
    the ``(R, C)`` plane before it meets each fold's ``valid`` and idle
    PEs.  DiP's skew-free array retires several rows into one column sum
    in the same cycle, so landings accumulate through ``np.add.at``.
    Returns how many MACs retired.
    """
    plane = len(group.skew)  # R * C
    vnext, lag = np.divmod(t - group.skew, group.mac)
    due = (lag == 0) & (vnext >= 0) & (vnext < group.nvec)
    idle = group.remaining == 0
    pe = np.flatnonzero(idle.reshape(group.valid.shape) & group.valid & due)
    if len(pe):
        entering = vnext[pe % plane]
        if (group.working[pe] >= entering).any():
            raise RuntimeError("PE re-entered an old vector")
        group.working[pe] = entering
        group.remaining[pe] = group.mac
        group.launch0[pe[entering == 0]] = t
    active = group.remaining > 0
    group.busy += active
    group.remaining -= active
    active &= group.remaining == 0
    pe = np.flatnonzero(active)
    if len(pe):
        v_idx = group.working[pe]
        at = group.col_base[pe] + v_idx * group.cols
        products = group.counts[group.count_base[pe] + v_idx * plane]
        np.add.at(group.psum_cols, at, products)
        np.add.at(group.pending, at, -1)
        group.finish[at[group.pending[at] == 0]] = t + 1
    return len(pe)


def _step_fold_group(
    counts: np.ndarray,
    scales: list[float],
    tiles: list[Tile],
    bases: list[int],
    mac: int,
    max_cycles: int,
    geometry: DataflowGeometry,
) -> list[_FoldRun]:
    """Clock consecutive folds together, one cycle at a time (register semantics).

    ``counts`` stacks the folds' product planes (``counts[g] * scales[g]``
    is fold ``g``'s :meth:`~repro.core.pe.PeModel.fold_products`),
    zero-padded to the largest tile; fold ``g`` admits its first vector
    at absolute cycle ``bases[g]``.  Every fold runs until its own last
    MAC retires, so the group takes as many clocks (:func:`_clock`) as
    its longest fold, not the sum over its folds.  A budget overrun
    raises what stepping the folds one after another would: the
    :class:`CycleLimitError` of the lowest-index fold that trips, at its
    first cycle past ``max_cycles`` with its own MACs still pending.
    Later folds start later, so they trip earlier in relative time; no
    fold can trip before the latest-starting one does, so until that
    clock the group runs until its last MAC retires, and only from it on
    is each fold's budget checked.
    """
    nfolds, nvec, rows, cols = counts.shape
    group = _fold_group(counts, tiles, mac, geometry)
    left = sum(tile.rows * tile.cols for tile in tiles) * nvec
    start = np.array(bases, dtype=np.int64)
    trip_from = max_cycles - max(bases) + 1
    trips: dict[int, tuple[int, int]] = {}
    running = np.ones(nfolds, dtype=bool)
    t = 0
    while True:
        if t >= trip_from:
            waiting = group.pending.reshape(nfolds, -1).sum(axis=1)
            running &= waiting > 0
            over = running & (start + t > max_cycles)
            for g in np.flatnonzero(over).tolist():
                trips[g] = (bases[g] + t, int(waiting[g]))
            running &= ~over
            if not running.any():
                break
        elif not left:
            break
        left -= _clock(group, t)
        t += 1
    if trips:
        cycle, pending = trips[min(trips)]
        raise CycleLimitError(cycle, pending, max_cycles)
    psum_cols = group.psum_cols.reshape(nfolds, nvec, cols)
    finishes = group.finish.reshape(nfolds, nvec, cols)
    launch0 = group.launch0.reshape(nfolds, rows, cols)
    busy = group.busy.reshape(nfolds, -1).sum(axis=1)
    runs = []
    for g, tile in enumerate(tiles):
        finish = finishes[g, :, : tile.cols] + bases[g]
        runs.append(
            _FoldRun(
                psums=psum_cols[g, :, : tile.cols].astype(np.float64) * scales[g],
                finish=finish,
                launch0=launch0[g, : tile.rows, : tile.cols] + bases[g],
                busy=int(busy[g]),
                last_mac_finish=int(finish.max()),
            )
        )
    return runs


def _cycle_runs(
    pe: PeModel,
    schedule: Iterator[tuple[Tile, int, int]],
    operands: Callable[[Tile], tuple[np.ndarray, np.ndarray]],
    plane: tuple[int, int, int],
    max_cycles: int,
    geometry: DataflowGeometry,
) -> Iterator[tuple[Tile, int, int, _FoldRun]]:
    """Step a layer's folds per clock, consecutive folds in groups.

    ``plane`` is the ``(V, R, C)`` shape of the largest fold's product
    plane.  A group takes as many folds as keep its stacked
    ``(G, V, R, C)`` plane within the kernels' ``_TILE_CHUNK_ELEMS``
    elements (at least one), so memory stays bounded on many-fold layers;
    each fold's plane still comes from one
    :meth:`~repro.core.pe.PeModel.fold_products` call.
    """
    size = max(1, _TILE_CHUNK_ELEMS // math.prod(plane))
    while folds := list(itertools.islice(schedule, size)):
        counts = None
        scales = []
        for g, (tile, _, _) in enumerate(folds):
            products, scale = pe.fold_products(*operands(tile))
            if counts is None:
                counts = np.zeros((len(folds), *plane), dtype=products.dtype)
            counts[g, :, : tile.rows, : tile.cols] = products
            scales.append(scale)
        runs = _step_fold_group(
            counts,
            scales,
            [tile for tile, _, _ in folds],
            [start + preload for _, start, preload in folds],
            pe.mac_cycles,
            max_cycles,
            geometry,
        )
        for (tile, start, preload), run in zip(folds, runs):
            yield tile, start, preload, run


# ----------------------------------------------------------------------
# fold-boundary accumulation (a mutation seam the verify suite targets)
# ----------------------------------------------------------------------
def _accumulate_fold(
    psums: np.ndarray,
    provenance: np.ndarray,
    tile: Tile,
    k_fold: int,
    fold_psums: np.ndarray | None,
) -> None:
    """Fold one tile's column sums into the layer OFM, with provenance.

    Reduction folds accumulate through the psum buffer exactly in binary
    (the HUB fold-invariance guarantee); ``provenance[k_fold]`` records
    how many MACs this reduction fold contributed to each touched output
    (the ``(k_folds, 1, OC)`` record: a count does not vary by vector).
    ``fold_psums`` is ``None`` from the wave stepper, whose layer psums
    come whole from one kernel call.
    """
    cols = slice(tile.c_start, tile.c_start + tile.cols)
    if fold_psums is not None:
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
    require_positive_int("simulate_array", max_cycles=max_cycles)
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
    provenance = np.zeros((tiling.k_folds, 1, params.oc), dtype=np.int64)
    folds: list[FoldTrace] = []
    launch_planes: list[np.ndarray] = []
    finish_planes: list[np.ndarray] = []
    busy_total = 0

    def operands(tile: Tile) -> tuple[np.ndarray, np.ndarray]:
        ks = slice(tile.k_start, tile.k_start + tile.rows)
        return wmat[ks, tile.c_start : tile.c_start + tile.cols], cols_mat[:, ks]

    schedule = _fold_schedule(tiling, nvec, mac, geometry)
    if granularity == "cycle":
        psums = np.zeros((nvec, params.oc), dtype=np.float64)
        plane = (
            nvec,
            min(config.rows, params.window),
            min(config.cols, params.oc),
        )
        stepped = _cycle_runs(pe, schedule, operands, plane, max_cycles, geometry)
    else:
        # The one kernel call execute makes: fold order cannot move an
        # exact integer psum.
        psums = pe.tile_psums(wmat, cols_mat)
        stepped = (
            (
                tile,
                start,
                preload,
                _step_fold_wave(
                    tile, nvec, mac, start + preload, max_cycles, geometry
                ),
            )
            for tile, start, preload in schedule
        )
    for index, (tile, start, preload, run) in enumerate(stepped):
        k_fold = tile.k_start // config.rows
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
                start_cycle=start,
                preload_cycles=preload,
                first_launch_cycle=int(run.launch0[0, 0]),
                last_mac_finish=run.last_mac_finish,
            )
        )
        if collect_planes:
            launch_planes.append(run.launch0)
            finish_planes.append(run.finish)
        busy_total += run.busy
    return ArraySimResult(
        psums=psums,
        provenance=np.broadcast_to(provenance, (tiling.k_folds, nvec, params.oc)),
        compute_cycles=folds[-1].last_mac_finish,
        pe_busy_cycles=busy_total,
        folds=tuple(folds),
        granularity=granularity,
        launch_planes=tuple(launch_planes) if collect_planes else None,
        finish_planes=tuple(finish_planes) if collect_planes else None,
    )
