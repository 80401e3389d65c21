"""The differential engine: one case, every redundant description of it.

A :class:`VerifyCase` is a point in the ``ArrayConfig`` x ``GemmParams``
x coding x bit-width space, flattened into one frozen dataclass whose
*defaults are the minimal case* — counterexample JSON stores only the
fields that differ from those defaults, which is what the fuzzer's
greedy shrinker minimises.

Four case kinds, four diff surfaces:

- ``kernel`` — the scalar :class:`~repro.unary.mac.HubMac` versus the
  vectorised :func:`~repro.unary.vectorized.hub_mac_row` (scalar
  reference), element by element at integer product scale, plus the
  closed-form ``2**(n-1) + 1`` crawl-latency oracle;
- ``engine`` — :func:`repro.sim.engine.simulate_layer`, the fold
  schedule, the traffic profiler and the event trace versus the
  analytical oracles of :mod:`repro.verify.oracles`;
- ``functional`` — the whole :class:`~repro.core.array.UsystolicArray`
  versus an independent scalar-MAC reference (and, for binary schemes,
  the exact convolution oracle);
- ``array`` — the third oracle: the stepped full-array co-simulator
  (:func:`repro.sim.arraysim.simulate_array`) versus the analytic
  schedule, the event trace and the functional array — analytic ≡ trace
  ≡ stepped, with mismatches naming the first divergent (cycle, pe,
  fold), plus the cycle-vs-wave granularity cross-check.

Every disagreement becomes a structured :class:`Mismatch` (check,
expected, got, delta) so failures are machine-shrinkable and diffable
rather than a bare assert message.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from ..core.array import UsystolicArray
from ..core.config import ArrayConfig
from ..gemm.im2col import im2col as _im2col_impl
from ..gemm.params import GemmParams
from ..gemm.tiling import tile_gemm
from ..memory.hierarchy import MemoryConfig
from ..schemes import ComputeScheme
from ..sim import arraysim, tracegen
from ..sim.dataflow import schedule_layer, schedule_tile
from ..sim.engine import simulate_layer
from ..sim.traffic import profile_traffic_batched
from ..unary import vectorized
from ..unary.bitstream import Coding
from ..unary.mac import HubMac
from .oracles import (
    compute_cycles_oracle,
    conv_oracle,
    im2col_oracle,
    mac_latency_oracle,
    per_tile_schedule_oracle,
    traffic_oracle,
)

__all__ = ["VerifyCase", "Mismatch", "DiffReport", "run_case", "default_cases"]

KINDS = ("kernel", "engine", "functional", "array")

_SCHEMES = {s.value: s for s in ComputeScheme}

#: Schemes the functional array diff supports (BS shares BP's exact path;
#: the exact zoo members TU/TB/DP diff against the convolution oracle).
_FUNCTIONAL_SCHEMES = ("BP", "UR", "UT", "TU", "TB", "DP")

#: Cap on reported per-element functional mismatches (the report stays
#: readable; the mismatch *count* is still exact via ``checks``).
_MAX_ELEMENT_MISMATCHES = 8

#: Analytic-cycle budget under which the array diff also runs the exact
#: per-clock-cycle stepper and holds the wave stepper to it; above it
#: only the closed-form wave granularity runs (still diffed against the
#: schedule, trace and functional array).  The guard counts the layer's
#: analytic cycles, a bound on the stepper's cost: the stepper clocks
#: consecutive folds together, so it pays the longest fold per group.
_CYCLE_STEP_GUARD = 50_000


@dataclasses.dataclass(frozen=True)
class VerifyCase:
    """One differential test point; defaults form the minimal case."""

    kind: str = "kernel"
    # kernel surface -------------------------------------------------
    bits: int = 4
    ebt: int | None = None
    coding: str = "rate"
    ifm: int = 0
    weights: tuple[int, ...] = (0,)
    # engine / functional surface ------------------------------------
    ih: int = 3
    iw: int = 3
    ic: int = 1
    wh: int = 1
    ww: int = 1
    oc: int = 1
    stride: int = 1
    rows: int = 2
    cols: int = 2
    scheme: str = "UR"
    sram_kib: int | None = None
    seed: int = 0
    act_pct: int | None = None
    """Activation magnitude as a percent (tubGEMM's expected-latency knob)."""

    # ------------------------------------------------------------------
    def validated(self) -> "VerifyCase":
        """Raise ``ValueError`` on any field outside the legal space."""
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.bits < 2:
            raise ValueError(f"bits must be >= 2, got {self.bits}")
        if self.ebt is not None and not 2 <= self.ebt <= self.bits:
            raise ValueError(f"ebt must be in [2, {self.bits}], got {self.ebt}")
        if self.coding not in ("rate", "temporal"):
            raise ValueError(f"coding must be rate|temporal, got {self.coding!r}")
        if self.coding == "temporal" and self.ebt is not None:
            raise ValueError("temporal coding admits no early termination")
        limit = 1 << (self.bits - 1)
        if abs(self.ifm) >= limit:
            raise ValueError(f"ifm {self.ifm} outside {self.bits}-bit range")
        if not self.weights or len(self.weights) > 64:
            raise ValueError("weights must hold 1..64 values")
        if any(abs(w) >= limit for w in self.weights):
            raise ValueError(f"weights outside {self.bits}-bit range")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.kind == "functional" and self.scheme not in _FUNCTIONAL_SCHEMES:
            raise ValueError(
                f"functional cases support {_FUNCTIONAL_SCHEMES}, got {self.scheme}"
            )
        if self.ebt is not None and not _SCHEMES[self.scheme].supports_early_termination:
            if self.kind != "kernel":
                raise ValueError(f"{self.scheme} does not support early termination")
        if self.act_pct is not None:
            if not _SCHEMES[self.scheme].value_dependent_latency:
                raise ValueError(
                    f"{self.scheme} has no value-dependent latency (act_pct)"
                )
            if not 0 <= self.act_pct <= 100:
                raise ValueError(f"act_pct must be in [0, 100], got {self.act_pct}")
        if self.sram_kib is not None and self.sram_kib < 1:
            raise ValueError("sram_kib must be positive or null")
        if self.kind != "kernel":
            # GemmParams/ArrayConfig contracts fire eagerly and loudly.
            self.gemm_params()
            self.array_config()
        return self

    # ------------------------------------------------------------------
    # derived configuration objects
    # ------------------------------------------------------------------
    def gemm_params(self) -> GemmParams:
        """The Table II description of this case's GEMM."""
        return GemmParams(
            name=f"verify-{self.kind}",
            ih=self.ih,
            iw=self.iw,
            ic=self.ic,
            wh=self.wh,
            ww=self.ww,
            oc=self.oc,
            stride=self.stride,
        )

    def array_config(self) -> ArrayConfig:
        """The systolic-array configuration of this case."""
        return ArrayConfig(
            rows=self.rows,
            cols=self.cols,
            scheme=_SCHEMES[self.scheme],
            bits=self.bits,
            ebt=self.ebt,
            act_frac=None if self.act_pct is None else self.act_pct / 100,
        )

    def memory_config(self) -> MemoryConfig:
        """The memory hierarchy (``sram_kib`` of ``None`` = SRAM-less)."""
        size = None if self.sram_kib is None else self.sram_kib * 1024
        return MemoryConfig(sram_bytes_per_variable=size)

    # ------------------------------------------------------------------
    # JSON round-trip: counterexamples carry only non-default fields
    # ------------------------------------------------------------------
    def nondefault_fields(self) -> dict[str, Any]:
        """Fields differing from the minimal case (the shrink target)."""
        out: dict[str, Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                out[field.name] = list(value) if isinstance(value, tuple) else value
        return out

    def to_json(self) -> dict[str, Any]:
        """Minimal JSON form (round-trips via :meth:`from_json`)."""
        return self.nondefault_fields()

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "VerifyCase":
        """Rebuild a case, filling every omitted field from the defaults."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown VerifyCase field(s): {', '.join(unknown)}")
        values = dict(data)
        if "weights" in values:
            values["weights"] = tuple(int(w) for w in values["weights"])
        return cls(**values).validated()


@dataclasses.dataclass(frozen=True)
class Mismatch:
    """One structured disagreement between implementation and oracle."""

    check: str
    expected: float
    got: float

    @property
    def delta(self) -> float:
        """Signed error, in the check's own unit (products, cycles, bytes)."""
        return self.got - self.expected

    def to_json(self) -> dict[str, Any]:
        """JSON-able record for counterexample files and ``--json`` output."""
        return {
            "check": self.check,
            "expected": self.expected,
            "got": self.got,
            "delta": self.delta,
        }

    def render(self) -> str:
        """One-line human rendering for the CLI report."""
        return (
            f"{self.check}: expected {self.expected!r}, got {self.got!r} "
            f"(delta {self.delta:+g})"
        )


@dataclasses.dataclass(frozen=True)
class DiffReport:
    """Outcome of one case: how many checks ran, which disagreed."""

    case: VerifyCase
    checks: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict[str, Any]:
        """JSON-able record (the fuzz counterexample payload)."""
        return {
            "case": self.case.to_json(),
            "checks": self.checks,
            "mismatches": [m.to_json() for m in self.mismatches],
        }


class _Collector:
    """Accumulates checks/mismatches while a case runs."""

    def __init__(self) -> None:
        self.checks = 0
        self.mismatches: list[Mismatch] = []

    def compare(self, check: str, expected: float, got: float) -> None:
        self.checks += 1
        if expected != got:
            self.mismatches.append(
                Mismatch(check=check, expected=float(expected), got=float(got))
            )


# ----------------------------------------------------------------------
# the three diff surfaces
# ----------------------------------------------------------------------
def _diff_kernel(case: VerifyCase, out: _Collector) -> None:
    """Scalar HubMac vs vectorised hub_mac_row, plus the latency oracle."""
    coding = Coding.RATE if case.coding == "rate" else Coding.TEMPORAL
    mac = HubMac(case.bits, ebt=case.ebt, coding=coding)
    scheme = (
        ComputeScheme.USYSTOLIC_RATE
        if coding is Coding.RATE
        else ComputeScheme.USYSTOLIC_TEMPORAL
    )
    out.compare(
        "kernel.mac_cycles",
        mac_latency_oracle(scheme, case.bits, case.ebt),
        mac.cycles,
    )
    weights = np.asarray(case.weights, dtype=np.int64)
    # The vectorised kernel is resolved through the module at call time so
    # mutation tests (and future fast paths) are what actually gets diffed.
    row = vectorized.hub_mac_row(
        case.ifm, weights, case.bits, ebt=case.ebt, coding=coding
    )
    scale = 1 << (case.bits - 1)
    for column, weight in enumerate(case.weights):
        scalar = mac.multiply(int(weight), case.ifm).product * scale
        out.compare(f"kernel.product[{column}]", scalar, float(row[column]))


def _diff_engine(case: VerifyCase, out: _Collector) -> None:
    """Schedule, traffic, trace and engine vs the analytical oracles."""
    params = case.gemm_params()
    array = case.array_config()
    memory = case.memory_config()

    latency = mac_latency_oracle(
        array.scheme, case.bits, case.ebt, act_frac=array.act_frac
    )
    out.compare("engine.mac_cycles", latency, array.mac_cycles)

    tiling = tile_gemm(params, array.rows, array.cols)
    cycles = compute_cycles_oracle(
        params, array.rows, array.cols, latency, skewed=array.scheme.has_skew
    )
    sched = schedule_layer(tiling, array.mac_cycles, array.geometry)
    per_tile, per_tile_util = per_tile_schedule_oracle(
        tiling, array.mac_cycles, array.geometry
    )
    out.compare("engine.schedule_cycles", cycles, sched.compute_cycles)
    out.compare("engine.per_tile_cycles", per_tile.compute_cycles, sched.compute_cycles)
    out.compare("engine.per_tile_active", per_tile.active_pe_mac_cycles, sched.active_pe_mac_cycles)
    result = simulate_layer(params, array, memory)
    out.compare("engine.compute_cycles", cycles, result.compute_cycles)
    out.compare("engine.utilization", per_tile_util, result.utilization)

    oracle = traffic_oracle(params, array.rows, array.cols, case.bits, memory)
    traffic = profile_traffic_batched(params, tiling, case.bits, memory)
    for key, expected in sorted(oracle.items()):
        variable, field = key.split(".", 1)
        out.compare(
            f"traffic.{key}", expected, getattr(traffic.variable(variable), field)
        )

    # The event trace must land on the no-SRAM demand totals byte for byte.
    demand = traffic_oracle(
        params, array.rows, array.cols, case.bits, case.memory_config().without_sram()
    )
    totals = tracegen.trace_totals(tracegen.generate_trace(params, array))
    for variable, op in (("ifm", "read"), ("weight", "read"), ("ofm", "read"), ("ofm", "write")):
        out.compare(
            f"trace.{variable}_{op}",
            demand[f"{variable}.dram_{op}"],
            totals.get((variable, op), 0),
        )


def _diff_functional(case: VerifyCase, out: _Collector) -> None:
    """Whole-array execution vs the scalar-MAC / exact-conv references."""
    params = case.gemm_params()
    array = case.array_config()
    rng = np.random.default_rng(case.seed)
    limit = 1 << (case.bits - 1)
    weight = rng.integers(-limit + 1, limit, size=(params.oc, params.wh, params.ww, params.ic))
    ifm = rng.integers(-limit + 1, limit, size=(params.ih, params.iw, params.ic))

    got = UsystolicArray(array).execute(params, weight, ifm)

    cols_mat = im2col_oracle(params, ifm)
    out.compare(
        "functional.im2col",
        0.0,
        float(np.abs(cols_mat - _im2col_impl(params, ifm)).max(initial=0)),
    )
    if array.scheme.is_exact:
        expected = conv_oracle(params, weight, ifm)
    else:
        # Independent scalar path: per-element HubMac products folded with
        # exact binary accumulation (the HUB fold-invariance guarantee).
        mac = HubMac(case.bits, ebt=case.ebt, coding=(
            Coding.RATE
            if array.scheme.spec.coding == "rate"
            else Coding.TEMPORAL
        ))
        scale = 1 << (case.bits - 1)
        wmat = weight.reshape(params.oc, params.window).T
        expected = np.zeros((cols_mat.shape[0], params.oc), dtype=np.float64)
        # Independent scalar oracle: deliberately not vectorised, so it
        # cannot share a bug with the kernel under test.
        for v in range(cols_mat.shape[0]):
            for k in range(params.window):
                x = int(cols_mat[v, k])
                for c in range(params.oc):
                    expected[v, c] += mac.multiply(int(wmat[k, c]), x).product * scale
        expected = expected.reshape(params.oh, params.ow, params.oc)
    reported = 0
    for index in np.ndindex(expected.shape):
        out.checks += 1
        if expected[index] != got[index]:
            if reported < _MAX_ELEMENT_MISMATCHES:
                out.mismatches.append(
                    Mismatch(
                        check=f"functional.ofm{list(index)}",
                        expected=float(expected[index]),
                        got=float(got[index]),
                    )
                )
            reported += 1


def _compare_plane(
    out: _Collector,
    name: Callable[[tuple[int, ...]], str],
    expected: np.ndarray,
    got: np.ndarray,
) -> None:
    """Element-count-exact plane comparison with capped named reports."""
    out.checks += expected.size
    bad = np.argwhere(expected != got)
    for index in bad[:_MAX_ELEMENT_MISMATCHES]:
        key = tuple(int(i) for i in index)
        out.mismatches.append(
            Mismatch(
                check=name(key),
                expected=float(expected[key]),
                got=float(got[key]),
            )
        )
    # Overflow beyond the cap still counts as mismatches via ``checks``
    # bookkeeping in the report consumer; record the count explicitly.
    if len(bad) > _MAX_ELEMENT_MISMATCHES:
        out.compare(name(("...",)) + ".count", 0, len(bad))


def _diff_array(case: VerifyCase, out: _Collector) -> None:
    """The stepped full array vs schedule, trace, functional array.

    The three-way equivalence this pins::

        analytic schedule  ==  event trace  ==  stepped array
        (closed form)          (tracegen)       (arraysim planes)

    with psums additionally held byte-identical to the functional
    :class:`~repro.core.array.UsystolicArray` and, when the case is
    small, the wave stepper held to the exact per-cycle stepper.
    """
    params = case.gemm_params()
    array = case.array_config()
    rng = np.random.default_rng(case.seed)
    limit = 1 << (case.bits - 1)
    weight = rng.integers(
        -limit + 1, limit, size=(params.oc, params.wh, params.ww, params.ic)
    )
    ifm = rng.integers(-limit + 1, limit, size=(params.ih, params.iw, params.ic))

    latency = mac_latency_oracle(
        array.scheme, case.bits, case.ebt, act_frac=array.act_frac
    )
    tiling = tile_gemm(params, array.rows, array.cols)
    sched = schedule_layer(tiling, array.mac_cycles, array.geometry)
    cycles = compute_cycles_oracle(
        params, array.rows, array.cols, latency, skewed=array.scheme.has_skew
    )
    per_tile, _ = per_tile_schedule_oracle(tiling, array.mac_cycles, array.geometry)
    # Resolved through the module so mutation tests diff what runs.
    stepped = arraysim.simulate_array(
        params, array, weight, ifm, granularity="wave", collect_planes=True
    )

    out.compare("array.compute_cycles", cycles, stepped.compute_cycles)
    out.compare("array.per_tile_cycles", per_tile.compute_cycles, stepped.compute_cycles)
    out.compare("array.schedule_cycles", sched.compute_cycles, stepped.compute_cycles)
    out.compare("array.pe_busy_cycles", sched.active_pe_mac_cycles, stepped.pe_busy_cycles)
    out.compare("array.num_folds", tiling.num_tiles, stepped.num_folds)

    # --- per-fold closed form and launch skew (names pe and fold) -----
    vectors = params.oh * params.ow
    offset = 0
    for fold, tile in zip(stepped.folds, tiling):
        ts = schedule_tile(tile, array.mac_cycles, array.geometry)
        tag = f"array.fold[{fold.index}]"
        out.compare(f"{tag}.start_cycle", offset, fold.start_cycle)
        out.compare(f"{tag}.preload_cycles", ts.preload_cycles, fold.preload_cycles)
        out.compare(
            f"{tag}.first_launch_cycle",
            offset + ts.preload_cycles,
            fold.first_launch_cycle,
        )
        out.compare(
            f"{tag}.last_mac_finish",
            offset + ts.total_cycles,
            fold.last_mac_finish,
        )
        # The launch stagger, written out independently of the geometry
        # object: one cycle per hop for skewed schemes, flat for DiP.
        if array.scheme.has_skew:
            skew = (
                np.arange(tile.rows, dtype=np.int64)[:, None]
                + np.arange(tile.cols, dtype=np.int64)[None, :]
            )
        else:
            skew = np.zeros((tile.rows, tile.cols), dtype=np.int64)
        _compare_plane(
            out,
            lambda pe, f=fold.index: f"array.launch[fold={f},pe={pe}]",
            offset + ts.preload_cycles + skew,
            stepped.launch_planes[fold.index],
        )
        offset += ts.preload_cycles + ts.stream_cycles

    # --- trace alignment: the event trace against the stepped folds ---
    events = tracegen.generate_trace(params, array)
    weight_cycles = [e.cycle for e in events if e.variable == "weight"]
    ifm_cycles = [e.cycle for e in events if e.variable == "ifm"]
    ofm_writes = [e.cycle for e in events if e.variable == "ofm" and e.op == "write"]
    out.compare("array.trace.weight_events", stepped.num_folds, len(weight_cycles))
    out.compare("array.trace.ifm_events", stepped.num_folds * vectors, len(ifm_cycles))
    if len(weight_cycles) == stepped.num_folds and len(ifm_cycles) == len(ofm_writes) == stepped.num_folds * vectors:
        for fold in stepped.folds:
            tag = f"array.trace[fold={fold.index}]"
            first = fold.index * vectors
            out.compare(f"{tag}.weight_read", fold.start_cycle, weight_cycles[fold.index])
            out.compare(f"{tag}.ifm_first", fold.first_launch_cycle, ifm_cycles[first])
            out.compare(
                f"{tag}.ifm_last",
                fold.first_launch_cycle + (vectors - 1) * array.mac_cycles,
                ifm_cycles[first + vectors - 1],
            )
            out.compare(
                f"{tag}.ofm_last_write",
                fold.first_launch_cycle + vectors * array.mac_cycles,
                ofm_writes[first + vectors - 1],
            )

    # --- psums byte-identical to the functional array -----------------
    ref = UsystolicArray(array).execute(params, weight, ifm).reshape(-1, params.oc)
    _compare_plane(
        out, lambda vc: f"array.psum[v={vc[0]},oc={vc[1]}]", ref, stepped.psums
    )
    if array.scheme.is_exact:
        exact = conv_oracle(params, weight, ifm).reshape(-1, params.oc)
        _compare_plane(
            out, lambda vc: f"array.conv[v={vc[0]},oc={vc[1]}]", exact, stepped.psums
        )

    # --- psum provenance: every output covered exactly once per fold --
    expected_prov = np.zeros_like(stepped.provenance)
    for tile in tiling:
        k_fold = tile.k_start // array.rows
        expected_prov[k_fold, :, tile.c_start : tile.c_start + tile.cols] += tile.rows
    out.compare(
        "array.provenance.per_fold",
        0.0,
        float(np.abs(stepped.provenance - expected_prov).max(initial=0)),
    )
    out.compare(
        "array.provenance.coverage",
        0.0,
        float(
            np.abs(stepped.provenance.sum(axis=0) - params.window).max(initial=0)
        ),
    )

    # --- granularity cross-check: wave held to the per-cycle stepper --
    if cycles <= _CYCLE_STEP_GUARD:
        clocked = arraysim.simulate_array(
            params, array, weight, ifm, granularity="cycle", collect_planes=True
        )
        out.compare("array.step.compute_cycles", clocked.compute_cycles, stepped.compute_cycles)
        out.compare("array.step.pe_busy_cycles", clocked.pe_busy_cycles, stepped.pe_busy_cycles)
        _compare_plane(
            out,
            lambda vc: f"array.step.psum[v={vc[0]},oc={vc[1]}]",
            clocked.psums,
            stepped.psums,
        )
        for fold in stepped.folds:
            _compare_plane(
                out,
                lambda pe, f=fold.index: f"array.step.launch[fold={f},pe={pe}]",
                clocked.launch_planes[fold.index],
                stepped.launch_planes[fold.index],
            )
            _compare_plane(
                out,
                lambda vc, f=fold.index: f"array.step.finish[fold={f},v={vc[0]},col={vc[1]}]",
                clocked.finish_planes[fold.index],
                stepped.finish_planes[fold.index],
            )


def run_case(case: VerifyCase) -> DiffReport:
    """Run every diff surface of one (validated) case."""
    case = case.validated()
    out = _Collector()
    if case.kind == "kernel":
        _diff_kernel(case, out)
    elif case.kind == "engine":
        _diff_engine(case, out)
    elif case.kind == "array":
        _diff_array(case, out)
    else:
        _diff_functional(case, out)
    return DiffReport(case=case, checks=out.checks, mismatches=tuple(out.mismatches))


def default_cases() -> list[VerifyCase]:
    """The curated deterministic grid ``python -m repro.verify diff`` runs.

    One representative per scheme/coding/memory corner; the fuzzer covers
    the space between them.
    """
    cases = [
        VerifyCase(kind="kernel", bits=8, ebt=6, ifm=-97, weights=(127, -128 + 1, 63, -1, 0)),
        VerifyCase(kind="kernel", bits=8, ifm=55, weights=(-77, 80, 127)),
        VerifyCase(kind="kernel", bits=6, coding="temporal", ifm=-21, weights=(31, -30, 7)),
        VerifyCase(kind="kernel", bits=2, ifm=1, weights=(-1, 1)),
    ]
    for scheme, ebt in (
        ("BP", None),
        ("BS", None),
        ("UR", 6),
        ("UT", None),
        ("UG", None),
        ("TU", None),
        ("TB", None),
        ("DP", None),
    ):
        for sram_kib in (None, 64):
            cases.append(
                VerifyCase(
                    kind="engine",
                    bits=8,
                    ebt=ebt,
                    scheme=scheme,
                    ih=8,
                    iw=8,
                    ic=4,
                    wh=3,
                    ww=3,
                    oc=10,
                    rows=4,
                    cols=3,
                    sram_kib=sram_kib,
                )
            )
    cases.append(
        VerifyCase(kind="engine", scheme="UR", bits=8, ebt=4, ih=7, iw=9, ic=2,
                   wh=2, ww=3, oc=5, stride=2, rows=3, cols=2, sram_kib=1)
    )
    # tubGEMM's expected-latency knob: three magnitudes, the cycle oracle
    # must track each one independently.
    for act_pct in (0, 25, 50):
        cases.append(
            VerifyCase(kind="engine", scheme="TB", bits=8, act_pct=act_pct,
                       ih=8, iw=8, ic=4, wh=3, ww=3, oc=10, rows=4, cols=3)
        )
    cases.extend(
        [
            VerifyCase(kind="functional", scheme="BP", bits=8, ih=5, iw=5, ic=2,
                       wh=2, ww=2, oc=3, rows=4, cols=3, seed=7),
            VerifyCase(kind="functional", scheme="UR", bits=5, ebt=4, ih=4, iw=4,
                       ic=1, wh=2, ww=2, oc=2, rows=2, cols=2, seed=11),
            # The widest count table (11 magnitude bits): K = 144 spans the
            # kernel's 128-row K-chunks at two columns, so the chunk seam
            # of its int32 accumulator is diffed against the scalar HubMac.
            VerifyCase(kind="functional", scheme="UR", bits=12, ebt=12, ih=3,
                       iw=3, ic=16, wh=3, ww=3, oc=2, rows=4, cols=2, seed=43),
            VerifyCase(kind="functional", scheme="UT", bits=4, ih=3, iw=3, ic=1,
                       wh=2, ww=2, oc=2, rows=3, cols=2, seed=3),
            VerifyCase(kind="functional", scheme="TU", bits=6, ih=4, iw=4, ic=1,
                       wh=2, ww=2, oc=2, rows=2, cols=2, seed=19),
            VerifyCase(kind="functional", scheme="TB", bits=6, act_pct=50, ih=4,
                       iw=4, ic=1, wh=2, ww=2, oc=2, rows=2, cols=2, seed=23),
            VerifyCase(kind="functional", scheme="DP", bits=8, ih=5, iw=5, ic=2,
                       wh=2, ww=2, oc=3, rows=4, cols=3, seed=29),
        ]
    )
    cases.extend(
        [
            # The third oracle: one stepped-array case per scheme family,
            # sized so the per-cycle granularity cross-check also runs.
            VerifyCase(kind="array", scheme="BP", bits=8, ih=6, iw=6, ic=2,
                       wh=3, ww=3, oc=5, rows=4, cols=3, seed=5),
            VerifyCase(kind="array", scheme="UR", bits=5, ebt=3, ih=4, iw=4,
                       ic=2, wh=2, ww=2, oc=3, rows=3, cols=2, seed=13),
            VerifyCase(kind="array", scheme="UT", bits=4, ih=4, iw=4, ic=1,
                       wh=2, ww=2, oc=3, rows=2, cols=2, seed=17),
            VerifyCase(kind="array", scheme="BS", bits=5, ih=4, iw=4, ic=1,
                       wh=2, ww=2, oc=2, rows=2, cols=2, seed=4),
            VerifyCase(kind="array", scheme="UG", bits=4, ih=4, iw=4, ic=1,
                       wh=2, ww=2, oc=3, rows=2, cols=2, seed=3),
            VerifyCase(kind="array", scheme="TU", bits=4, ih=4, iw=4, ic=1,
                       wh=2, ww=2, oc=3, rows=2, cols=2, seed=31),
            VerifyCase(kind="array", scheme="TB", bits=5, act_pct=25, ih=4,
                       iw=4, ic=1, wh=2, ww=2, oc=2, rows=2, cols=2, seed=37),
            # DiP's skew-free schedule, proved by the stepped co-simulator:
            # flat launch planes, zero drain, per-cycle granularity held.
            VerifyCase(kind="array", scheme="DP", bits=8, ih=6, iw=6, ic=2,
                       wh=3, ww=3, oc=5, rows=4, cols=3, seed=41),
        ]
    )
    return [case.validated() for case in cases]
