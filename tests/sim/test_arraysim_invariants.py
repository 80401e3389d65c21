"""Property suite: the stepped full array vs the analytic schedule/oracles.

For random (rows, cols, fold counts, scheme, bits) the stepped array's
total cycles, ``pe_busy_cycles`` and psums must match the closed-form
schedule and the :mod:`repro.verify.oracles` golden models *exactly*, the
wave and per-cycle granularities must agree plane for plane, and the
single-fold skew/drain invariants of ``test_skew_invariants.py`` must
extend to multi-fold runs (fold starts chain through the drain-overlap
boundary, launch planes carry the ``r + c`` skew of every fold).  A
one-fold layer stepped per cycle is the register-level golden model of a
single fold; its budget overrun raises a structured ``CycleLimitError``,
and the wave stepper raises the same one (equal cycle and pending MACs).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array import UsystolicArray
from repro.core.config import ArrayConfig
from repro.fsu.ugemm import FsuGemm
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.schemes import ComputeScheme as CS
from repro.sim import arraysim
from repro.sim.arraysim import GRANULARITIES, CycleLimitError, simulate_array
from repro.sim.dataflow import schedule_layer, schedule_tile
from repro.unary.vectorized import hub_mac_row, hub_mac_tile, hub_product_counts
from repro.verify.oracles import compute_cycles_oracle, conv_oracle

from .per_fold_stepper import simulate_array_per_fold

_SKEWED = [
    (CS.BINARY_PARALLEL, 8, None),
    (CS.BINARY_SERIAL, 6, None),
    (CS.USYSTOLIC_RATE, 4, 3),
    (CS.USYSTOLIC_RATE, 5, None),
    (CS.USYSTOLIC_TEMPORAL, 3, None),
]

#: The skewed weight-stationary schemes (``r + c`` launch skew).
SCHEMES = st.sampled_from(_SKEWED)

#: Plus DiP (zero row and column lag), tuGEMM (exact integer planes at a
#: temporal latency) and uGEMM-H (float psums from the scalar PE walk, so
#: the wave stepper's fold kernel is held to the cycle stepper's landing
#: order).
ALL_SCHEMES = st.sampled_from(
    _SKEWED
    + [
        (CS.DIP_PARALLEL, 8, None),
        (CS.TUGEMM_TEMPORAL, 4, None),
        (CS.UGEMM_RATE, 4, 3),
    ]
)


@st.composite
def stepped_cases(draw, schemes=SCHEMES):
    """A random layer, array and operand pair (seed-derived, bounded)."""
    scheme, bits, ebt = draw(schemes)
    ih = draw(st.integers(2, 5))
    iw = draw(st.integers(2, 5))
    wh = draw(st.integers(1, min(3, ih)))
    ww = draw(st.integers(1, min(3, iw)))
    params = GemmParams(
        name="prop",
        ih=ih,
        iw=iw,
        ic=draw(st.integers(1, 3)),
        wh=wh,
        ww=ww,
        oc=draw(st.integers(1, 5)),
        stride=draw(st.integers(1, 2)),
    )
    config = ArrayConfig(
        rows=draw(st.integers(1, 5)),
        cols=draw(st.integers(1, 5)),
        scheme=scheme,
        bits=bits,
        ebt=ebt,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    limit = 1 << (bits - 1)
    weight = rng.integers(
        -limit + 1, limit, size=(params.oc, params.wh, params.ww, params.ic)
    )
    ifm = rng.integers(-limit + 1, limit, size=(params.ih, params.iw, params.ic))
    return params, config, weight, ifm


class TestSteppedMatchesAnalytic:
    @given(case=stepped_cases(schemes=ALL_SCHEMES))
    @settings(max_examples=30, deadline=None)
    def test_cycles_busy_and_psums_match_oracles(self, case):
        params, config, weight, ifm = case
        tiling = tile_gemm(params, config.rows, config.cols)
        sched = schedule_layer(tiling, config.mac_cycles, config.geometry)
        oracle = compute_cycles_oracle(
            params,
            config.rows,
            config.cols,
            config.mac_cycles,
            skewed=config.geometry.has_skew,
        )
        ref = UsystolicArray(config).execute(params, weight, ifm)
        ref = ref.reshape(-1, params.oc)
        for granularity in ("wave", "cycle"):
            res = simulate_array(params, config, weight, ifm, granularity=granularity)
            assert res.compute_cycles == sched.compute_cycles == oracle
            assert res.pe_busy_cycles == sched.active_pe_mac_cycles
            assert np.array_equal(res.psums, ref)
            assert res.num_folds == tiling.num_tiles

    @given(
        case=stepped_cases(
            schemes=st.just((CS.BINARY_PARALLEL, 8, None))
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_binary_parallel_is_the_exact_convolution(self, case):
        params, config, weight, ifm = case
        res = simulate_array(params, config, weight, ifm)
        exact = conv_oracle(params, weight, ifm).reshape(-1, params.oc)
        assert np.array_equal(res.psums, exact)


class TestGranularitiesAgree:
    @given(case=stepped_cases(schemes=ALL_SCHEMES))
    @settings(max_examples=25, deadline=None)
    def test_wave_equals_cycle_plane_for_plane(self, case):
        params, config, weight, ifm = case
        wave = simulate_array(
            params, config, weight, ifm, granularity="wave", collect_planes=True
        )
        clocked = simulate_array(
            params, config, weight, ifm, granularity="cycle", collect_planes=True
        )
        assert wave.compute_cycles == clocked.compute_cycles
        assert wave.pe_busy_cycles == clocked.pe_busy_cycles
        assert np.array_equal(wave.psums, clocked.psums)
        assert np.array_equal(wave.provenance, clocked.provenance)
        assert wave.folds == clocked.folds
        for w_plane, c_plane in zip(wave.launch_planes, clocked.launch_planes):
            assert np.array_equal(w_plane, c_plane)
        for w_plane, c_plane in zip(wave.finish_planes, clocked.finish_planes):
            assert np.array_equal(w_plane, c_plane)


def _assert_same_run(grouped, reference):
    """Every byte of two ``collect_planes`` cycle runs is the same."""
    assert grouped.psums.tobytes() == reference.psums.tobytes()
    assert np.array_equal(grouped.provenance, reference.provenance)
    assert grouped.compute_cycles == reference.compute_cycles
    assert grouped.pe_busy_cycles == reference.pe_busy_cycles
    assert grouped.folds == reference.folds
    for got, want in zip(
        grouped.launch_planes + grouped.finish_planes,
        reference.launch_planes + reference.finish_planes,
        strict=True,
    ):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _budget_outcomes(step, args):
    """Completion, or the ``CycleLimitError`` state, at budgets that trip
    before the first launch, mid-layer and one or two cycles short."""
    total = step(*args).compute_cycles
    outcomes = []
    for budget in sorted({20, total // 2, total - 2, total - 1, total} - {0}):
        try:
            outcomes.append(("done", step(*args, max_cycles=budget).compute_cycles))
        except CycleLimitError as err:
            assert err.max_cycles == budget
            outcomes.append(("limit", budget, err.cycle, err.pending_macs))
    return outcomes


def _grouped(params, config, weight, ifm, max_cycles=50_000_000):
    return simulate_array(
        params,
        config,
        weight,
        ifm,
        granularity="cycle",
        max_cycles=max_cycles,
        collect_planes=True,
    )


#: Group bounds to draw: the default, one fold per group, and bounds
#: that split the drawn layers into groups of several folds.
GROUP_ELEMS = st.sampled_from([None, 1, 60, 250])


class TestGroupedCycleStepper:
    """The cycle stepper clocks consecutive folds together; each fold is a
    fresh machine, so it must match stepping them one after another with
    the per-fold stepper it replaced (``per_fold_stepper.py``)."""

    @given(case=stepped_cases(schemes=ALL_SCHEMES), group_elems=GROUP_ELEMS)
    @settings(max_examples=30, deadline=None)
    def test_matches_the_per_fold_stepper(self, case, group_elems):
        with pytest.MonkeyPatch.context() as patch:
            if group_elems is not None:
                patch.setattr(arraysim, "_TILE_CHUNK_ELEMS", group_elems)
            _assert_same_run(_grouped(*case), simulate_array_per_fold(*case))

    @given(case=stepped_cases(schemes=ALL_SCHEMES), group_elems=GROUP_ELEMS)
    @settings(max_examples=15, deadline=None)
    def test_trips_where_the_per_fold_stepper_trips(self, case, group_elems):
        with pytest.MonkeyPatch.context() as patch:
            if group_elems is not None:
                patch.setattr(arraysim, "_TILE_CHUNK_ELEMS", group_elems)
            grouped = _budget_outcomes(_grouped, case)
        assert grouped == _budget_outcomes(simulate_array_per_fold, case)

    @pytest.mark.parametrize(
        "scheme,ebt",
        [(CS.USYSTOLIC_RATE, 4), (CS.DIP_PARALLEL, None), (CS.BINARY_SERIAL, None)],
        ids=["UR", "DP", "BS"],
    )
    def test_a_layer_spanning_several_groups(self, monkeypatch, scheme, ebt):
        # Ten folds of 8x5 (edge rows 4, edge columns 3) with room for
        # three fold planes per group: groups of 3, 3, 3 and 1 that mix
        # full and edge tiles.
        params = GemmParams(name="g", ih=6, iw=6, ic=4, wh=3, ww=3, oc=8)
        config = ArrayConfig(rows=8, cols=5, scheme=scheme, bits=6, ebt=ebt)
        rng = np.random.default_rng(7)
        weight = rng.integers(-31, 32, size=(params.oc, params.wh, params.ww, params.ic))
        ifm = rng.integers(-31, 32, size=(params.ih, params.iw, params.ic))
        case = (params, config, weight, ifm)
        monkeypatch.setattr(arraysim, "_TILE_CHUNK_ELEMS", 3 * params.oh * params.ow * 8 * 5)
        groups = []
        step_group = arraysim._step_fold_group

        def counted(counts, *rest):
            groups.append(len(counts))
            return step_group(counts, *rest)

        monkeypatch.setattr(arraysim, "_step_fold_group", counted)
        _assert_same_run(_grouped(*case), simulate_array_per_fold(*case))
        assert groups == [3, 3, 3, 1]
        assert _budget_outcomes(_grouped, case) == _budget_outcomes(
            simulate_array_per_fold, case
        )


class TestMultiFoldSkewAndDrain:
    # Skewed schemes only: the launch planes asserted below carry the
    # ``r + c`` skew, which DiP does not have.
    @given(case=stepped_cases())
    @settings(max_examples=25, deadline=None)
    def test_fold_boundaries_chain_through_drain_overlap(self, case):
        params, config, weight, ifm = case
        res = simulate_array(
            params, config, weight, ifm, granularity="wave", collect_planes=True
        )
        tiling = tile_gemm(params, config.rows, config.cols)
        mac = config.mac_cycles
        vectors = params.oh * params.ow
        offset = 0
        for fold, tile in zip(res.folds, tiling):
            ts = schedule_tile(tile, mac)
            # Fold start = sum of earlier preload+stream costs: the drain
            # of every non-final fold hides under the next preload.
            assert fold.start_cycle == offset
            assert fold.preload_cycles == ts.preload_cycles
            assert fold.first_launch_cycle == offset + ts.preload_cycles
            assert fold.last_mac_finish == offset + ts.total_cycles
            # Launch skew: PE(r, c) admits vector 0 exactly r + c cycles
            # after the fold's first launch, in every fold.
            launch = res.launch_planes[fold.index]
            skew = (
                np.arange(tile.rows)[:, None] + np.arange(tile.cols)[None, :]
            )
            assert np.array_equal(launch, fold.first_launch_cycle + skew)
            # Drain: each (v, c) column sum lands one MAC after its
            # bottom-row launch, spaced one MAC apart down the vectors.
            finish = res.finish_planes[fold.index]
            bottom = launch[tile.rows - 1, :]
            expected = bottom[None, :] + mac * (1 + np.arange(vectors))[:, None]
            assert np.array_equal(finish, expected)
            offset += ts.preload_cycles + ts.stream_cycles
        assert res.compute_cycles == res.folds[-1].last_mac_finish

    @given(case=stepped_cases())
    @settings(max_examples=25, deadline=None)
    def test_provenance_covers_every_output_exactly_once_per_fold(self, case):
        params, config, weight, ifm = case
        res = simulate_array(params, config, weight, ifm)
        tiling = tile_gemm(params, config.rows, config.cols)
        assert res.provenance.shape[0] == tiling.k_folds
        expected = np.zeros_like(res.provenance)
        for tile in tiling:
            k_fold = tile.k_start // config.rows
            expected[k_fold, :, tile.c_start : tile.c_start + tile.cols] += tile.rows
        assert np.array_equal(res.provenance, expected)
        assert (res.provenance.sum(axis=0) == params.window).all()


class TestValidation:
    def test_rejects_unknown_granularity(self):
        params = GemmParams(name="g", ih=2, iw=2, ic=1, wh=1, ww=1, oc=1, stride=1)
        config = ArrayConfig(rows=1, cols=1, scheme=CS.BINARY_PARALLEL, bits=8)
        w = np.zeros((1, 1, 1, 1), dtype=np.int64)
        x = np.zeros((2, 2, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="granularity"):
            simulate_array(params, config, w, x, granularity="picosecond")

    def test_rejects_out_of_range_operands(self):
        params = GemmParams(name="g", ih=2, iw=2, ic=1, wh=1, ww=1, oc=1, stride=1)
        config = ArrayConfig(rows=1, cols=1, scheme=CS.BINARY_PARALLEL, bits=4)
        w = np.full((1, 1, 1, 1), 8, dtype=np.int64)  # == 2**(4-1)
        x = np.zeros((2, 2, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="range"):
            simulate_array(params, config, w, x)

    @pytest.mark.parametrize(
        "dtype,bits",
        [(np.int8, 8), (np.int16, 16), (np.int32, 16), (np.int64, 8)],
        ids=["int8", "int16", "int32", "int64"],
    )
    def test_rejects_each_dtype_minimum(self, dtype, bits):
        # Regression: the range checks took ``np.abs``, and the abs of a
        # signed dtype's minimum is itself, so an int8 -128 passed as an
        # 8-bit operand and INT64_MIN passed at any width.
        low = np.iinfo(dtype).min
        named = "sign-magnitude range"
        params = GemmParams(name="g", ih=2, iw=2, ic=1, wh=1, ww=1, oc=1, stride=1)
        for code in ("BP", "UR"):
            config = ArrayConfig(rows=1, cols=1, scheme=CS(code), bits=bits)
            for operand in ("weight", "ifm"):
                w = np.zeros((1, 1, 1, 1), dtype=dtype)
                x = np.zeros((2, 2, 1), dtype=dtype)
                (w if operand == "weight" else x).flat[0] = low
                with pytest.raises(ValueError, match=named):
                    UsystolicArray(config).execute(params, w, x)
                for granularity in GRANULARITIES:
                    with pytest.raises(ValueError, match=named):
                        simulate_array(params, config, w, x, granularity=granularity)
        row = np.array([low], dtype=dtype)
        one = np.ones((1, 1), dtype=dtype)
        with pytest.raises(ValueError, match=named):
            hub_mac_row(1, row, bits)
        with pytest.raises(ValueError, match=named):
            hub_mac_row(row[0], one[0], bits)
        with pytest.raises(ValueError, match=named):
            hub_mac_tile(row[None, :], one, bits)
        with pytest.raises(ValueError, match=named):
            hub_product_counts(one, row[None, :], bits)
        with pytest.raises(ValueError, match=named):
            FsuGemm(bits).dot(row, one[0])

    def test_rejects_float_operands(self):
        # Every entry point must reject a float before it casts to int64,
        # which would run 2.9 as 2; a float IFM scalar included.
        named = "integer"
        params = GemmParams(name="g", ih=2, iw=2, ic=1, wh=1, ww=1, oc=1, stride=1)
        for code in ("BP", "UR"):
            config = ArrayConfig(rows=1, cols=1, scheme=CS(code), bits=8)
            for operand in ("weight", "ifm"):
                w = np.zeros((1, 1, 1, 1), dtype=np.int64)
                x = np.zeros((2, 2, 1), dtype=np.int64)
                if operand == "weight":
                    w = w + 2.9
                else:
                    x = x + 2.9
                with pytest.raises(ValueError, match=named):
                    UsystolicArray(config).execute(params, w, x)
                for granularity in GRANULARITIES:
                    with pytest.raises(ValueError, match=named):
                        simulate_array(params, config, w, x, granularity=granularity)
        for ifm, weights in ((3, [2.9]), (3.7, [2]), (np.float64(3.0), [2])):
            with pytest.raises(ValueError, match=named):
                hub_mac_row(ifm, weights, 8)
        for w_tile, x_tile in (([[2.9]], [[3]]), ([[2]], [[3.0]])):
            with pytest.raises(ValueError, match=named):
                hub_mac_tile(w_tile, x_tile, 8)
            with pytest.raises(ValueError, match=named):
                hub_product_counts(w_tile, x_tile, 8)
            with pytest.raises(ValueError, match=named):
                FsuGemm(8).matmul(x_tile, w_tile)
        for weights, ifms in (([2.9], [3]), ([2], [3.0])):
            with pytest.raises(ValueError, match=named):
                FsuGemm(8).dot(weights, ifms)

    def test_rejects_mismatched_operand_shapes(self):
        params = GemmParams(name="g", ih=2, iw=2, ic=1, wh=1, ww=1, oc=1, stride=1)
        config = ArrayConfig(rows=1, cols=1, scheme=CS.BINARY_PARALLEL, bits=8)
        w = np.zeros((1, 1, 1, 2), dtype=np.int64)  # ic=2, params say 1
        x = np.zeros((2, 2, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="shape"):
            simulate_array(params, config, w, x)


class TestFloat64ExactRange:
    """Both engines reject a layer whose psums could leave float64's
    exact integer range: ``window * 4**(bits-1) > 2**53``."""

    CONFIG = ArrayConfig(rows=32, cols=32, scheme=CS.BINARY_PARALLEL, bits=24)

    @staticmethod
    def _near_max(params, seed):
        # 24-bit magnitudes just under 2**23, all positive: the largest sums.
        rng = np.random.default_rng(seed)
        low, high = (1 << 23) - 5001, 1 << 23
        w = rng.integers(low, high, size=(params.oc, params.wh, params.ww, params.ic))
        x = rng.integers(low, high, size=(params.ih, params.iw, params.ic))
        return w, x

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "params",
        [
            GemmParams(name="fc", ih=1, iw=1, ic=128, wh=1, ww=1, oc=40),
            GemmParams(name="conv", ih=5, iw=5, ic=8, wh=4, ww=4, oc=3),
        ],
        ids=["fc", "conv"],
    )
    def test_at_the_bound_every_engine_is_exact(self, params, seed):
        assert params.window * 4**23 == 2**53
        w, x = self._near_max(params, seed)
        exact = conv_oracle(params, w, x).reshape(-1, params.oc)
        executed = UsystolicArray(self.CONFIG).execute(params, w, x)
        assert executed.reshape(-1, params.oc).tobytes() == exact.tobytes()
        for granularity in GRANULARITIES:
            stepped = simulate_array(
                params, self.CONFIG, w, x, granularity=granularity
            )
            assert stepped.psums.tobytes() == exact.tobytes(), granularity

    def test_past_the_bound_both_engines_raise(self):
        params = GemmParams(name="fc", ih=1, iw=1, ic=129, wh=1, ww=1, oc=1)
        w, x = self._near_max(params, 0)
        with pytest.raises(ValueError, match=r"window 129 \* 4\*\*\(24-1\) exceeds 2\*\*53"):
            UsystolicArray(self.CONFIG).execute(params, w, x)
        for granularity in GRANULARITIES:
            with pytest.raises(ValueError, match=r"exceeds 2\*\*53"):
                simulate_array(params, self.CONFIG, w, x, granularity=granularity)


def _one_fold(rows, cols, vectors, scheme, ebt=None, seed=0):
    """A layer that is exactly one (rows x cols) fold, plus its operands.

    1x1 kernels over ``rows`` input channels and ``cols`` filters, applied
    to ``vectors`` pixels: the im2col matrix is the (vectors, rows) IFM and
    the weight matrix the (rows, cols) fold.  Returns the simulate_array
    arguments and the two matrices.
    """
    rng = np.random.default_rng(seed)
    w = rng.integers(-100, 101, size=(rows, cols))
    x = rng.integers(-100, 101, size=(vectors, rows))
    params = GemmParams(
        name="fold", ih=1, iw=vectors, ic=rows, wh=1, ww=1, oc=cols, stride=1
    )
    config = ArrayConfig(rows=rows, cols=cols, scheme=scheme, bits=8, ebt=ebt)
    weight = w.T.reshape(cols, 1, 1, rows)
    ifm = x.reshape(1, vectors, rows)
    return (params, config, weight, ifm), w, x


class TestOneFoldCycleStepping:
    def test_unary_outputs_match_functional_array(self):
        # The per-cycle stepper and the vectorised row kernel share PE
        # arithmetic; their partial sums must agree product for product.
        args, w, x = _one_fold(3, 3, 4, CS.USYSTOLIC_RATE, ebt=6, seed=3)
        res = simulate_array(*args, granularity="cycle")
        assert res.num_folds == 1
        ref = np.zeros((4, 3))
        for v in range(4):
            for r in range(3):
                ref[v] += hub_mac_row(int(x[v, r]), w[r], 8, ebt=6)
        np.testing.assert_array_equal(res.psums, ref)


class TestCycleLimit:
    """Regression: budget overruns raise a structured error, not a bare one."""

    def test_structured_error_carries_machine_state(self):
        args, _, _ = _one_fold(3, 3, 8, CS.USYSTOLIC_RATE, ebt=6, seed=1)
        with pytest.raises(CycleLimitError) as excinfo:
            simulate_array(*args, granularity="cycle", max_cycles=10)
        err = excinfo.value
        assert err.max_cycles == 10
        assert err.pending_macs > 0
        assert err.cycle > err.max_cycles
        assert "pending" in str(err)
        assert str(err.pending_macs) in str(err)

    def test_limit_error_is_a_runtime_error(self):
        assert issubclass(CycleLimitError, RuntimeError)

    @pytest.mark.parametrize(
        "budget", [None, True, 0, -5, 2.0], ids=["None", "True", "0", "-5", "2.0"]
    )
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_rejects_a_malformed_budget(self, granularity, budget):
        # Regression: ``None`` died on a bare ``TypeError`` from an int
        # comparison, and ``True`` ran as a one-cycle budget.
        args, _, _ = _one_fold(2, 2, 2, CS.BINARY_PARALLEL, seed=2)
        with pytest.raises(ValueError, match="simulate_array.max_cycles"):
            simulate_array(*args, granularity=granularity, max_cycles=budget)

    def test_generous_budget_still_completes(self):
        args, _, _ = _one_fold(2, 2, 2, CS.BINARY_PARALLEL, seed=2)
        res = simulate_array(*args, granularity="cycle", max_cycles=1_000)
        assert res.compute_cycles > 0

    def test_arraysim_steppers_share_the_error(self):
        params, config, w, x = _limit_layer(CS.USYSTOLIC_RATE, ebt=4)
        for granularity in ("wave", "cycle"):
            with pytest.raises(CycleLimitError) as excinfo:
                simulate_array(
                    params, config, w, x, granularity=granularity, max_cycles=20
                )
            assert excinfo.value.pending_macs > 0

    @pytest.mark.parametrize(
        "scheme,ebt,last_macs",
        [(CS.USYSTOLIC_RATE, 4, 1), (CS.DIP_PARALLEL, None, 2)],
        ids=["lim-UR", "lim-DP"],
    )
    def test_steppers_trip_at_the_same_state(self, scheme, ebt, last_macs):
        # Regression: the wave stepper used to compare the fold's exclusive
        # end to the budget, report that end as the trip cycle and count
        # whole unfinished columns as pending; the cycle stepper trips at
        # the first cycle past the budget with the MACs not yet retired.
        args = _limit_layer(scheme, ebt=ebt)
        total = simulate_array(*args, granularity="cycle").compute_cycles
        for budget in (20, total // 2, total - 2, total - 1, total):
            outcome = {}
            for granularity in ("wave", "cycle"):
                try:
                    res = simulate_array(
                        *args, granularity=granularity, max_cycles=budget
                    )
                    outcome[granularity] = ("done", res.compute_cycles)
                except CycleLimitError as err:
                    assert err.max_cycles == budget
                    outcome[granularity] = ("limit", err.cycle, err.pending_macs)
            assert outcome["wave"] == outcome["cycle"], budget
        # The last MACs retire in cycle ``total - 1``: one cycle short
        # leaves exactly those pending (one under the skew; DiP's last
        # 2x1 fold retires both PEs together).
        with pytest.raises(CycleLimitError) as excinfo:
            simulate_array(*args, granularity="wave", max_cycles=total - 2)
        err = excinfo.value
        assert (err.cycle, err.pending_macs) == (total - 1, last_macs)


def _limit_layer(scheme, ebt=None):
    """The ``lim`` layer: four folds of 2x2 on a 2x2 array, 9 vectors."""
    params = GemmParams(name="lim", ih=4, iw=4, ic=2, wh=2, ww=2, oc=3, stride=1)
    config = ArrayConfig(rows=2, cols=2, scheme=scheme, bits=8, ebt=ebt)
    rng = np.random.default_rng(0)
    w = rng.integers(-100, 101, size=(3, 2, 2, 2))
    x = rng.integers(-100, 101, size=(4, 4, 2))
    return params, config, w, x
