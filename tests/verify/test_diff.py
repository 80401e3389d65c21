"""The differential engine: case model, reports, and the curated grid."""

from __future__ import annotations

import dataclasses

import pytest

from repro.verify.diff import (
    DiffReport,
    Mismatch,
    VerifyCase,
    default_cases,
    run_case,
)


class TestVerifyCase:
    def test_defaults_are_the_minimal_case(self):
        case = VerifyCase().validated()
        assert case.nondefault_fields() == {}
        assert case.to_json() == {}

    def test_json_round_trip(self):
        case = VerifyCase(
            kind="engine", scheme="UT", bits=8, ih=6, iw=6, oc=4, sram_kib=64
        ).validated()
        assert VerifyCase.from_json(case.to_json()) == case

    def test_json_round_trip_restores_weights_tuple(self):
        case = VerifyCase(kind="kernel", bits=5, weights=(3, -7, 0)).validated()
        rebuilt = VerifyCase.from_json(case.to_json())
        assert rebuilt.weights == (3, -7, 0)
        assert isinstance(rebuilt.weights, tuple)

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown VerifyCase field"):
            VerifyCase.from_json({"bogus": 1})

    @pytest.mark.parametrize(
        "fields,match",
        [
            ({"kind": "nope"}, "kind"),
            ({"bits": 1}, "bits"),
            ({"ebt": 9}, "ebt"),
            ({"coding": "burst"}, "coding"),
            ({"coding": "temporal", "ebt": 3}, "early termination"),
            ({"ifm": 8}, "outside"),
            ({"weights": ()}, "weights"),
            ({"weights": (99,)}, "outside"),
            ({"kind": "engine", "scheme": "XX"}, "scheme"),
            ({"kind": "functional", "scheme": "UG"}, "functional"),
            ({"kind": "engine", "sram_kib": 0}, "sram_kib"),
        ],
    )
    def test_validated_rejects_illegal_fields(self, fields, match):
        with pytest.raises(ValueError, match=match):
            VerifyCase(**fields).validated()

    def test_engine_case_builds_configs(self):
        case = VerifyCase(kind="engine", scheme="UR", bits=8, ebt=4).validated()
        assert case.array_config().mac_cycles == (1 << 3) + 1
        assert case.gemm_params().oh == 3
        assert case.memory_config().sram_bytes_per_variable is None
        with_sram = dataclasses.replace(case, sram_kib=2)
        assert with_sram.memory_config().sram_bytes_per_variable == 2048


class TestMismatch:
    def test_delta_and_json(self):
        mismatch = Mismatch(check="kernel.product[0]", expected=6.0, got=8.0)
        assert mismatch.delta == 2.0
        assert mismatch.to_json() == {
            "check": "kernel.product[0]",
            "expected": 6.0,
            "got": 8.0,
            "delta": 2.0,
        }
        assert "kernel.product[0]" in mismatch.render()
        assert "+2" in mismatch.render()


class TestRunCase:
    def test_minimal_case_is_clean(self):
        report = run_case(VerifyCase())
        assert report.ok
        assert report.checks > 0

    def test_curated_grid_is_clean(self):
        reports = [run_case(case) for case in default_cases()]
        assert all(report.ok for report in reports)
        # Every surface must actually be exercised by the grid.
        kinds = {report.case.kind for report in reports}
        assert kinds == {"kernel", "engine", "functional", "array"}

    def test_report_json_shape(self):
        report = run_case(VerifyCase(kind="kernel", bits=5, ifm=3, weights=(7,)))
        payload = report.to_json()
        assert payload["checks"] == report.checks
        assert payload["mismatches"] == []
        assert payload["case"] == {"bits": 5, "ifm": 3, "weights": [7]}

    def test_engine_report_covers_traffic_and_trace(self):
        # 6 schedule checks (incl. the per-tile oracle) + 12 traffic
        # fields + 4 trace totals.
        case = VerifyCase(
            kind="engine", scheme="BP", bits=8, ih=6, iw=6, ic=2, wh=2, ww=2,
            oc=3, rows=3, cols=2,
        )
        assert run_case(case).checks == 22


class TestDiffReport:
    def test_ok_tracks_mismatches(self):
        case = VerifyCase()
        clean = DiffReport(case=case, checks=3, mismatches=())
        assert clean.ok
        dirty = DiffReport(
            case=case,
            checks=3,
            mismatches=(Mismatch(check="x", expected=0.0, got=1.0),),
        )
        assert not dirty.ok
