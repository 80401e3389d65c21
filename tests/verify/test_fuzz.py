"""Fuzz determinism, the shrinker and counterexample files."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.verify.diff import DiffReport, Mismatch, VerifyCase, run_case
from repro.verify.fuzz import (
    case_key,
    generate_case,
    load_counterexample,
    run_fuzz,
    shrink_case,
    write_counterexample,
)


class TestGeneration:
    def test_same_seed_same_cases(self):
        draw = lambda: [generate_case(np.random.default_rng(5)) for _ in range(1)]
        a = [generate_case(np.random.default_rng(5)) for _ in range(40)]
        b = [generate_case(np.random.default_rng(5)) for _ in range(40)]
        assert a == b
        assert draw() == draw()

    def test_different_seeds_differ(self):
        a = [generate_case(np.random.default_rng(1)) for _ in range(20)]
        b = [generate_case(np.random.default_rng(2)) for _ in range(20)]
        assert a != b

    def test_all_kinds_drawn(self):
        rng = np.random.default_rng(0)
        kinds = {generate_case(rng).kind for _ in range(60)}
        assert kinds == {"kernel", "engine", "functional", "array"}

    def test_pinned_kind_draws_only_that_surface(self):
        rng = np.random.default_rng(0)
        cases = [generate_case(rng, kind="array") for _ in range(15)]
        assert {case.kind for case in cases} == {"array"}
        assert len({case_key(case) for case in cases}) > 1

    def test_pinned_kind_rejects_unknown_surface(self):
        with pytest.raises(ValueError, match="unknown case kind"):
            generate_case(np.random.default_rng(0), kind="quantum")

    def test_generated_cases_are_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            generate_case(rng).validated()  # must not raise


class TestCaseKey:
    def test_stable_and_distinct(self):
        a = VerifyCase(bits=5, ifm=3)
        assert case_key(a) == case_key(VerifyCase(bits=5, ifm=3))
        assert case_key(a) != case_key(VerifyCase(bits=5, ifm=4))


class TestShrinker:
    def test_shrinks_to_defaults_when_everything_fails(self):
        shrunk = shrink_case(
            VerifyCase(bits=8, ebt=4, ifm=-97, weights=(127, -63, 5)),
            fails=lambda case: True,
        )
        assert shrunk.nondefault_fields() == {}

    def test_preserves_failure_essential_field(self):
        # Failure requires bits >= 6: the shrinker must keep bits at its
        # smallest failing value and clear everything else.
        fails = lambda case: case.bits >= 6
        shrunk = shrink_case(
            VerifyCase(bits=8, ifm=41, weights=(9, -2)), fails=fails
        )
        assert shrunk.bits == 6
        assert shrunk.nondefault_fields() == {"bits": 6}

    def test_shrinks_weights_vector(self):
        fails = lambda case: any(w != 0 for w in case.weights)
        shrunk = shrink_case(
            VerifyCase(bits=8, weights=(64, -31, 17, 2)), fails=fails
        )
        assert len(shrunk.weights) == 1
        assert shrunk.weights[0] != 0

    def test_never_leaves_legal_space(self):
        seen: list[VerifyCase] = []

        def fails(case):
            case.validated()
            seen.append(case)
            return True

        shrink_case(VerifyCase(kind="engine", scheme="UT", oc=7, rows=4), fails=fails)
        assert seen, "shrinker must probe candidates"

    def test_kind_is_frozen(self):
        shrunk = shrink_case(
            VerifyCase(kind="engine", oc=5), fails=lambda case: True
        )
        assert shrunk.kind == "engine"


class TestCounterexampleFiles:
    def _report(self):
        case = VerifyCase(bits=5, ifm=3, weights=(7,)).validated()
        return DiffReport(
            case=case,
            checks=2,
            mismatches=(Mismatch(check="kernel.product[0]", expected=21.0, got=0.0),),
        )

    def test_write_then_load_round_trips(self, tmp_path):
        report = self._report()
        path = write_counterexample(tmp_path, report, seed=9, index=4)
        assert path.parent == tmp_path
        document = json.loads(path.read_text())
        assert document["schema"] == 1
        assert document["seed"] == 9
        assert document["index"] == 4
        assert document["mismatches"][0]["check"] == "kernel.product[0]"
        assert load_counterexample(path) == report.case

    def test_filename_is_content_addressed(self, tmp_path):
        report = self._report()
        path = write_counterexample(tmp_path, report, seed=0, index=0)
        assert path.stem == case_key(report.case)[:12]

    def test_load_rejects_non_counterexample(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a counterexample"):
            load_counterexample(path)


class TestRunFuzz:
    def test_seed_zero_budget_clean(self, tmp_path):
        result = run_fuzz(seed=0, budget=40, jobs=1, out_dir=tmp_path / "cx")
        assert result.ok
        assert result.checks > 0
        assert result.written == ()
        assert not (tmp_path / "cx").exists(), "no failures, no directory"

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget"):
            run_fuzz(seed=0, budget=0)

    def test_result_json_shape(self):
        result = run_fuzz(seed=1, budget=5, out_dir=None)
        payload = result.to_json()
        assert payload["seed"] == 1
        assert payload["budget"] == 5
        assert payload["failures"] == []
        assert payload["written"] == []
