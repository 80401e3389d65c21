"""Each checker against fixture files with known violations.

Every assertion pins the finding *code*, *path* and *line* so a checker
regression (wrong anchor, missed case, new false positive) fails loudly.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.visitor import SourceFile

FIXTURES = Path(__file__).parent / "fixtures"


def _findings(name: str, select=None):
    result = analyze([FIXTURES / name], select=select)
    assert result.files_scanned == 1
    return [(f.code, f.line) for f in result.findings]


class TestUnitFixture:
    def test_expected_findings(self):
        assert _findings("unit_violations.py", select=["unit"]) == [
            ("UNIT001", 12),
            ("UNIT002", 17),
            ("UNIT003", 22),
            ("UNIT004", 27),
        ]

    def test_paths_point_at_fixture(self):
        findings = analyze([FIXTURES / "unit_violations.py"]).findings
        assert all(f.path.endswith("unit_violations.py") for f in findings)

    def test_suppressed_line_is_clean(self):
        codes_lines = _findings("unit_violations.py", select=["unit"])
        assert (
            "UNIT004",
            28,
        ) not in codes_lines, "suppression comment must silence line 28"


class TestDeterminismFixture:
    def test_expected_findings(self):
        assert _findings("det_violations.py", select=["det"]) == [
            ("DET001", 16),
            ("DET001", 17),
            ("DET003", 23),
            ("DET002", 30),
        ]

    def test_unary_package_is_checked(self):
        # repro.unary holds the fault injectors; an unseeded RNG there is
        # as much a finding as anywhere else.
        text = (
            "import numpy as np\n"
            "x = np.random.rand()\n"
            "rng = np.random.default_rng()\n"
        )
        for path in ("src/repro/unary/fake.py", "src/repro/sim/fake.py"):
            source = SourceFile.parse(path, text=text)
            assert [f.code for f in DeterminismChecker().check(source)] == [
                "DET001", "DET003"
            ]


class TestLruCacheFixture:
    def test_expected_findings(self):
        assert _findings("det_lru_violations.py", select=["det"]) == [
            ("DET004", 10),
            ("DET004", 14),
            ("DET004", 24),
        ]

    def test_staticmethod_and_module_level_are_clean(self):
        lines = [line for code, line in _findings("det_lru_violations.py")]
        assert 19 not in lines, "staticmethod lru_cache must pass"
        assert 29 not in lines, "module-level int-keyed lru_cache must pass"


class TestConfigFixture:
    def test_expected_findings(self):
        assert _findings("cfg_violations.py", select=["cfg"]) == [
            ("CFG001", 12),
            ("CFG002", 12),
            ("CFG004", 24),
            ("CFG003", 44),
        ]

    def test_compliant_class_is_clean(self):
        codes = [c for c, _ in _findings("cfg_violations.py", select=["cfg"])]
        # GoodConfig (validate + frozen + __post_init__) adds nothing.
        assert len(codes) == 4


class TestExportFixture:
    def test_expected_findings(self):
        assert _findings("exp_violations.py", select=["exp"]) == [
            ("EXP001", 8),
            ("EXP002", 17),
            ("EXP002", 22),
            ("EXP004", 22),
        ]


class TestVerificationFixture:
    def test_expected_findings(self):
        assert _findings("vector_violations.py", select=["ver"]) == [
            ("VER001", 8),
            ("VER001", 22),
        ]

    def test_module_docstring_reference_covers_all_functions(self):
        from repro.analysis.verification import VerificationChecker

        text = (
            '"""Row kernels, twins of :class:`repro.unary.mac.HubMac`."""\n'
            "def bare_kernel(values):\n"
            '    """No per-function reference needed."""\n'
            "    return values\n"
        )
        source = SourceFile.parse("src/repro/x/vectorized.py", text=text)
        assert list(VerificationChecker().check(source)) == []

    def test_non_vector_module_is_exempt(self):
        from repro.analysis.verification import VerificationChecker

        text = "def kernel(values):\n    return values\n"
        source = SourceFile.parse("src/repro/x/scalar.py", text=text)
        assert list(VerificationChecker().check(source)) == []

    def test_real_vectorized_module_is_clean(self):
        import repro.unary.vectorized as vectorized

        findings = analyze([vectorized.__file__], select=["ver"]).findings
        assert findings == []


class TestSchemeFixture:
    def test_expected_findings(self):
        assert _findings("scheme_violations.py", select=["scheme"]) == [
            ("SCHEME001", 14),
            ("SCHEME001", 16),
            ("SCHEME001", 23),
        ]

    def test_member_keyed_table_is_clean(self):
        lines = [
            line
            for _, line in _findings("scheme_violations.py", select=["scheme"])
        ]
        # capability_ok's dict literal and .is_unary dispatch add nothing.
        assert all(line < 26 for line in lines)

    def test_registry_package_is_sanctioned(self):
        from repro.analysis.scheme_checks import SchemeChecker

        text = (
            "from repro.schemes import ComputeScheme\n"
            "def f(s):\n"
            "    return s is ComputeScheme.BINARY_PARALLEL\n"
        )
        sanctioned = SourceFile.parse("src/repro/schemes/fake.py", text=text)
        assert list(SchemeChecker().check(sanctioned)) == []
        elsewhere = SourceFile.parse("src/repro/sim/fake.py", text=text)
        assert [f.code for f in SchemeChecker().check(elsewhere)] == [
            "SCHEME001"
        ]


class TestSelect:
    def test_select_by_code(self):
        assert _findings("unit_violations.py", select=["UNIT003"]) == [
            ("UNIT003", 22)
        ]

    def test_select_by_group_excludes_others(self):
        findings = analyze([FIXTURES / "det_violations.py"], select=["unit"]).findings
        assert findings == []

    def test_whole_fixture_dir(self):
        result = analyze([FIXTURES])
        findings = result.findings
        assert result.files_scanned == 24  # flat fixtures + graph/cycle/sup trees
        groups = {f.group for f in findings}
        assert groups == {
            "unit", "det", "cfg", "exp", "ver", "scheme",
            "arch", "flow", "dead", "conc", "sup",
        }
