"""Whole-program passes: layering, unit flow, dead reachability, stale sups.

Each planted violation lives in a real on-disk package tree under
``fixtures/`` — module naming and relative-import resolution walk
``__init__.py`` chains, so fake paths will not do.  The fixture trees are
test *data*: the runner deliberately excludes ``fixtures`` directories
from usage context so these planted violations never leak into the real
tree's liveness analysis.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    analyze,
    build_index,
    context_paths,
    default_paths,
    module_name_for,
)
from repro.analysis.arch import layer_violations
from repro.analysis.layers import (
    LAYERS,
    declared_units,
    is_exempt_module,
    layer_index,
    layer_name,
    package_key,
    render_layer_diagram,
)
from repro.analysis.modgraph import (
    import_time_graph,
    render_dot,
    resolve_symbol,
    strongly_connected_components,
)
from repro.analysis.visitor import collect_sources

FIXTURES = Path(__file__).parent / "fixtures"
GRAPH = FIXTURES / "graph"
CYCLE = FIXTURES / "cycle"
SUP = FIXTURES / "sup"


@pytest.fixture(scope="module")
def graph_findings():
    return analyze([GRAPH]).findings


@pytest.fixture(scope="module")
def graph_index():
    return build_index(collect_sources([GRAPH]), [])


def codes(findings, prefix):
    return [(f.code, Path(f.path).name, f.line) for f in findings
            if f.code.startswith(prefix)]


class TestModuleNaming:
    def test_walks_init_chain(self):
        path = GRAPH / "repro" / "sim" / "engine.py"
        assert module_name_for(path) == "repro.sim.engine"

    def test_package_init_is_the_package(self):
        assert module_name_for(GRAPH / "repro" / "sim" / "__init__.py") == (
            "repro.sim"
        )

    def test_stops_where_inits_stop(self):
        # fixtures/graph has no __init__.py, so the tree roots at "repro".
        assert module_name_for(GRAPH / "repro" / "__init__.py") == "repro"

    def test_resolve_symbol_chases_from_imports(self, graph_index):
        info, symbol = resolve_symbol(graph_index, "repro.sim.caller", "drive")
        assert info.name == "repro.sim.caller"
        assert symbol.kind == "function"
        # An imported binding resolves through to its defining module.
        info, symbol = resolve_symbol(
            graph_index, "repro.sim.__main__", "wrapped"
        )
        assert info.name == "repro.unary.bad_import"


class TestLayerSpec:
    def test_every_unit_declared_once(self):
        seen = [u for _, units, _ in LAYERS for u in units]
        assert len(seen) == len(set(seen))
        assert declared_units() == set(seen)

    def test_ordering(self):
        assert layer_index("unary") < layer_index("sim") < layer_index("eval")
        assert layer_name("jobs") == "orchestration"
        assert layer_index("nonexistent") is None

    def test_package_key(self):
        assert package_key("repro.sim.engine") == "sim"
        assert package_key("repro") == ""
        assert package_key("tests.analysis") is None

    def test_exemptions(self):
        assert is_exempt_module("repro")
        assert is_exempt_module("repro.sim.cli")
        assert is_exempt_module("repro.eval.__main__")
        assert not is_exempt_module("repro.sim.engine")

    def test_diagram_mentions_every_layer(self):
        diagram = render_layer_diagram()
        for name, units, _ in LAYERS:
            assert f"{name}:" in diagram
            for unit in units:
                assert f"repro.{unit}" in diagram


class TestArch:
    def test_arch001_planted_upward_import(self, graph_findings):
        assert codes(graph_findings, "ARCH001") == [
            ("ARCH001", "bad_import.py", 3)
        ]
        (finding,) = (f for f in graph_findings if f.code == "ARCH001")
        assert "foundation" in finding.message and "sim" in finding.message

    def test_arch003_undeclared_package(self, graph_findings):
        assert codes(graph_findings, "ARCH003") == [
            ("ARCH003", "__init__.py", 1)
        ]

    def test_arch002_import_time_cycle(self):
        findings = analyze([CYCLE], select=["arch"]).findings
        assert [(f.code, Path(f.path).name) for f in findings] == [
            ("ARCH002", "alpha.py")
        ]
        assert "repro.sim.alpha -> repro.sim.beta" in findings[0].message

    def test_entrypoints_are_exempt(self, graph_findings):
        # __main__ imports unary AND sim, which would otherwise be mixed
        # layers; no ARCH finding points at it.
        assert not [
            f
            for f in graph_findings
            if f.code.startswith("ARCH") and "__main__" in f.path
        ]

    def test_layer_violations_feed_dot_export(self, graph_index):
        pairs = layer_violations(graph_index)
        assert ("unary", "sim") in pairs
        dot = render_dot(
            graph_index,
            [(name, units) for name, units, _ in LAYERS],
            package_key,
            violations=pairs,
        )
        assert "digraph" in dot and "red" in dot

    def test_scc_finds_planted_cycle(self):
        index = build_index(collect_sources([CYCLE]), [])
        graph = import_time_graph(index)
        sccs = strongly_connected_components(graph)
        assert {"repro.sim.alpha", "repro.sim.beta"} in [set(s) for s in sccs]

    def test_lazy_imports_do_not_cycle(self, tmp_path):
        root = tmp_path / "repro"
        (root / "sim").mkdir(parents=True)
        (root / "__init__.py").write_text('"""Root."""\n')
        (root / "sim" / "__init__.py").write_text('"""Sim."""\n')
        (root / "sim" / "a.py").write_text(
            '"""A."""\n\n__all__ = ["f"]\n\n\ndef f():\n'
            '    """Lazy edge back to b."""\n'
            "    from .b import g\n\n    return g()\n"
        )
        (root / "sim" / "b.py").write_text(
            '"""B."""\n\nfrom .a import f\n\n__all__ = ["g"]\n\n\n'
            'def g():\n    """Use f."""\n    return f\n'
        )
        findings = analyze([tmp_path], select=["ARCH002"]).findings
        assert findings == []


class TestFlow:
    def test_flow001_pj_into_cycles_param(self, graph_findings):
        assert codes(graph_findings, "FLOW001") == [
            ("FLOW001", "caller.py", 11)
        ]
        (finding,) = (f for f in graph_findings if f.code == "FLOW001")
        assert "total_cycles" in finding.message

    def test_flow002_scale_mismatch_into_dataclass(self, graph_findings):
        assert codes(graph_findings, "FLOW002") == [
            ("FLOW002", "caller.py", 27)
        ]

    def test_flow003_return_unit_vs_assignment(self, graph_findings):
        assert codes(graph_findings, "FLOW003") == [
            ("FLOW003", "caller.py", 21)
        ]
        (finding,) = (f for f in graph_findings if f.code == "FLOW003")
        assert "mac_latency" in finding.message

    def test_shadowed_callee_stays_silent(self, tmp_path):
        root = tmp_path / "repro"
        (root / "sim").mkdir(parents=True)
        (root / "__init__.py").write_text('"""Root."""\n')
        (root / "sim" / "__init__.py").write_text('"""Sim."""\n')
        (root / "sim" / "m.py").write_text(
            '"""Shadowing."""\n\nfrom .n import add\n\n__all__ = ["run"]\n\n\n'
            'def run(energy_pj, add):\n'
            '    """Param shadows the import: no resolution."""\n'
            "    return add(energy_pj, 1)\n"
        )
        (root / "sim" / "n.py").write_text(
            '"""Callee."""\n\n__all__ = ["add"]\n\n\n'
            'def add(total_cycles, step_cycles):\n'
            '    """Cycles."""\n    return total_cycles + step_cycles\n'
        )
        findings = analyze([tmp_path], select=["flow"]).findings
        assert findings == []


class TestDead:
    def test_dead001_unreachable_export(self, graph_findings):
        assert codes(graph_findings, "DEAD001") == [
            ("DEAD001", "orphan.py", 3),
            ("DEAD001", "engine.py", 3),
        ]
        messages = [f.message for f in graph_findings if f.code == "DEAD001"]
        assert any("unreachable_helper" in m for m in messages)
        assert any("'lonely'" in m for m in messages)

    def test_dead002_unreachable_module(self, graph_findings):
        assert {
            (f.code, Path(f.path).parent.name, Path(f.path).name)
            for f in graph_findings
            if f.code == "DEAD002"
        } == {
            ("DEAD002", "rogue", "__init__.py"),
            ("DEAD002", "rogue", "orphan.py"),
        }

    def test_reached_exports_stay_silent(self, graph_findings):
        dead = {f.message for f in graph_findings if f.code == "DEAD001"}
        for live in ("simulate", "mac_latency", "drive", "wrapped", "Tile"):
            assert not any(f"'{live}'" in message for message in dead)

    def test_context_paths_count_as_reachability_roots(self, tmp_path):
        root = tmp_path / "proj"
        (root / "repro" / "sim").mkdir(parents=True)
        (root / "repro" / "__init__.py").write_text('"""Root."""\n')
        (root / "repro" / "sim" / "__init__.py").write_text('"""Sim."""\n')
        (root / "repro" / "sim" / "lib.py").write_text(
            '"""Lib."""\n\n__all__ = ["helper"]\n\n\ndef helper():\n'
            '    """Used only by the test below."""\n    return 1\n'
        )
        (root / "tests").mkdir()
        test = root / "tests" / "test_lib.py"
        test.write_text(
            '"""Test."""\n\nfrom repro.sim.lib import helper\n\n\n'
            "def test_helper():\n    assert helper() == 1\n"
        )
        with_ctx = analyze([root / "repro"], select=["dead"], context=[test])
        assert with_ctx.findings == []
        without = analyze([root / "repro"], select=["dead"])
        assert {f.code for f in without.findings} == {"DEAD001", "DEAD002"}

    def test_the_benchmark_is_a_root_and_the_tests_are_not(self, tmp_path):
        # The default context is what a user runs: an export only a test
        # imports is dead, one the benchmark imports is live.
        root = tmp_path / "proj"
        pkg = root / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (root / "src" / "repro" / "__init__.py").write_text('"""Root."""\n')
        (pkg / "__init__.py").write_text('"""Sim."""\n')
        (pkg / "lib.py").write_text(
            '"""Lib."""\n\n__all__ = ["bench_only", "test_only"]\n\n\n'
            'def bench_only():\n    """Timed by the benchmark."""\n    return 1\n\n\n'
            'def test_only():\n    """Called by a test alone."""\n    return 2\n'
        )
        (root / "tests").mkdir()
        (root / "tests" / "test_lib.py").write_text(
            '"""Test."""\n\nfrom repro.sim.lib import test_only\n\n\n'
            "def test_it():\n    assert test_only() == 2\n"
        )
        (root / "perfbench").mkdir()
        (root / "perfbench" / "run.py").write_text(
            '"""Bench."""\n\nfrom repro.sim.lib import bench_only\n\nbench_only()\n'
        )
        result = analyze(
            default_paths(root), select=["dead"], context=context_paths(root)
        )
        assert [(f.code, Path(f.path).name) for f in result.findings] == [
            ("DEAD001", "lib.py")
        ]
        assert "'test_only'" in result.findings[0].message
        assert "benchmark" in result.findings[0].message


class TestStaleSuppressions:
    def test_only_the_stale_comment_is_flagged(self):
        findings = analyze([SUP / "stale.py"]).findings
        assert [(f.code, f.line) for f in findings] == [("SUP001", 6)]
        assert "ignore[det]" in findings[0].message

    def test_sup_token_acknowledges_a_kept_comment(self):
        # Line 7 carries ignore[unit, sup]: stale, but acknowledged.
        findings = analyze([SUP / "stale.py"], select=["sup"]).findings
        assert all(f.line != 7 for f in findings)

    def test_sup001_cannot_suppress_itself(self, tmp_path):
        bad = tmp_path / "self_sup.py"
        bad.write_text('"""Doc."""\n\nx = 1  # repro-lint: ignore[cfg]\n')
        findings = analyze([bad]).findings
        assert [f.code for f in findings] == ["SUP001"]
