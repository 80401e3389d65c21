"""Gate: the tree must stay lint-clean under ``python -m repro.analysis``.

Any PR that introduces a unit mix-up, hidden-global-state randomness, an
unvalidated config dataclass or export drift fails here — the pytest-side
twin of the CI lint job.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze, render_json, update_architecture_doc
from repro.analysis.runner import context_paths, default_paths

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def full_tree():
    """(findings, files scanned) of one analysis run over the whole tree."""
    result = analyze(default_paths(REPO_ROOT), context=context_paths(REPO_ROOT))
    return result.findings, result.files_scanned


def test_default_paths_exist():
    paths = default_paths(REPO_ROOT)
    names = {p.name for p in paths}
    assert names == {"src", "examples"}


def test_tree_is_lint_clean(full_tree):
    findings, files_scanned = full_tree
    report = "\n".join(f.render() for f in findings)
    assert not findings, f"repro.analysis found {len(findings)} issue(s):\n{report}"
    assert files_scanned > 100  # the whole tree, not a subset


def test_json_report_round_trips_on_full_tree(full_tree):
    findings, files_scanned = full_tree
    doc = json.loads(render_json(findings, files_scanned))
    assert doc["schema_version"] == 6
    assert doc["findings"] == []
    assert doc["summary"] == {"total": 0, "by_group": {}}


def test_architecture_diagram_in_sync():
    """docs/architecture.md must match the layer spec in layers.py.

    On drift this test regenerates the section in place (and fails), so
    a re-run after inspecting the diff goes green.
    """
    changed = update_architecture_doc(REPO_ROOT / "docs" / "architecture.md")
    assert not changed, (
        "docs/architecture.md layer diagram was stale; it has been "
        "regenerated — review and commit the update"
    )
