"""The runtime never imports the lint package.

``repro.analysis`` inspects the tree as source; the simulator, serving,
fleet, verification, evaluation, job and system layers must run without
loading any of it.  A fresh interpreter per check keeps modules imported
by other tests from masking a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

RUNTIME_MODULES = [
    "repro",
    "repro.sim.engine",
    "repro.serve",
    "repro.fleet",
    "repro.verify",
    "repro.eval",
    "repro.jobs",
    "repro.system",
]

_PROBE = """
import importlib, sys
importlib.import_module(sys.argv[1])
print("\\n".join(sorted(
    name for name in sys.modules
    if name == "repro.analysis" or name.startswith("repro.analysis.")
)))
"""


@pytest.mark.parametrize("module", RUNTIME_MODULES)
def test_runtime_import_loads_no_lint_module(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, module],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert out == [], f"importing {module} loaded {out}"
