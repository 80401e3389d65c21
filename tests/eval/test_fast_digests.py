"""Pinned stdout of ``python -m repro.eval --fast``, section by section.

Every figure table, the headline and the scorecard are pure functions of
the simulator, so a refactor of the eval pipelines must leave their bytes
alone.  This test holds the sha256 of each stdout section (banner name to
the next banner) in ``tests/fixtures/eval_fast_digests.json``, in stdout
order.  Figure 9 is left out: its accuracies come from float training of
small CNNs.

The same run counts each stage's layer simulations: Figure 10 builds the
AlexNet design grids and Figure 14 the MLPerf ones, and every other stage
that reads them (Figures 12 and 13, the headline, the scorecard) simulates
none of their layers again.

A change that is meant to move figure bytes regenerates the fixture::

    PYTHONPATH=src python -m tests.eval.test_fast_digests --write
"""

from __future__ import annotations

import collections
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from repro.eval import runall
from repro.sim import engine
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.mlperf import mlperf_suite
from repro.workloads.presets import scheme_sweep

FIXTURE = Path(__file__).parents[1] / "fixtures" / "eval_fast_digests.json"

#: The one section whose bytes are not pinned (float training).
UNPINNED = "Figure 9: accuracy vs effective bitwidth"

_BANNER = re.compile(r"\n={72}\n(.+)\n={72}\n")


def _run_fast() -> tuple[str, dict[str, list[tuple]]]:
    """``run_all(fast=True)``'s stdout, and each stage's simulated inputs."""
    calls: dict[str, list[tuple]] = collections.defaultdict(list)
    stage = [""]
    simulate, timed = engine.simulate_layer_batched, runall._timed

    def counted(*args, **kwargs):
        calls[stage[0]].append(args + tuple(sorted(kwargs.items())))
        return simulate(*args, **kwargs)

    def staged(out, name, fn, log=None):
        stage[0] = name
        return timed(out, name, fn, log)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and (
                getattr(module, "simulate_layer_batched", None) is simulate
            ):
                patch.setattr(module, "simulate_layer_batched", counted)
        patch.setattr(runall, "_timed", staged)
        runall.run_all(out=out, fast=True)
    return out.getvalue(), calls


def _digests(stdout: str) -> dict[str, str]:
    """Section name -> sha256 of its body, in stdout order, Figure 9 aside."""
    parts = _BANNER.split(stdout)
    sections = dict(zip(parts[1::2], parts[2::2]))
    return {
        name: hashlib.sha256(body.encode()).hexdigest()
        for name, body in sections.items()
        if name != UNPINNED
    }


@pytest.fixture(scope="module")
def fast_run() -> tuple[str, dict[str, list[tuple]]]:
    return _run_fast()


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_sections_keep_their_names_and_order(fast_run, pinned):
    assert list(_digests(fast_run[0])) == list(pinned)


def test_section_bytes_are_pinned(fast_run, pinned):
    live = _digests(fast_run[0])
    moved = [name for name in pinned if live.get(name) != pinned[name]]
    assert not moved, f"sections whose bytes moved: {moved}"


def test_each_design_grid_is_simulated_once(fast_run):
    _, calls = fast_run
    designs = len(scheme_sweep())
    alexnet = len(alexnet_layers())
    mlperf = sum(len(layers) for layers in mlperf_suite().values())
    counts = {stage: len(inputs) for stage, inputs in calls.items()}
    # Each Figure 10 table: the six designs plus both binaries without SRAM.
    assert counts["Figure 10 (edge): bandwidth"] == (designs + 2) * alexnet
    assert counts["Figure 10 (cloud): bandwidth"] == (designs + 2) * alexnet
    # MLPerf's grids take their AlexNet rows from Figure 10's.
    assert counts["Figure 14: efficiency improvements"] == 2 * designs * (
        mlperf - alexnet
    )
    readers = ("Figure 12", "Figure 13", "Headline")
    assert not [stage for stage in counts if stage.startswith(readers)]
    # The scorecard's own studies: V-H scaling (two designs at one and 16
    # instances over AlexNet Conv1-3 eight times), the V-G SRAM sweep (six
    # sizes over AlexNet) and the zoo rows (nine points over Conv1-3).
    assert counts["Reproduction scorecard"] == 2 * 2 * 24 + 6 * alexnet + 9 * 3
    built = [
        key
        for stage, inputs in calls.items()
        if stage.startswith(("Figure 10", "Figure 14"))
        for key in inputs
    ]
    assert len(set(built)) == len(built)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.eval.test_fast_digests --write")
    FIXTURE.write_text(json.dumps(_digests(_run_fast()[0]), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
