"""The scheme tables must not move a single ledger byte for BP/BS/UG/UR/UT.

``tests/fixtures/legacy_scheme_ledgers.json`` was captured against the
enum of the paper's five schemes, before the zoo and its scheme tables: per-layer simulation ledgers for the first three
AlexNet layers on the EDGE platform plus synthesis headline numbers,
for all five paper schemes.  This test re-runs the live pipeline and
compares the serialized output byte-for-byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.hw.synthesis import synthesize
from repro.schemes import ComputeScheme as CS
from repro.sim.engine import simulate_network
from repro.workloads.alexnet import alexnet_layers
from repro.workloads.presets import EDGE

FIXTURE = (
    Path(__file__).parent.parent / "fixtures" / "legacy_scheme_ledgers.json"
)

CONFIGS = [
    ("BP", CS.BINARY_PARALLEL, None),
    ("BS", CS.BINARY_SERIAL, None),
    ("UR-6", CS.USYSTOLIC_RATE, 6),
    ("UR-8", CS.USYSTOLIC_RATE, 8),
    ("UT", CS.USYSTOLIC_TEMPORAL, None),
    ("UG", CS.UGEMM_RATE, None),
]


def _live_document() -> dict:
    layers = alexnet_layers()[:3]
    doc = {"schema": 1, "ledgers": {}, "synthesis": {}}
    for label, scheme, ebt in CONFIGS:
        array = EDGE.array(scheme, ebt=ebt)
        memory = EDGE.memory_for(scheme)
        doc["ledgers"][label] = [
            r.to_json() for r in simulate_network(layers, array, memory)
        ]
        synth = synthesize(scheme, EDGE.rows, EDGE.cols, 8)
        doc["synthesis"][label] = {
            "area_mm2": synth.area_mm2,
            "block_area_mm2": synth.block_area_mm2,
            "leakage_w": synth.leakage_w,
        }
    return doc


@pytest.fixture(scope="module")
def live() -> dict:
    return _live_document()


def test_fixture_exists_and_has_all_legacy_schemes():
    doc = json.loads(FIXTURE.read_text())
    assert sorted(doc["ledgers"]) == sorted(label for label, _, _ in CONFIGS)


def test_ledgers_byte_identical_to_pre_registry_capture(live):
    frozen = json.loads(FIXTURE.read_text())
    # Compare the canonical serialization, not just the parsed trees, so
    # even a float-formatting drift fails.
    assert json.dumps(live["ledgers"], sort_keys=True, indent=1) == json.dumps(
        frozen["ledgers"], sort_keys=True, indent=1
    )


def test_synthesis_byte_identical_to_pre_registry_capture(live):
    frozen = json.loads(FIXTURE.read_text())
    assert json.dumps(
        live["synthesis"], sort_keys=True, indent=1
    ) == json.dumps(frozen["synthesis"], sort_keys=True, indent=1)
