"""The acceptance-bar differential: a full AlexNet conv layer, three ways.

Conv1 (227x227x3, 11x11, 96 output channels, stride 4) on a 32x32 array
is the paper's headline workload geometry: 36 folds, ~105M MACs.  The
``array`` diff surface must prove analytic schedule ≡ event trace ≡
stepped array on it for all three scheme families — bit-parallel binary,
HUB-rate and HUB-temporal — and stay fast enough to live in the test
suite: the wave-granularity stepper is closed-form timing per fold, not
O(cycles), plus one kernel call for the whole layer.  That call is the
one ``execute`` makes, so on this layer the psum plane is held
independently only for binary-parallel (against ``conv_oracle``); the
HUB kernels' psums are held to the scalar ``HubMac`` by the functional
surface and to the cycle stepper's per-PE landing on small cases.
"""

from __future__ import annotations

import pytest

from repro.verify.diff import VerifyCase, run_case
from repro.workloads.alexnet import alexnet_layers

_CONV1 = next(layer for layer in alexnet_layers() if layer.name == "Conv1")

_SCHEMES = [
    pytest.param("BP", 8, None, id="binary-parallel"),
    pytest.param("UR", 8, 3, id="hub-rate"),
    pytest.param("UT", 4, None, id="hub-temporal"),
]


def _conv1_case(scheme: str, bits: int, ebt: int | None) -> VerifyCase:
    return VerifyCase(
        kind="array",
        scheme=scheme,
        bits=bits,
        ebt=ebt,
        ih=_CONV1.ih,
        iw=_CONV1.iw,
        ic=_CONV1.ic,
        wh=_CONV1.wh,
        ww=_CONV1.ww,
        oc=_CONV1.oc,
        stride=_CONV1.stride,
        rows=32,
        cols=32,
        seed=42,
    )


@pytest.mark.parametrize("scheme,bits,ebt", _SCHEMES)
def test_conv1_three_way_differential(scheme, bits, ebt):
    report = run_case(_conv1_case(scheme, bits, ebt))
    assert report.ok, "\n".join(m.render() for m in report.mismatches[:8])
    # 36 folds of per-fold schedule/trace/launch checks plus the whole
    # psum plane: the check count proves the surface actually ran deep.
    assert report.checks > 100_000
