"""Differential-oracle verification of the uSystolic simulator stack.

The repo's central correctness claim — the vectorised row kernel, the
scalar HUB MAC, the functional array and the analytic performance model
all describe *one* machine — is made executable here, the way tubGEMM
and tuGEMM validate their unary GEMM units against exact binary oracles:

- :mod:`repro.verify.oracles` — pure-numpy golden models (exact im2col /
  convolution outputs, the closed-form ``2**(n-1) + 1`` crawl
  latency, analytical DRAM/SRAM traffic totals from Table II parameters)
  that share *no code* with the implementations they judge;
- :mod:`repro.verify.diff` — the differential engine: one
  :class:`~repro.verify.diff.VerifyCase` runs through both the scalar
  and vectorised unary kernels, through ``sim.engine.simulate_layer``
  versus the analytical model, and through the stepped full-array
  co-simulator (:mod:`repro.sim.arraysim`) as a third oracle — analytic
  schedule ≡ event trace ≡ stepped array — reporting structured
  :class:`~repro.verify.diff.Mismatch` records (check, expected, got,
  delta) that name the first divergent (cycle, pe, fold) instead of a
  bare assert;
- :mod:`repro.verify.fuzz` — a seeded random generator over the
  ``ArrayConfig`` / ``GemmParams`` / coding / bit-width space, fanned
  out through :func:`repro.jobs.run_tasks`, with greedy shrinking of
  failing cases to minimal JSON counterexamples under
  ``verify-failures/``;
- ``python -m repro.verify {diff,fuzz,replay}`` — the CLI, and
  ``tests/verify/`` replays every checked-in counterexample forever.
"""

from __future__ import annotations

from .diff import DiffReport, Mismatch, VerifyCase, run_case
from .fuzz import FuzzResult, generate_case, run_fuzz, shrink_case
from .oracles import (
    compute_cycles_oracle,
    conv_oracle,
    im2col_oracle,
    mac_latency_oracle,
    per_tile_schedule_oracle,
    traffic_oracle,
)

__all__ = [
    "DiffReport",
    "FuzzResult",
    "Mismatch",
    "VerifyCase",
    "compute_cycles_oracle",
    "conv_oracle",
    "generate_case",
    "im2col_oracle",
    "mac_latency_oracle",
    "per_tile_schedule_oracle",
    "run_case",
    "run_fuzz",
    "shrink_case",
    "traffic_oracle",
]
