"""Unary-domain addition — the accumulation FSU architectures rely on.

uSystolic's defining choice is to accumulate in *binary* (Section III-A);
:func:`mux_add` is the unary alternative it rejects, implemented bit-true
so the comparison is measurable: a K:1 mux samples one input stream per
cycle, so the output stream encodes ``mean(inputs)``.  Unbiased, but it
adds sampling variance, and the ``1/K`` scale costs dynamic range.

The FSU model (:mod:`repro.fsu`) composes :func:`mux_add` after bipolar
uMULs to reproduce the accuracy loss of unary-domain GEMM accumulation
that Table I and Section II-B4a describe.
"""

from __future__ import annotations

import numpy as np

from .bitstream import Bitstream, Polarity
from .rng import LfsrSequence, NumberSequence

__all__ = ["mux_add"]


def _stack(streams: list[Bitstream]) -> np.ndarray:
    if not streams:
        raise ValueError("need at least one input stream")
    length = len(streams[0])
    if any(len(s) != length for s in streams):
        raise ValueError("all input streams must have equal length")
    return np.stack([s.bits for s in streams])


def mux_add(
    streams: list[Bitstream],
    select_sequence: NumberSequence | None = None,
    polarity: Polarity = Polarity.BIPOLAR,
) -> Bitstream:
    """Scaled addition: output value is ``mean(input values)``.

    The default select sequence is an LFSR: its pseudo-random order is
    decorrelated from the Sobol/counter patterns of the input streams
    (a regular alternating select would lock onto periodic streams and
    bias the sample badly — the SCC hazard again, now at the adder).
    """
    bits = _stack(streams)
    k, length = bits.shape
    if select_sequence is None:
        sel_bits = max(3, (k - 1).bit_length())
        select_sequence = LfsrSequence(sel_bits)
    sel = select_sequence.values(length) % k
    out = bits[sel, np.arange(length)]
    return Bitstream(out.astype(np.uint8), polarity=polarity)

