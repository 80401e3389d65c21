"""Vectorised HUB MAC kernels for whole-row computation.

uSystolic's spatial-temporal bitstream reuse (Section III-B) means every PE
in a row consumes the *same* IFM bitstream and the *same* weight RNG
sequence (one cycle more delayed per column, which leaves the bit pairing
— and therefore the product counts — identical to the leftmost PE's).
That sharing is what makes a vectorised kernel possible: one enable stream
and one RNG sequence serve all C columns at once.

:func:`hub_mac_row` is bit-identical to running :class:`~repro.unary.mac.
HubMac` per element with default sequences (a property test asserts this).
:func:`hub_mac_tile` lifts the same arithmetic to a whole weight-stationary
fold at once: for a fixed ``(coding, ebt)`` the enabled-cycle hit count is
a pure function of ``(imag, wmag)``, so a precomputed
``2**mag_bits x 2**mag_bits`` count table replaces the per-cycle stream
walk and the fold reduces to one gather + signed sum — still exact
integers times one power-of-two scale, hence byte-identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .bitstream import Coding
from .rng import CounterSequence, SobolSequence

__all__ = ["hub_mac_row", "hub_mac_tile", "hub_product_counts"]

#: Cached (kind, bits) sequences kept per thread; LRU-evicted beyond this.
_SEQ_CACHE_MAX = 16

_SEQ_CACHE_LOCAL = threading.local()


def _seq_cache() -> "OrderedDict[tuple[str, int], np.ndarray]":
    # Thread-local so concurrent hub_mac_row calls never share (or race
    # on) a dict; bounded so a bits/coding sweep can't grow it unchecked.
    cache = getattr(_SEQ_CACHE_LOCAL, "cache", None)
    if cache is None:
        cache = _SEQ_CACHE_LOCAL.cache = OrderedDict()
    return cache


def _sequence(kind: str, bits: int) -> np.ndarray:
    cache = _seq_cache()
    key = (kind, bits)
    if key in cache:
        cache.move_to_end(key)
    else:
        if kind == "sobol":
            cache[key] = SobolSequence(bits).values(1 << bits)
        else:
            cache[key] = CounterSequence(bits).values(1 << bits)
        while len(cache) > _SEQ_CACHE_MAX:
            cache.popitem(last=False)
    return cache[key]


def hub_mac_row(
    ifm: int,
    weights: np.ndarray,
    bits: int,
    ebt: int | None = None,
    coding: Coding = Coding.RATE,
) -> np.ndarray:
    """Products of one signed IFM value with a row of signed weights.

    Returns float products at integer scale (``~ ifm * w``), exactly as the
    bit-true HUB MAC computes them: unipolar uMUL on the shared bitstream,
    sign via XOR, early termination at ``2**(ebt-1)`` cycles with the
    ``2**(bits-ebt)`` left-shift restore.
    """
    if ebt is None:
        ebt = bits
    if not 2 <= ebt <= bits:
        raise ValueError(f"ebt must be in [2, {bits}], got {ebt}")
    if ebt != bits and coding is Coding.TEMPORAL:
        raise ValueError("temporal coding admits no early termination")
    weights = np.asarray(weights, dtype=np.int64)
    limit = 1 << (bits - 1)
    if abs(ifm) >= limit or np.abs(weights).max(initial=0) >= limit:
        raise ValueError(f"operands must be {bits}-bit sign-magnitude values")

    mag_bits = ebt - 1
    cycles = 1 << mag_bits
    shift = (bits - 1) - mag_bits
    isign = 1 if ifm < 0 else 0
    imag = abs(ifm) >> shift
    wsigns = (weights < 0).astype(np.int64)
    wmags = np.abs(weights) >> shift

    stream_seq = _sequence("sobol" if coding is Coding.RATE else "counter", mag_bits)
    enable = (stream_seq[:cycles] < imag).astype(np.int64)
    # C-BSG: the weight RNG advances only on enabled cycles.
    advance = np.concatenate(([0], np.cumsum(enable)[:-1]))
    rng = _sequence("sobol", mag_bits)
    rvals = rng[advance % cycles]
    # counts[c] = sum_t enable[t] * (rvals[t] < wmag[c])
    hits = (rvals[:, None] < wmags[None, :]) & (enable[:, None] == 1)
    counts = hits.sum(axis=0).astype(np.int64)
    signs = np.where((wsigns ^ isign) == 1, -1, 1)
    # n-bit product -> N-bit resolution -> integer product scale.
    return (signs * counts).astype(np.float64) * float(
        (1 << (bits - ebt)) * (1 << (bits - 1))
    )


#: Largest magnitude bitwidth the count table covers; 2**10 x 2**10 int64
#: is 8 MiB — beyond that :func:`hub_mac_tile` falls back to the row path.
_TABLE_MAX_MAG_BITS = 10

#: Target elements per (v, K, C) gather chunk, bounding peak memory.
_TILE_CHUNK_ELEMS = 1 << 20


def _count_table(coding: Coding, mag_bits: int) -> np.ndarray:
    """``T[imag, wmag]`` = enabled-cycle hits of the HUB uMUL.

    Row ``imag`` replays exactly :func:`hub_mac_row`'s stream walk — the
    enable stream gates the C-BSG advance, and the hit count for every
    ``wmag`` at once is the cumulative histogram of the enabled RNG
    values.  Built once per ``(coding, mag_bits)`` and LRU-cached.
    """
    cache = _seq_cache()
    key = (f"table-{coding.value}", mag_bits)
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    cycles = 1 << mag_bits
    stream_seq = _sequence(
        "sobol" if coding is Coding.RATE else "counter", mag_bits
    )[:cycles]
    rng = _sequence("sobol", mag_bits)
    table = np.zeros((cycles, cycles), dtype=np.int64)
    for imag in range(1, cycles):
        enable = stream_seq < imag
        # Exclusive cumsum: the C-BSG advance before each cycle.
        advance = np.cumsum(enable) - enable
        rvals = rng[advance % cycles][enable]
        hist = np.bincount(rvals, minlength=cycles)
        # hits at wmag w = #{enabled t : rvals[t] < w} = cumulative hist.
        table[imag, 1:] = np.cumsum(hist)[:-1]
    cache[key] = table
    while len(cache) > _SEQ_CACHE_MAX:
        cache.popitem(last=False)
    return table


def hub_mac_tile(
    w_tile: np.ndarray,
    x_tile: np.ndarray,
    bits: int,
    ebt: int | None = None,
    coding: Coding = Coding.RATE,
) -> np.ndarray:
    """Partial sums of one weight-stationary fold: ``(V, K) x (K, C)``.

    Bit-identical to accumulating :func:`hub_mac_row` (and therefore
    :class:`~repro.unary.mac.HubMac`) over the K rows — every product is
    an exact integer count times the one power-of-two restore scale, and
    K-fold integer sums stay far inside float64's ``2**53`` window, so
    summing counts first and scaling once reproduces the float
    accumulation byte for byte (``repro.verify`` diffs both against the
    scalar model).
    """
    if ebt is None:
        ebt = bits
    if not 2 <= ebt <= bits:
        raise ValueError(f"ebt must be in [2, {bits}], got {ebt}")
    if ebt != bits and coding is Coding.TEMPORAL:
        raise ValueError("temporal coding admits no early termination")
    w_tile = np.asarray(w_tile, dtype=np.int64)
    x_tile = np.asarray(x_tile, dtype=np.int64)
    if w_tile.ndim != 2 or x_tile.ndim != 2 or w_tile.shape[0] != x_tile.shape[1]:
        raise ValueError(
            f"incompatible tile shapes {x_tile.shape} x {w_tile.shape}"
        )
    limit = 1 << (bits - 1)
    if (
        np.abs(w_tile).max(initial=0) >= limit
        or np.abs(x_tile).max(initial=0) >= limit
    ):
        raise ValueError(f"operands must be {bits}-bit sign-magnitude values")

    mag_bits = ebt - 1
    if mag_bits > _TABLE_MAX_MAG_BITS:
        out = np.zeros((x_tile.shape[0], w_tile.shape[1]), dtype=np.float64)
        for vec in range(x_tile.shape[0]):
            for r in range(w_tile.shape[0]):
                out[vec] += hub_mac_row(
                    int(x_tile[vec, r]), w_tile[r], bits, ebt=ebt, coding=coding
                )
        return out

    shift = (bits - 1) - mag_bits
    table = _count_table(coding, mag_bits)
    imag = np.abs(x_tile) >> shift  # (V, K)
    isign = x_tile < 0
    wmag = np.abs(w_tile) >> shift  # (K, C)
    wsign = w_tile < 0
    n_v, n_k = x_tile.shape
    n_c = w_tile.shape[1]
    out = np.zeros((n_v, n_c), dtype=np.int64)
    step = max(1, _TILE_CHUNK_ELEMS // max(1, n_k * n_c))
    for start in range(0, n_v, step):
        sl = slice(start, start + step)
        counts = table[imag[sl, :, None], wmag[None, :, :]]  # (v, K, C)
        signs = np.where(isign[sl, :, None] ^ wsign[None, :, :], -1, 1)
        out[sl] = (signs * counts).sum(axis=1)
    return out.astype(np.float64) * float(
        (1 << (bits - ebt)) * (1 << (bits - 1))
    )


def hub_product_counts(
    w_tile: np.ndarray,
    x_tile: np.ndarray,
    bits: int,
    ebt: int | None = None,
    coding: Coding = Coding.RATE,
) -> tuple[np.ndarray, float]:
    """Per-PE signed product counts of one fold: the un-summed HUB plane.

    Where :func:`hub_mac_tile` collapses the K axis, this returns the full
    ``(V, K, C)`` tensor of signed enabled-cycle counts plus the single
    power-of-two restore scale, so ``counts.sum(axis=1) * scale`` equals
    :func:`hub_mac_tile` byte for byte and ``counts[v, r, c] * scale``
    equals the scalar :class:`~repro.unary.mac.HubMac` product of
    ``(w_tile[r, c], x_tile[v, r])``.  This is the plane the stepped-array
    co-simulator (:mod:`repro.sim.arraysim`) lands one element of per PE
    per MAC completion.
    """
    if ebt is None:
        ebt = bits
    if not 2 <= ebt <= bits:
        raise ValueError(f"ebt must be in [2, {bits}], got {ebt}")
    if ebt != bits and coding is Coding.TEMPORAL:
        raise ValueError("temporal coding admits no early termination")
    w_tile = np.asarray(w_tile, dtype=np.int64)
    x_tile = np.asarray(x_tile, dtype=np.int64)
    if w_tile.ndim != 2 or x_tile.ndim != 2 or w_tile.shape[0] != x_tile.shape[1]:
        raise ValueError(
            f"incompatible tile shapes {x_tile.shape} x {w_tile.shape}"
        )
    limit = 1 << (bits - 1)
    if (
        np.abs(w_tile).max(initial=0) >= limit
        or np.abs(x_tile).max(initial=0) >= limit
    ):
        raise ValueError(f"operands must be {bits}-bit sign-magnitude values")

    mag_bits = ebt - 1
    scale = float((1 << (bits - ebt)) * (1 << (bits - 1)))
    if mag_bits > _TABLE_MAX_MAG_BITS:
        out_f = np.zeros(
            (x_tile.shape[0], w_tile.shape[0], w_tile.shape[1]), dtype=np.int64
        )
        restore = int(scale)
        for vec in range(x_tile.shape[0]):
            for r in range(w_tile.shape[0]):
                row = hub_mac_row(
                    int(x_tile[vec, r]), w_tile[r], bits, ebt=ebt, coding=coding
                )
                out_f[vec, r] = np.round(row / restore).astype(np.int64)
        return out_f, scale

    shift = (bits - 1) - mag_bits
    table = _count_table(coding, mag_bits)
    imag = np.abs(x_tile) >> shift  # (V, K)
    isign = x_tile < 0
    wmag = np.abs(w_tile) >> shift  # (K, C)
    wsign = w_tile < 0
    n_v, n_k = x_tile.shape
    n_c = w_tile.shape[1]
    out = np.empty((n_v, n_k, n_c), dtype=np.int64)
    step = max(1, _TILE_CHUNK_ELEMS // max(1, n_k * n_c))
    for start in range(0, n_v, step):
        sl = slice(start, start + step)
        counts = table[imag[sl, :, None], wmag[None, :, :]]  # (v, K, C)
        signs = np.where(isign[sl, :, None] ^ wsign[None, :, :], -1, 1)
        out[sl] = signs * counts
    return out, scale
