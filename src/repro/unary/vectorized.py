"""Vectorised HUB MAC kernels for whole-row computation.

uSystolic's spatial-temporal bitstream reuse (Section III-B) means every PE
in a row consumes the *same* IFM bitstream and the *same* weight RNG
sequence (one cycle more delayed per column, which leaves the bit pairing
— and therefore the product counts — identical to the leftmost PE's).
That sharing is what makes a vectorised kernel possible: one enable stream
and one RNG sequence serve all C columns at once.

:func:`hub_mac_row` is bit-identical to running :class:`~repro.unary.mac.
HubMac` per element with default sequences (a property test asserts this).
:func:`hub_mac_tile` and :func:`hub_product_counts` lift the same
arithmetic to a whole weight-stationary GEMM at once.  Both codings enable
exactly ``imag`` of the ``2**mag_bits`` cycles and the C-BSG weight RNG
advances only on enabled cycles, so the enabled cycles draw the first
``imag`` Sobol values ``S_k`` whatever the coding, and the hit count is
the one closed form ``T[imag, wmag] = #{k < imag : S_k < wmag}``.  Folding
the XOR sign in gives a square *signed* table over sign-magnitude codes
(side ``2 * 2**mag_bits``), held in the narrowest signed integer type
that holds ``±(2**mag_bits - 1)`` (int8 up to 7 magnitude bits, int16
above).  Tables cover up to 11 magnitude bits — every EBT the paper
plots; wider magnitudes take the per-element row path.  The weights stay
in place, so both kernels first gather *row tables* from them, one chunk
of rows and columns at a time: for every row ``k``, the signed product
count of every column for every signed IFM code.  Indexed by a vector's
IFM code, a row table gives that row's C products as one contiguous
C-row, with no sign plane and no multiply.  Operands become codes by one
lookup in a per-(bits, EBT) int16 code table indexed by the operand value
(negative values wrap to the table's top half).  :func:`hub_product_counts`
gathers ``(V, k, C)`` blocks of the per-PE plane and widens them into the
int64 plane it returns.  :func:`hub_mac_tile` never builds that plane: it
adds each row's ``(V, C)`` gather into an accumulator of the narrowest
type that holds its chunk's bound, ``rows * (2**mag_bits - 1)`` (int16
up to 32767, int32 above), and adds the accumulator into its int64
output, so no sum can overflow.  Still exact integers times one
power-of-two scale, hence byte-identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterator
from functools import partial

import numpy as np

from .bitstream import Coding
from .mac import check_sign_magnitude
from .rng import CounterSequence, SobolSequence

__all__ = ["hub_mac_row", "hub_mac_tile", "hub_product_counts"]

#: Cached (kind, bits) sequences kept per thread; LRU-evicted beyond this.
_SEQ_CACHE_MAX = 16

_SEQ_CACHE_LOCAL = threading.local()


def _seq_cache() -> "OrderedDict[tuple, np.ndarray]":
    # Thread-local so concurrent hub_mac_row calls never share (or race
    # on) a dict; bounded so a bits/coding sweep can't grow it unchecked.
    cache = getattr(_SEQ_CACHE_LOCAL, "cache", None)
    if cache is None:
        cache = _SEQ_CACHE_LOCAL.cache = OrderedDict()
    return cache


def _cached(key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
    """``build()``, kept in the thread-local LRU cache under ``key``."""
    cache = _seq_cache()
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = build()
    while len(cache) > _SEQ_CACHE_MAX:
        cache.popitem(last=False)
    return value


def _sequence(kind: str, bits: int) -> np.ndarray:
    sequence = SobolSequence if kind == "sobol" else CounterSequence
    return _cached((kind, bits), lambda: sequence(bits).values(1 << bits))


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
    check_sign_magnitude(bits, ifm, weights)
    weights = np.asarray(weights, dtype=np.int64)

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


#: Largest magnitude bitwidth the count tables cover; the signed table of
#: side ``2**12`` is 32 MiB of int16 — beyond that :func:`hub_mac_tile`
#: and :func:`hub_product_counts` fall back to the row path.
_TABLE_MAX_MAG_BITS = 11

#: Widest operand the code tables cover: one int16 code per operand
#: value, ``2**bits`` entries (128 KiB at 16 bits).  Wider operands are
#: coded arithmetically.
_CODE_TABLE_MAX_BITS = 16

#: Target elements per temporary (row table, gather block, accumulator,
#: row-path block), bounding peak memory; the plane
#: :func:`hub_product_counts` returns is not bounded.
_TILE_CHUNK_ELEMS = 1 << 20

#: One block of a fold's count plane: V, K and C slices and the counts.
_Block = tuple[slice, slice, slice, np.ndarray]


def _count_table(mag_bits: int) -> np.ndarray:
    """``T[imag, wmag] = #{k < imag : S_k < wmag}``: the HUB uMUL hit count.

    Either coding enables exactly ``imag`` cycles and the C-BSG advances
    only on those, so the enabled cycles draw ``S_0 .. S_{imag-1}`` of the
    Sobol sequence and a hit is a draw below ``wmag``.  Built in the
    narrowest signed type that holds ``±(2**mag_bits - 1)``.
    """
    side = 1 << mag_bits
    dtype = np.min_scalar_type(1 - side)
    below = _sequence("sobol", mag_bits)[:, None] < np.arange(side)
    table = np.zeros((side, side), dtype=dtype)
    np.cumsum(below[:-1], axis=0, dtype=dtype, out=table[1:])
    return table


def _signed_table(mag_bits: int) -> np.ndarray:
    """``S[xcode, wcode]`` = signed hit count over sign-magnitude codes.

    A code is ``magnitude + 2**mag_bits * sign``, so the table is four
    copies of :func:`_count_table` with the XOR sign folded in, in the
    count table's narrow type.  Built once per ``mag_bits`` and
    LRU-cached.
    """

    def build() -> np.ndarray:
        table = _count_table(mag_bits)
        return np.block([[table, -table], [-table, table]])

    return _cached(("signed", mag_bits), build)


def _arithmetic_codes(values: np.ndarray, bits: int, ebt: int) -> np.ndarray:
    """int16 codes ``(|value| >> (bits - ebt)) + 2**(ebt-1) * sign``."""
    codes = np.abs(values) >> (bits - ebt)
    codes += np.where(values < 0, 1 << (ebt - 1), 0)
    return codes.astype(np.int16)


def _code_table(bits: int, ebt: int) -> np.ndarray:
    """``codes[value]``: the int16 code of every ``bits``-bit operand.

    Indexed by the operand value itself, a negative one wrapping to
    ``2**bits + value``, so coding an operand array is one gather.  The
    entry at ``2**(bits-1)``, the unrepresentable ``-2**(bits-1)``, is
    never read.  Built once per ``(bits, ebt)`` and LRU-cached.
    """

    def build() -> np.ndarray:
        values = np.arange(1 << bits, dtype=np.int64)
        values[1 << (bits - 1) :] -= 1 << bits
        values[1 << (bits - 1)] = 0
        return _arithmetic_codes(values, bits, ebt)

    return _cached(("codes", bits, ebt), build)


def _signed_codes(values: np.ndarray, bits: int, ebt: int) -> np.ndarray:
    """Sign-magnitude codes ``magnitude + 2**(ebt-1) * sign`` of checked
    operands: C-contiguous int16 in ``values``' shape.

    One gather from :func:`_code_table` up to ``_CODE_TABLE_MAX_BITS``;
    wider operands are coded arithmetically.  A gather keeps its index's
    memory order, so a transposed operand is coded a block of leading
    rows at a time, each block within ``_TILE_CHUNK_ELEMS`` elements.
    Widen the codes (``.astype(np.intp)``) before any index arithmetic:
    under numpy's legacy value-based casting an int16 times an
    ``np.intp`` stays int16.
    """
    if bits > _CODE_TABLE_MAX_BITS:
        code = partial(_arithmetic_codes, bits=bits, ebt=ebt)
    else:
        code = _code_table(bits, ebt).__getitem__
    codes = np.empty(values.shape, dtype=np.int16)
    step = max(1, _TILE_CHUNK_ELEMS // max(1, values[:1].size))
    for r0 in range(0, len(values), step):
        codes[r0 : r0 + step] = code(values[r0 : r0 + step])
    return codes


def _check_fold(
    w_tile: np.ndarray,
    x_tile: np.ndarray,
    bits: int,
    ebt: int | None,
    coding: Coding,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Check one fold's operands; return them as int64, the EBT and the scale."""
    if ebt is None:
        ebt = bits
    if not 2 <= ebt <= bits:
        raise ValueError(f"ebt must be in [2, {bits}], got {ebt}")
    if ebt != bits and coding is Coding.TEMPORAL:
        raise ValueError("temporal coding admits no early termination")
    check_sign_magnitude(bits, w_tile, x_tile)
    w_tile = np.asarray(w_tile, dtype=np.int64)
    x_tile = np.asarray(x_tile, dtype=np.int64)
    if w_tile.ndim != 2 or x_tile.ndim != 2 or w_tile.shape[0] != x_tile.shape[1]:
        raise ValueError(
            f"incompatible tile shapes {x_tile.shape} x {w_tile.shape}"
        )
    scale = float((1 << (bits - ebt)) * (1 << (bits - 1)))
    return w_tile, x_tile, ebt, scale


def _fold_counts(
    w_tile: np.ndarray,
    x_tile: np.ndarray,
    bits: int,
    ebt: int | None,
    coding: Coding,
) -> tuple[tuple[int, int, int], float, Iterator[_Block]]:
    """Check one fold's operands; return its plane shape, scale and blocks.

    The operand checks run here, at the call; the blocks
    ``(vs, ks, cs, counts[vs, ks, cs])`` of the signed ``(V, K, C)`` count
    plane are produced lazily by :func:`_count_blocks`.
    """
    w_tile, x_tile, ebt, scale = _check_fold(w_tile, x_tile, bits, ebt, coding)
    shape = (x_tile.shape[0], x_tile.shape[1], w_tile.shape[1])
    return shape, scale, _count_blocks(w_tile, x_tile, bits, ebt, coding)


def _row_tables(
    w_tile: np.ndarray, bits: int, ebt: int
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Yield ``(ks, cs, rows)``: the row table of each K x C chunk.

    With ``n`` rows in the chunk, ``rows[xcode * n + k]`` is row
    ``ks.start + k``'s signed product count in each column of ``cs`` for
    IFM code ``xcode``: one contiguous C-row per (code, row), in the count
    table's narrow type.  A chunk takes as many columns as fit (at most
    ``_TILE_CHUNK_ELEMS // side``), then as many rows as keep its table
    within ``_TILE_CHUNK_ELEMS`` elements (a whole 256x256 UT row table
    would be 16 Mi entries).  So a K-chunk holds at most
    ``max(1, _TILE_CHUNK_ELEMS // side)`` rows.  A negative IFM code's
    products are its magnitude's, negated, so only the table's top half
    is gathered, element by element; the bottom half is one negation.

    Every chunk's table is a view into one buffer, sized for the largest
    chunk and refilled in place: a consumer must be done with a chunk's
    ``rows`` (or have copied out of it) before it asks for the next.
    """
    signed = _signed_table(ebt - 1)
    side = signed.shape[0]
    half = side // 2
    wcode = _signed_codes(w_tile, bits, ebt)  # (K, C)
    n_k, n_c = wcode.shape
    c_step = max(1, min(n_c, _TILE_CHUNK_ELEMS // side))
    k_step = max(1, _TILE_CHUNK_ELEMS // (side * c_step))
    buffer = np.empty(side * min(k_step, n_k) * c_step, dtype=signed.dtype)
    for c0 in range(0, n_c, c_step):
        cs = slice(c0, min(c0 + c_step, n_c))
        for k0 in range(0, n_k, k_step):
            ks = slice(k0, min(k0 + k_step, n_k))
            block = wcode[ks, cs]
            rows = buffer[: side * block.size].reshape(side, *block.shape)
            signed[:half].take(block, axis=1, out=rows[:half])
            np.negative(rows[:half], out=rows[half:])
            yield ks, cs, rows.reshape(-1, rows.shape[2])


def _count_blocks(
    w_tile: np.ndarray,
    x_tile: np.ndarray,
    bits: int,
    ebt: int,
    coding: Coding,
) -> Iterator[_Block]:
    """Yield ``(vs, ks, cs, counts[vs, ks, cs])`` blocks of a checked fold.

    A block of the plane is one gather of contiguous C-rows from its
    chunk's row table (:func:`_row_tables`), ``rows[xcode[v, k], k]``, in
    the count table's narrow type (the row path's blocks are int64);
    callers widen into int64.  Each gather block stays within
    ``_TILE_CHUNK_ELEMS`` elements, and so do the row path's blocks and,
    where one column allows it, its per-row hit matrices.
    """
    n_v, n_k = x_tile.shape
    n_c = w_tile.shape[1]
    mag_bits = ebt - 1
    if mag_bits > _TABLE_MAX_MAG_BITS:
        restore = (1 << (bits - ebt)) * (1 << (bits - 1))
        # hub_mac_row's hit matrix is (2**mag_bits, columns).
        c_step = max(1, min(n_c, _TILE_CHUNK_ELEMS >> mag_bits))
        k_step = max(1, _TILE_CHUNK_ELEMS // c_step)
        for vec in range(n_v):
            for c0 in range(0, n_c, c_step):
                cs = slice(c0, c0 + c_step)
                for k0 in range(0, n_k, k_step):
                    ks = slice(k0, k0 + k_step)
                    w_rows = w_tile[ks, cs]
                    block = np.empty((1, *w_rows.shape), dtype=np.int64)
                    for r, w_row in enumerate(w_rows):
                        row = hub_mac_row(
                            int(x_tile[vec, k0 + r]),
                            w_row,
                            bits,
                            ebt=ebt,
                            coding=coding,
                        )
                        block[0, r] = np.round(row / restore).astype(np.int64)
                    yield slice(vec, vec + 1), ks, cs, block
        return

    xcode = _signed_codes(x_tile, bits, ebt)  # (V, K)
    for ks, cs, rows in _row_tables(w_tile, bits, ebt):
        n_kb = ks.stop - ks.start
        n_cb = rows.shape[1]
        k_index = np.arange(n_kb)
        v_step = max(1, _TILE_CHUNK_ELEMS // (n_kb * n_cb))
        for v0 in range(0, n_v, v_step):
            vs = slice(v0, v0 + v_step)
            index = xcode[vs, ks].astype(np.intp)
            index *= n_kb
            index += k_index
            yield vs, ks, cs, rows.take(index, axis=0)


def hub_mac_tile(
    w_tile: np.ndarray,
    x_tile: np.ndarray,
    bits: int,
    ebt: int | None = None,
    coding: Coding = Coding.RATE,
) -> np.ndarray:
    """Partial sums of a weight-stationary GEMM: ``(V, K) x (K, C)``.

    Bit-identical to accumulating :func:`hub_mac_row` (and therefore
    :class:`~repro.unary.mac.HubMac`) over the K rows — every product is
    an exact integer count times the one power-of-two restore scale, and
    K-fold integer sums stay far inside float64's ``2**53`` window, so
    summing counts first and scaling once reproduces the float
    accumulation byte for byte (``repro.verify`` diffs both against the
    scalar model).  On the table path each row's ``(V, C)`` gather is
    added into an accumulator per chunk of rows, int16 when the chunk's
    bound fits and int32 otherwise (:func:`_accumulator_type`), and each
    accumulator into the int64 sums, so no ``(V, K, C)`` block is built.
    """
    w_tile, x_tile, ebt, scale = _check_fold(w_tile, x_tile, bits, ebt, coding)
    out = np.zeros((x_tile.shape[0], w_tile.shape[1]), dtype=np.int64)
    if ebt - 1 > _TABLE_MAX_MAG_BITS:
        for vs, _, cs, counts in _count_blocks(w_tile, x_tile, bits, ebt, coding):
            out[vs, cs] += counts.sum(axis=1)
    else:
        _table_sums(out, w_tile, x_tile, bits, ebt)
    return out.astype(np.float64) * scale


def _table_sums(
    out: np.ndarray, w_tile: np.ndarray, x_tile: np.ndarray, bits: int, ebt: int
) -> None:
    """Add a checked fold's count sums into ``out`` through the row tables.

    Each row's ``(V, C)`` gather goes into the chunk's narrow accumulator;
    the codes, row tables and accumulators are freed on return, before
    the caller's float64 copy of ``out``.
    """
    n_v = x_tile.shape[0]
    # (K, V): each reduction row's IFM codes are contiguous.
    xcode = _signed_codes(x_tile.T, bits, ebt)
    for ks, cs, rows in _row_tables(w_tile, bits, ebt):
        n_kb = ks.stop - ks.start
        acc_type = _accumulator_type(n_kb, ebt - 1)
        v_step = max(1, _TILE_CHUNK_ELEMS // rows.shape[1])
        for v0 in range(0, n_v, v_step):
            vs = slice(v0, min(v0 + v_step, n_v))
            acc = np.zeros((vs.stop - v0, rows.shape[1]), dtype=acc_type)
            for k in range(n_kb):
                index = xcode[ks.start + k, vs].astype(np.intp)
                index *= n_kb
                index += k
                acc += rows.take(index, axis=0)
            out[vs, cs] += acc


def _accumulator_type(rows: int, mag_bits: int) -> type[np.signedinteger]:
    """The narrowest exact accumulator for a chunk of ``rows`` rows.

    Every count is at most ``2**mag_bits - 1`` in magnitude, so the
    chunk's sums are bounded by ``rows * (2**mag_bits - 1)``: int16 holds
    that up to 32767 and int32 beyond.  A chunk of ``C`` columns holds at
    most ``max(1, _TILE_CHUNK_ELEMS // (side * C))`` rows (see
    :func:`_row_tables`), so the bound stays below
    ``max(side, _TILE_CHUNK_ELEMS / C) / 2``: at the default chunk size
    every fold of 16 or more columns sums in int16.
    """
    return np.int16 if rows * ((1 << mag_bits) - 1) <= 32767 else np.int32


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
    ``(w_tile[r, c], x_tile[v, r])``.  This is the plane the stepped
    array's cycle stepper (:mod:`repro.sim.arraysim`) lands one element of
    per PE per MAC completion.  The plane is int64 whatever the count
    table's type.
    """
    shape, scale, blocks = _fold_counts(w_tile, x_tile, bits, ebt, coding)
    out = np.empty(shape, dtype=np.int64)
    for vs, ks, cs, counts in blocks:
        out[vs, ks, cs] = counts
    return out, scale
