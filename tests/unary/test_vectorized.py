"""The vectorised HUB kernels and their bounded thread-local cache.

Scalar equivalence of whole layers lives in the differential suite
(``tests/verify``); this file pins the cache contract (per-thread
isolation, LRU bound, bit-identical results under concurrent mixed-width
hammering), the one narrow count table against the row kernel's stream
walk, and each fold kernel against the scalar ``HubMac``, its row path
fallback, its chunking and its peak memory.
"""

from __future__ import annotations

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.unary import vectorized
from repro.unary.bitstream import Coding
from repro.unary.mac import HubMac, sign_magnitude
from repro.unary.vectorized import (
    _SEQ_CACHE_MAX,
    _seq_cache,
    hub_mac_row,
    hub_mac_tile,
    hub_product_counts,
)

from ..nn.test_quant import _WIDTHS


def _reference_row(ifm, weights, bits, ebt, coding):
    mac = HubMac(bits, ebt=ebt, coding=coding)
    scale = 1 << (bits - 1)
    return [float(mac.multiply(int(w), ifm).product * scale) for w in weights]


class TestScalarEquivalence:
    @pytest.mark.parametrize("bits,ebt", [(4, None), (8, 4), (8, 8), (5, 2)])
    def test_matches_hubmac(self, bits, ebt):
        rng = np.random.default_rng(7)
        limit = (1 << (bits - 1)) - 1
        ifm = int(rng.integers(-limit, limit + 1))
        weights = rng.integers(-limit, limit + 1, size=9)
        row = hub_mac_row(ifm, weights, bits, ebt=ebt)
        assert list(row) == _reference_row(ifm, weights, bits, ebt, Coding.RATE)

    def test_temporal_coding(self):
        weights = np.arange(-3, 4)
        row = hub_mac_row(2, weights, 4, coding=Coding.TEMPORAL)
        assert list(row) == _reference_row(
            2, weights, 4, None, Coding.TEMPORAL
        )


class TestSeqCache:
    def test_cache_is_bounded(self):
        cache = _seq_cache()
        cache.clear()
        # 2 kinds x 11 widths = 22 distinct keys, all cheap to build.
        for bits in range(2, 13):
            vectorized._sequence("sobol", bits)
            vectorized._sequence("counter", bits)
        assert len(cache) <= _SEQ_CACHE_MAX

    def test_lru_keeps_hot_entries(self):
        cache = _seq_cache()
        cache.clear()
        hot_value = vectorized._sequence("sobol", 3)
        hot = ("sobol", 3)
        for bits in range(2, 2 + _SEQ_CACHE_MAX):
            vectorized._sequence("counter", bits)
            vectorized._sequence("sobol", 3)  # re-touch the hot entry
        assert hot in cache
        assert np.array_equal(vectorized._sequence("sobol", 3), hot_value)
        assert len(cache) <= _SEQ_CACHE_MAX

    def test_evicted_entry_rebuilds_identically(self):
        cache = _seq_cache()
        cache.clear()
        first = vectorized._sequence("counter", 4).copy()
        for bits in range(2, 3 + _SEQ_CACHE_MAX):
            vectorized._sequence("sobol", bits)
        assert ("counter", 4) not in cache
        assert np.array_equal(vectorized._sequence("counter", 4), first)

    def test_cache_is_thread_local(self):
        hub_mac_row(1, [1], 4)
        main_cache = _seq_cache()
        seen: dict[str, object] = {}

        def probe():
            hub_mac_row(1, [1], 4)
            seen["cache"] = _seq_cache()

        worker = threading.Thread(target=probe)
        worker.start()
        worker.join()
        assert seen["cache"] is not main_cache

    def test_concurrent_mixed_widths_match_serial(self):
        rng = np.random.default_rng(11)
        tasks = []
        for _ in range(96):
            bits = int(rng.integers(2, 9))
            limit = (1 << (bits - 1)) - 1
            ebt = None if bits == 2 else int(rng.integers(2, bits + 1))
            ifm = int(rng.integers(-limit, limit + 1))
            weights = tuple(
                int(w) for w in rng.integers(-limit, limit + 1, size=6)
            )
            tasks.append((ifm, weights, bits, ebt))

        def run(task):
            ifm, weights, bits, ebt = task
            return list(hub_mac_row(ifm, np.asarray(weights), bits, ebt=ebt))

        serial = [run(task) for task in tasks]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(run, tasks))
        assert threaded == serial
        assert len(_seq_cache()) <= _SEQ_CACHE_MAX

    def test_no_module_level_mutable_cache(self):
        # The unbounded module-global dict this cache replaced must not
        # come back; the only shared state is the threading.local holder.
        assert not hasattr(vectorized, "_SEQ_CACHE")
        assert isinstance(vectorized._SEQ_CACHE_LOCAL, threading.local)


def _reference_tile(w_tile, x_tile, bits, ebt, coding):
    """Accumulate hub_mac_row over the K rows — the pre-table semantics."""
    out = np.zeros((x_tile.shape[0], w_tile.shape[1]))
    for vec in range(x_tile.shape[0]):
        for r in range(w_tile.shape[0]):
            out[vec] += hub_mac_row(
                int(x_tile[vec, r]), w_tile[r], bits, ebt=ebt, coding=coding
            )
    return out


def _random_tiles(bits, v, k, c, seed=11):
    rng = np.random.default_rng(seed)
    limit = (1 << (bits - 1)) - 1
    w_tile = rng.integers(-limit, limit + 1, size=(k, c))
    x_tile = rng.integers(-limit, limit + 1, size=(v, k))
    return w_tile, x_tile


#: The (bits, EBT, coding) grid both fold kernels are held to.
_FOLD_GRID = pytest.mark.parametrize(
    "bits,ebt,coding",
    [
        (8, None, Coding.RATE),
        (8, 6, Coding.RATE),
        (8, 4, Coding.RATE),
        (6, None, Coding.TEMPORAL),
        (4, 2, Coding.RATE),
    ],
)


class TestTileEquivalence:
    @_FOLD_GRID
    def test_matches_row_accumulation(self, bits, ebt, coding):
        w_tile, x_tile = _random_tiles(bits, v=5, k=4, c=3)
        tile = hub_mac_tile(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        reference = _reference_tile(w_tile, x_tile, bits, ebt, coding)
        assert np.array_equal(tile, reference), "must be byte-identical"

    def test_matches_scalar_hubmac_chain(self):
        bits, ebt = 8, 6
        w_tile, x_tile = _random_tiles(bits, v=3, k=3, c=2, seed=23)
        tile = hub_mac_tile(w_tile, x_tile, bits, ebt=ebt)
        scale = 1 << (bits - 1)
        for vec in range(3):
            for col in range(2):
                mac = HubMac(bits, ebt=ebt)
                total = 0.0
                for r in range(3):
                    total += (
                        mac.multiply(
                            int(w_tile[r, col]), int(x_tile[vec, r])
                        ).product
                        * scale
                    )
                assert tile[vec, col] == total

    def test_count_table_matches_closed_form(self):
        # The closed form T[a, b] = #{k < a : S_k < b} must equal
        # hub_mac_row's stream walk for both codings: the C-BSG only
        # advances on enabled cycles, so both see the same draws.
        for mag_bits in (1, 2, 3, 5):
            bits = mag_bits + 1  # no early termination, no shift
            side = 1 << mag_bits
            restore = 1 << (bits - 1)
            table = vectorized._count_table(mag_bits)
            for coding in (Coding.RATE, Coding.TEMPORAL):
                walked = [
                    hub_mac_row(imag, np.arange(side), bits, coding=coding)
                    for imag in range(side)
                ]
                assert np.array_equal(np.array(walked) / restore, table)

    def test_signed_table_is_narrow(self):
        # int8 holds +-(2**m - 1) up to m = 7, int16 up to the cap of 11.
        for mag_bits, dtype in ((1, np.int8), (7, np.int8), (8, np.int16)):
            signed = vectorized._signed_table(mag_bits)
            assert signed.dtype == dtype
            assert signed.shape == (2 << mag_bits, 2 << mag_bits)
        assert vectorized._TABLE_MAX_MAG_BITS == 11

    def test_chunked_gather_is_byte_identical(self, monkeypatch):
        bits = 8
        w_tile, x_tile = _random_tiles(bits, v=9, k=4, c=3, seed=5)
        whole = hub_mac_tile(w_tile, x_tile, bits)
        monkeypatch.setattr(vectorized, "_TILE_CHUNK_ELEMS", 8)
        chunked = hub_mac_tile(w_tile, x_tile, bits)
        assert np.array_equal(whole, chunked)

    def test_wide_magnitudes_fall_back_to_row_path(self, monkeypatch):
        # Force the fallback at a cheap width and check it still matches.
        monkeypatch.setattr(vectorized, "_TABLE_MAX_MAG_BITS", 2)
        bits = 6
        w_tile, x_tile = _random_tiles(bits, v=2, k=3, c=2, seed=3)
        tile = hub_mac_tile(w_tile, x_tile, bits)
        assert np.array_equal(
            tile, _reference_tile(w_tile, x_tile, bits, None, Coding.RATE)
        )

    def test_validation(self):
        w_tile, x_tile = _random_tiles(8, v=2, k=3, c=2)
        with pytest.raises(ValueError, match="incompatible tile shapes"):
            hub_mac_tile(w_tile, x_tile[:, :2], 8)
        with pytest.raises(ValueError, match="ebt must be in"):
            hub_mac_tile(w_tile, x_tile, 8, ebt=1)
        with pytest.raises(ValueError, match="no early termination"):
            hub_mac_tile(w_tile, x_tile, 8, ebt=4, coding=Coding.TEMPORAL)
        with pytest.raises(ValueError, match="sign-magnitude"):
            hub_mac_tile(w_tile, x_tile, 4)


class TestProductCounts:
    @_FOLD_GRID
    def test_each_count_is_the_scalar_hubmac_product(self, bits, ebt, coding):
        w_tile, x_tile = _random_tiles(bits, v=5, k=4, c=3, seed=17)
        counts, scale = hub_product_counts(
            w_tile, x_tile, bits, ebt=ebt, coding=coding
        )
        assert counts.dtype == np.int64
        assert counts.shape == (5, 4, 3)
        mac = HubMac(bits, ebt=ebt, coding=coding)
        restore = 1 << (bits - 1)
        for v in range(5):
            for r in range(4):
                for c in range(3):
                    product = mac.multiply(int(w_tile[r, c]), int(x_tile[v, r]))
                    assert counts[v, r, c] * scale == product.product * restore

    @_FOLD_GRID
    def test_k_sum_is_hub_mac_tile_byte_for_byte(self, bits, ebt, coding):
        w_tile, x_tile = _random_tiles(bits, v=7, k=5, c=4, seed=29)
        counts, scale = hub_product_counts(
            w_tile, x_tile, bits, ebt=ebt, coding=coding
        )
        tile = hub_mac_tile(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        assert (counts.sum(axis=1) * scale).tobytes() == tile.tobytes()

    @_FOLD_GRID
    def test_wide_magnitudes_fall_back_to_row_path(
        self, bits, ebt, coding, monkeypatch
    ):
        w_tile, x_tile = _random_tiles(bits, v=3, k=3, c=2, seed=31)
        table = hub_product_counts(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        # Every grid width is at least one magnitude bit: all fall back.
        monkeypatch.setattr(vectorized, "_TABLE_MAX_MAG_BITS", 0)
        rows = hub_product_counts(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        assert rows[0].dtype == np.int64
        assert np.array_equal(rows[0], table[0])
        assert rows[1] == table[1]

    @_FOLD_GRID
    def test_chunked_gather_is_identical(self, bits, ebt, coding, monkeypatch):
        w_tile, x_tile = _random_tiles(bits, v=9, k=6, c=5, seed=37)
        whole = hub_product_counts(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        tile = hub_mac_tile(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        # Smaller than one row-table column: every axis is chunked.
        monkeypatch.setattr(vectorized, "_TILE_CHUNK_ELEMS", 2)
        chunked = hub_product_counts(
            w_tile, x_tile, bits, ebt=ebt, coding=coding
        )
        assert np.array_equal(chunked[0], whole[0])
        assert chunked[1] == whole[1]
        chunked_tile = hub_mac_tile(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        assert chunked_tile.tobytes() == tile.tobytes()

    @_FOLD_GRID
    def test_row_path_blocks_are_bounded(self, bits, ebt, coding, monkeypatch):
        w_tile, x_tile = _random_tiles(bits, v=3, k=5, c=4, seed=41)
        whole = hub_product_counts(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        tile = hub_mac_tile(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        monkeypatch.setattr(vectorized, "_TABLE_MAX_MAG_BITS", 0)
        monkeypatch.setattr(vectorized, "_TILE_CHUNK_ELEMS", 2)
        _, _, blocks = vectorized._fold_counts(w_tile, x_tile, bits, ebt, coding)
        assert max(block.size for *_, block in blocks) <= 2
        rows = hub_product_counts(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        assert np.array_equal(rows[0], whole[0])
        assert rows[1] == whole[1]
        row_tile = hub_mac_tile(w_tile, x_tile, bits, ebt=ebt, coding=coding)
        assert row_tile.tobytes() == tile.tobytes()

    def test_validation(self):
        w_tile, x_tile = _random_tiles(8, v=2, k=3, c=2)
        with pytest.raises(ValueError, match="incompatible tile shapes"):
            hub_product_counts(w_tile, x_tile[:, :2], 8)
        with pytest.raises(ValueError, match="ebt must be in"):
            hub_product_counts(w_tile, x_tile, 8, ebt=1)
        with pytest.raises(ValueError, match="no early termination"):
            hub_product_counts(w_tile, x_tile, 8, ebt=4, coding=Coding.TEMPORAL)
        with pytest.raises(ValueError, match="sign-magnitude"):
            hub_product_counts(w_tile, x_tile, 4)


def test_every_paper_ebt_takes_the_table_path(monkeypatch):
    # 16-bit data at EBT 12 has 11 magnitude bits, inside the table cap:
    # the per-element row path must not run.
    w_tile, x_tile = _random_tiles(16, v=3, k=4, c=2, seed=43)
    reference = _reference_tile(w_tile, x_tile, 16, 12, Coding.RATE)

    def row_path(*args, **kwargs):
        raise AssertionError("EBT 12 fell back to the row path")

    monkeypatch.setattr(vectorized, "hub_mac_row", row_path)
    tile = hub_mac_tile(w_tile, x_tile, 16, ebt=12)
    counts, scale = hub_product_counts(w_tile, x_tile, 16, ebt=12)
    assert tile.dtype == np.float64
    assert counts.dtype == np.int64
    assert tile.tobytes() == reference.tobytes()
    assert (counts.sum(axis=1) * scale).tobytes() == tile.tobytes()


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_extreme_operands_sum_exactly_across_chunks(monkeypatch, sign):
    # 12 bits at EBT 12 is the widest table (11 magnitude bits, side
    # 4096), and every operand at the maximum gives every product the
    # largest count it holds.
    bits, side = 12, 4096
    top = (1 << (bits - 1)) - 1
    for chunk_elems, (v, k, c) in (
        # Below one table column: K- and C-chunks of one, V-chunks of two.
        (2, (5, 5, 3)),
        # Both columns at once, so 17 rows a K-chunk: K = 40 spans three,
        # and each chunk's sum, 17 * 2046, is past int16's 32767.
        (17 * side * 2, (3, 40, 2)),
    ):
        monkeypatch.setattr(vectorized, "_TILE_CHUNK_ELEMS", chunk_elems)
        w_tile = np.full((k, c), top)
        x_tile = np.full((v, k), sign * top)
        counts, scale = hub_product_counts(w_tile, x_tile, bits, ebt=bits)
        tile = hub_mac_tile(w_tile, x_tile, bits, ebt=bits)
        assert (counts.sum(axis=1) * scale).tobytes() == tile.tobytes()
        assert (np.abs(counts) == 2046).all()


@pytest.mark.parametrize("bits", range(2, 13))
def test_lookup_codes_are_the_arithmetic_codes(bits, monkeypatch):
    # Every in-range operand, the most negative -(2**(bits-1) - 1) among
    # them, at every EBT: each takes the table path at these widths.
    top = (1 << (bits - 1)) - 1
    values = np.arange(-top, top + 1)
    for ebt in range(2, bits + 1):
        expected = []
        for value in values.tolist():
            sign, magnitude = sign_magnitude(value, bits)
            expected.append((magnitude >> (bits - ebt)) + (sign << (ebt - 1)))
        codes = vectorized._signed_codes(values, bits, ebt)
        assert codes.dtype == np.int16
        assert codes.tolist() == expected
        # A transposed operand comes back in C order, in its own shape.
        grid = values[: len(values) // 2 * 2].reshape(2, -1)
        transposed = vectorized._signed_codes(grid.T, bits, ebt)
        assert transposed.flags.c_contiguous
        assert transposed.tolist() == codes[: grid.size].reshape(2, -1).T.tolist()
    # Wider than the code tables: coded arithmetically, the same codes.
    monkeypatch.setattr(vectorized, "_CODE_TABLE_MAX_BITS", 1)
    assert vectorized._signed_codes(values, bits, bits).tolist() == [
        abs(value) + ((value < 0) << (bits - 1)) for value in values.tolist()
    ]


@pytest.mark.parametrize("bits,ebt", _WIDTHS)
def test_accumulator_switches_exactly_at_the_int16_bound(monkeypatch, bits, ebt):
    # One K-chunk of exactly 32767 // max_count rows sums in int16, and one
    # row more in int32.  All-maximum operands of both signs give every
    # product the table's largest count (max_count, or one less), so at
    # EBT 2, 10, 11 and 12 the larger chunk's sum is past int16.  Both
    # kernels must stay the scalar HubMac chain byte for byte on both
    # sides of the switch.
    mag_bits = ebt - 1
    max_count = (1 << mag_bits) - 1
    side = 2 << mag_bits
    top = (1 << (bits - 1)) - 1
    restore = 1 << (bits - 1)
    mac = HubMac(bits, ebt=ebt)
    # Column 0 holds +top weights, column 1 -top; vector 0 streams +top
    # IFMs, vector 1 -top.
    signs = (1, -1)
    products = [
        [mac.multiply(wsign * top, xsign * top).product * restore for wsign in signs]
        for xsign in signs
    ]
    fit = 32767 // max_count
    for rows, acc_type in ((fit, np.int16), (fit + 1, np.int32)):
        assert vectorized._accumulator_type(rows, mag_bits) is acc_type
        # Two columns of row tables: a chunk of exactly `rows` rows.
        monkeypatch.setattr(vectorized, "_TILE_CHUNK_ELEMS", rows * side * 2)
        w_tile = np.tile([top, -top], (rows, 1))
        x_tile = np.tile([[top], [-top]], (1, rows))
        chain = np.zeros((2, 2))
        for v in range(2):
            for c in range(2):
                total = 0.0
                for _ in range(rows):
                    total += products[v][c]
                chain[v, c] = total
        tile = hub_mac_tile(w_tile, x_tile, bits, ebt=ebt)
        assert tile.tobytes() == chain.tobytes()
        counts, scale = hub_product_counts(w_tile, x_tile, bits, ebt=ebt)
        for v in range(2):
            for c in range(2):
                assert (counts[v, :, c] * scale == products[v][c]).all()
        assert (counts.sum(axis=1) * scale).tobytes() == chain.tobytes()


def _temporaries(bits, ebt, v, k, c):
    """Bytes ``hub_mac_tile`` holds at once on a ``(v, k) x (k, c)`` fold
    at its peak, beside its int64 sums: the codes and the chunked
    row-table loop's temporaries, or after the loop the float64 result."""
    chunk = vectorized._TILE_CHUNK_ELEMS
    mag_bits = ebt - 1
    table = vectorized._signed_table(mag_bits).itemsize
    side = 2 << mag_bits
    c_step = max(1, min(c, chunk // side))
    k_step = min(k, max(1, chunk // (side * c_step)))
    v_step = min(v, max(1, chunk // c_step))
    acc = np.dtype(vectorized._accumulator_type(k_step, mag_bits)).itemsize
    loop = {
        # One int16 code per operand element, and the block of IFM codes
        # gathered in the transposed order before its C-order copy.
        "codes": 2 * (v * k + k * c) + 2 * min(v * k, chunk),
        # The one row-table buffer every chunk is built in, and take's
        # buffer for a chunk's top half.
        "row tables": 3 * side * k_step * c_step * table // 2,
        "one row's gather": v_step * c_step * table,
        "accumulator": v_step * c_step * acc,
        "one row's gather index": v_step * np.dtype(np.intp).itemsize,
    }
    sums = result = 8 * v * c  # int64 sums, then their float64 copy
    return sums + max(sum(loop.values()), result)


def test_full_array_fold_stays_within_the_chunk_budget():
    for bits, ebt, coding, (v, k, c) in (
        # A 256x256 fold.  Built whole, its row table alone would be 256
        # codes x 256 x 256 = 16 Mi entries for UT, and 4096 codes (256 Mi
        # entries) at 16-bit EBT 12.
        (8, 8, Coding.TEMPORAL, (4, 256, 256)),
        (16, 12, Coding.RATE, (4, 256, 256)),
        # Many vectors over a deep reduction, so the loop outweighs the
        # result: the codes, the accumulator and each row's gather index
        # grow with V, and the last two are chunked over it.
        (8, 6, Coding.RATE, (8192, 1024, 16)),
    ):
        w_tile, x_tile = _random_tiles(bits, v=v, k=k, c=c, seed=41)
        # Build the cached tables first; the guard is on the temporaries.
        hub_mac_tile(w_tile[:1, :1], x_tile[:, :1], bits, ebt=ebt, coding=coding)
        tracemalloc.start()
        try:
            hub_mac_tile(w_tile, x_tile, bits, ebt=ebt, coding=coding)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy's own bookkeeping (index conversions, small views) on top.
        assert peak <= _temporaries(bits, ebt, v, k, c) + (64 << 10), (bits, ebt)


def test_a_ut_fold_holds_one_row_table_at_a_time():
    # 4x256x256 UT: each K-chunk's row table is 256 codes x 16 rows x 256
    # columns of int8, 1 MiB.  That table, take's buffer for its top half
    # and the int16 codes come to 1,708,032 bytes; a second table alive
    # beside the first would add another MiB.
    w_tile, x_tile = _random_tiles(8, v=4, k=256, c=256, seed=41)
    hub_mac_tile(w_tile[:1, :1], x_tile[:, :1], 8, coding=Coding.TEMPORAL)
    table = 256 * 16 * 256
    codes = 2 * (4 * 256 + 256 * 256) + 2 * 4 * 256
    tracemalloc.start()
    try:
        hub_mac_tile(w_tile, x_tile, 8, coding=Coding.TEMPORAL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= table + table // 2 + codes + (64 << 10)
