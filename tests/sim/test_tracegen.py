"""Tests for event-level trace generation."""

import pytest

from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.memory.hierarchy import MemoryConfig
from repro.schemes import ComputeScheme as CS
from repro.sim.tracegen import generate_trace, trace_totals
from repro.sim.traffic import profile_traffic_batched

PARAMS = GemmParams("c", ih=8, iw=8, ic=4, wh=3, ww=3, oc=8)
CFG_BP = ArrayConfig(12, 14, CS.BINARY_PARALLEL)
CFG_UR = ArrayConfig(12, 14, CS.USYSTOLIC_RATE, ebt=6)


class TestGenerateTrace:
    def test_totals_match_aggregate_profiler(self):
        # The event stream and the aggregate profiler must agree byte for
        # byte (no-SRAM view: demand traffic).
        trace = generate_trace(PARAMS, CFG_BP)
        totals = trace_totals(trace)
        tiling = tile_gemm(PARAMS, 12, 14)
        agg = profile_traffic_batched(
            PARAMS, tiling, 8, MemoryConfig(sram_bytes_per_variable=None)
        )
        assert totals[("ifm", "read")] == agg.ifm.dram_read
        assert totals[("weight", "read")] == agg.weight.dram_read
        assert totals[("ofm", "write")] == agg.ofm.dram_write
        assert totals.get(("ofm", "read"), 0) == agg.ofm.dram_read

    def test_events_are_time_ordered_per_variable(self):
        trace = generate_trace(PARAMS, CFG_BP)
        cycles = [e.cycle for e in trace]
        assert cycles == sorted(cycles)

    def test_unary_trace_spans_more_cycles(self):
        bp = generate_trace(PARAMS, CFG_BP)
        ur = generate_trace(PARAMS, CFG_UR)
        assert max(e.cycle for e in ur) > 20 * max(e.cycle for e in bp)
        # ... while moving the same bytes.
        assert sum(e.nbytes for e in ur) == sum(e.nbytes for e in bp)

    def test_psum_reads_only_on_later_folds(self):
        tiling = tile_gemm(PARAMS, 12, 14)
        assert tiling.k_folds > 1
        trace = generate_trace(PARAMS, CFG_BP)
        reads = [e for e in trace if e.variable == "ofm" and e.op == "read"]
        writes = [e for e in trace if e.variable == "ofm" and e.op == "write"]
        assert len(writes) == tiling.num_tiles * tiling.vectors
        assert len(reads) == (tiling.k_folds - 1) * tiling.c_folds * (
            PARAMS.oh * PARAMS.ow
        )

    def test_addresses_within_regions(self):
        trace = generate_trace(PARAMS, CFG_BP)
        for e in trace:
            assert e.address >= 0
            if e.variable == "ofm":
                assert e.address + e.nbytes <= PARAMS.num_outputs * 1

    def test_event_cap(self):
        with pytest.raises(ValueError):
            generate_trace(PARAMS, CFG_BP, max_events=5)

