"""Tests for the behavioural ISA machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ArrayConfig
from repro.core.isa import Instruction, Opcode, build_program
from repro.core.machine import UsystolicMachine
from repro.core.scheduler import build_schedule
from repro.gemm.params import GemmParams
from repro.gemm.tiling import tile_gemm
from repro.schemes import ComputeScheme as CS
from repro.schemes import registered_codes
from repro.sim.dataflow import schedule_layer

PARAMS = GemmParams("c", ih=10, iw=10, ic=8, wh=3, ww=3, oc=20)


class TestMachine:
    @pytest.mark.parametrize(
        "scheme,ebt",
        [
            (CS.BINARY_PARALLEL, None),
            (CS.BINARY_SERIAL, None),
            (CS.USYSTOLIC_RATE, 6),
            (CS.USYSTOLIC_TEMPORAL, None),
            (CS.UGEMM_RATE, None),
        ],
    )
    def test_cycles_match_analytic_schedule(self, scheme, ebt):
        # The ISA view and the performance model describe one machine:
        # executing the compiled program must land on the schedule's
        # cycle count exactly.
        cfg = ArrayConfig(12, 14, scheme, ebt=ebt)
        machine = UsystolicMachine(PARAMS, cfg)
        final = machine.run(build_program(PARAMS, cfg))
        sched = schedule_layer(tile_gemm(PARAMS, 12, 14), cfg.mac_cycles)
        assert final.cycle == sched.compute_cycles

    @pytest.mark.parametrize("code", registered_codes())
    def test_every_geometry_agrees_with_the_analytic_schedule(self, code):
        # The machine and the op scheduler time each fold under the
        # scheme's dataflow geometry: on DiP (no skew, no drain) this layer
        # takes 912 cycles, not the skewed 1008.
        params = GemmParams("c", ih=10, iw=10, ic=8, wh=3, ww=3, oc=16)
        cfg = ArrayConfig(12, 14, CS(code))
        final = UsystolicMachine(params, cfg).run(build_program(params, cfg))
        ops = build_schedule(params, cfg).ops
        sched = schedule_layer(
            tile_gemm(params, 12, 14), cfg.mac_cycles, cfg.geometry
        )
        assert final.cycle == ops[-1].end_cycle == sched.compute_cycles
        if code == "DP":
            assert final.cycle == 912

    def test_counts_weights_and_vectors(self):
        cfg = ArrayConfig(12, 14, CS.BINARY_PARALLEL)
        machine = UsystolicMachine(PARAMS, cfg)
        final = machine.run(build_program(PARAMS, cfg))
        tiling = tile_gemm(PARAMS, 12, 14)
        assert final.weights_loaded == sum(t.rows * t.cols for t in tiling)
        assert final.vectors_streamed == tiling.total_vectors
        assert final.halted

    def test_stream_before_load_rejected(self):
        cfg = ArrayConfig(12, 14, CS.BINARY_PARALLEL)
        machine = UsystolicMachine(PARAMS, cfg)
        with pytest.raises(ValueError):
            machine.step(
                Instruction(opcode=Opcode.STREAM_IFM, tile=0, count=1, mac_cycles=1)
            )

    def test_wrong_tile_stream_rejected(self):
        cfg = ArrayConfig(12, 14, CS.BINARY_PARALLEL)
        machine = UsystolicMachine(PARAMS, cfg)
        prog = build_program(PARAMS, cfg)
        machine.step(prog[0])  # load tile 0
        with pytest.raises(ValueError):
            machine.step(
                Instruction(opcode=Opcode.STREAM_IFM, tile=1, count=1, mac_cycles=1)
            )

    def test_bad_preload_count_rejected(self):
        cfg = ArrayConfig(12, 14, CS.BINARY_PARALLEL)
        machine = UsystolicMachine(PARAMS, cfg)
        with pytest.raises(ValueError):
            machine.step(
                Instruction(opcode=Opcode.LOAD_WEIGHTS, tile=0, count=3, mac_cycles=1)
            )

    def test_out_of_range_tile_rejected(self):
        cfg = ArrayConfig(12, 14, CS.BINARY_PARALLEL)
        machine = UsystolicMachine(PARAMS, cfg)
        with pytest.raises(ValueError):
            machine.step(
                Instruction(
                    opcode=Opcode.LOAD_WEIGHTS, tile=9999, count=1, mac_cycles=1
                )
            )

    def test_step_after_halt_rejected(self):
        cfg = ArrayConfig(12, 14, CS.BINARY_PARALLEL)
        machine = UsystolicMachine(PARAMS, cfg)
        machine.step(Instruction(opcode=Opcode.HALT))
        with pytest.raises(RuntimeError):
            machine.step(Instruction(opcode=Opcode.HALT))

    def test_program_without_halt_rejected(self):
        cfg = ArrayConfig(12, 14, CS.BINARY_PARALLEL)
        machine = UsystolicMachine(PARAMS, cfg)
        prog = build_program(PARAMS, cfg)[:-1]
        with pytest.raises(RuntimeError):
            machine.run(prog)


@given(
    ih=st.integers(4, 12),
    ic=st.integers(1, 8),
    oc=st.integers(1, 30),
    ebt=st.sampled_from([6, 7, 8]),
)
@settings(max_examples=20, deadline=None)
def test_machine_schedule_equivalence_property(ih, ic, oc, ebt):
    params = GemmParams("p", ih=ih, iw=ih, ic=ic, wh=3, ww=3, oc=oc)
    cfg = ArrayConfig(12, 14, CS.USYSTOLIC_RATE, ebt=ebt)
    machine = UsystolicMachine(params, cfg)
    final = machine.run(build_program(params, cfg))
    sched = schedule_layer(tile_gemm(params, 12, 14), cfg.mac_cycles)
    assert final.cycle == sched.compute_cycles
