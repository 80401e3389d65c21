"""Runtime config contracts: validate() raises field-specific ValueErrors."""

from __future__ import annotations

import pytest

from repro.contracts import (
    is_power_of_two,
    require_at_most,
    require_in_range,
    require_non_negative,
    require_positive,
    require_power_of_two,
)
from repro.core.config import ArrayConfig
from repro.gemm.params import GemmParams
from repro.memory.hierarchy import MemoryConfig
from repro.schemes import ComputeScheme


class TestHelpers:
    def test_is_power_of_two(self):
        assert [n for n in range(-2, 9) if is_power_of_two(n)] == [1, 2, 4, 8]
        assert not is_power_of_two(2.0)  # floats are not bank counts

    def test_messages_name_owner_and_field(self):
        with pytest.raises(ValueError, match=r"Thing\.banks: must be positive"):
            require_positive("Thing", banks=0)
        with pytest.raises(ValueError, match=r"Thing\.x: must be >= 0"):
            require_non_negative("Thing", x=-1)
        with pytest.raises(ValueError, match=r"Thing\.n: must be a power of two"):
            require_power_of_two("Thing", n=12)
        with pytest.raises(ValueError, match=r"Thing\.r: must be in \[0.0, 1.0\]"):
            require_in_range("Thing", "r", 1.5, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"Thing\.ebt: must be <= bits"):
            require_at_most("Thing", "ebt", 9, 8, "bits")


class TestArrayConfigValidate:
    def test_zero_rows_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"ArrayConfig\.rows"):
            ArrayConfig(rows=0, cols=14, scheme=ComputeScheme.USYSTOLIC_RATE)

    def test_negative_cols_rejected(self):
        with pytest.raises(ValueError, match=r"ArrayConfig\.cols"):
            ArrayConfig(rows=12, cols=-3, scheme=ComputeScheme.BINARY_PARALLEL)

    def test_resolution_above_operand_width_rejected(self):
        with pytest.raises(ValueError, match=r"ArrayConfig\.ebt"):
            ArrayConfig(
                rows=2, cols=2, scheme=ComputeScheme.USYSTOLIC_RATE, bits=8, ebt=9
            )

    def test_ebt_on_non_terminable_scheme_rejected(self):
        with pytest.raises(ValueError, match=r"ArrayConfig\.ebt"):
            ArrayConfig(
                rows=2,
                cols=2,
                scheme=ComputeScheme.USYSTOLIC_TEMPORAL,
                bits=8,
                ebt=6,
            )

    def test_valid_config_round_trips(self):
        cfg = ArrayConfig(
            rows=12, cols=14, scheme=ComputeScheme.USYSTOLIC_RATE, bits=8, ebt=6
        )
        assert cfg.validate() is cfg
        # Unary bitstream lengths stay powers of two by construction.
        assert is_power_of_two(cfg.mac_cycles - 1)


class TestGemmParamsValidate:
    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError, match=r"GemmParams\.ic"):
            GemmParams(name="bad", ih=8, iw=8, ic=0, wh=3, ww=3, oc=4)

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError, match=r"GemmParams\.stride"):
            GemmParams(name="bad", ih=8, iw=8, ic=1, wh=3, ww=3, oc=4, stride=0)

    def test_window_larger_than_ifm_rejected(self):
        with pytest.raises(ValueError, match=r"GemmParams\.wh/ww"):
            GemmParams(name="bad", ih=2, iw=2, ic=1, wh=3, ww=3, oc=4)

    def test_valid_params_chain(self):
        params = GemmParams.matmul("m", rows=4, inner=8, cols=2)
        assert params.validate() is params


class TestMemoryConfigValidate:
    def test_zero_sram_bytes_rejected(self):
        with pytest.raises(
            ValueError, match=r"MemoryConfig\.sram_bytes_per_variable"
        ):
            MemoryConfig(sram_bytes_per_variable=0)

    def test_negative_banks_rejected(self):
        with pytest.raises(ValueError, match=r"MemoryConfig\.sram_banks"):
            MemoryConfig(sram_bytes_per_variable=1024, sram_banks=-4)

    def test_non_power_of_two_banks_rejected(self):
        with pytest.raises(ValueError, match=r"MemoryConfig\.sram_banks"):
            MemoryConfig(sram_bytes_per_variable=1024, sram_banks=12)

    def test_sram_elimination_still_valid(self):
        cfg = MemoryConfig(sram_bytes_per_variable=None)
        assert cfg.validate() is cfg
        assert cfg.without_sram().validate() is not None


class TestEntryPointContracts:
    def test_cli_reports_invalid_ebt_as_usage_error(self, capsys):
        from repro.sim.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "alexnet", "--scheme", "UR", "--ebt", "99"])
        assert excinfo.value.code == 2
        assert "ebt" in capsys.readouterr().err

    def test_simulate_layer_validates_at_entry(self):
        # A config corrupted after construction (bypassing __post_init__)
        # must still be caught by the simulate_layer entry contract.
        from repro.sim.engine import simulate_layer
        from repro.workloads.presets import EDGE

        array = EDGE.array(ComputeScheme.BINARY_PARALLEL)
        object.__setattr__(array, "rows", 0)
        layer = GemmParams.matmul("m", rows=4, inner=8, cols=2)
        with pytest.raises(ValueError, match=r"ArrayConfig\.rows"):
            simulate_layer(layer, array, EDGE.memory)
