"""Runtime config contracts: validate() raises field-specific ValueErrors."""

from __future__ import annotations

import math

import pytest

from repro.contracts import is_power_of_two, require_in_range
from repro.core.config import ArrayConfig
from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.cluster import FleetConfig
from repro.fleet.pools import PoolConfig
from repro.gemm.params import GemmParams
from repro.memory.hierarchy import MemoryConfig
from repro.nn.quant import QuantMode, QuantSpec
from repro.schemes import ComputeScheme
from repro.serve.requests import Request


class TestHelpers:
    def test_is_power_of_two(self):
        assert [n for n in range(-2, 9) if is_power_of_two(n)] == [1, 2, 4, 8]
        assert not is_power_of_two(2.0)  # floats are not stream lengths

    def test_messages_name_owner_and_field(self):
        with pytest.raises(ValueError, match=r"Thing\.r: must be in \[0.0, 1.0\]"):
            require_in_range("Thing", "r", 1.5, 0.0, 1.0)


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

        # The engine derives the latency law, label and SRAM macro once
        # per config.  A config corrupted after its first simulation, when
        # those constants exist, still fails the entry contract.
        corruptions = [
            ("array", "ebt", 9, "ArrayConfig.ebt: must be in [2, 8], got 9"),
            (
                "memory",
                "sram_bytes_per_variable",
                0,
                "MemoryConfig.sram_bytes_per_variable: must be positive, got 0",
            ),
            ("layer", "oc", 0, "GemmParams.oc: must be positive, got 0"),
        ]
        for target, field, value, message in corruptions:
            configs = {
                "layer": GemmParams("c", ih=6, iw=6, ic=4, wh=3, ww=3, oc=8),
                "array": ArrayConfig(12, 14, ComputeScheme.USYSTOLIC_RATE, ebt=6),
                "memory": MemoryConfig(sram_bytes_per_variable=64 * 1024),
            }
            simulate_layer(*configs.values())
            object.__setattr__(configs[target], field, value)
            with pytest.raises(ValueError) as excinfo:
                simulate_layer(*configs.values())
            assert str(excinfo.value) == message


BP = ComputeScheme.BINARY_PARALLEL
GEMM_DIMS = ("ih", "iw", "ic", "wh", "ww", "oc", "stride")


def _array(**fields):
    return ArrayConfig(**{"rows": 4, "cols": 4, "scheme": BP, **fields})


def _gemm(**fields):
    dims = {"ih": 4, "iw": 4, "ic": 1, "wh": 1, "ww": 1, "oc": 1, **fields}
    return GemmParams("g", **dims)


def _memory(**fields):
    return MemoryConfig(**{"sram_bytes_per_variable": 1024, **fields})


def _pool(**fields):
    return PoolConfig(**{"name": "p", "scheme": BP, **fields})


def _request(**fields):
    return Request(**{"req_id": 0, "workload": "net", "arrival_s": 1.0, **fields})


#: One failing construction per reachable contract check, with its exact
#: message.  A passing check never builds its message, so nothing else
#: would notice a message broken by a change to the check.  (The
#: power-of-two bitstream check in ``ArrayConfig`` is unreachable: every
#: scheme that declares it has a ``1 << n`` stream.)
CONTRACT_MESSAGES = [
    pytest.param(
        lambda: QuantSpec(QuantMode.FXP_O_RES, ebt=3),
        "QuantSpec.ebt: FXP-o-res needs n >= 4 (two bits per operand), got 3",
        id="QuantSpec.ebt",
    ),
    *(
        pytest.param(
            lambda dim=dim: _gemm(**{dim: 0}),
            f"GemmParams.{dim}: must be positive, got 0",
            id=f"GemmParams.{dim}",
        )
        for dim in GEMM_DIMS
    ),
    pytest.param(
        lambda: _gemm(ih=2, wh=3),
        "GemmParams.wh/ww: weight window (3x1) exceeds IFM (2x4) in GEMM 'g'",
        id="GemmParams.wh/ww",
    ),
    pytest.param(
        lambda: AutoscaleConfig(interval_s=0),
        "AutoscaleConfig.interval_s: must be positive, got 0",
        id="AutoscaleConfig.interval_s",
    ),
    pytest.param(
        lambda: AutoscaleConfig(high_watermark=1.0, low_watermark=1.0),
        "AutoscaleConfig.high_watermark: needs high > low >= 0, "
        "got high=1.0 low=1.0",
        id="AutoscaleConfig.high_watermark",
    ),
    pytest.param(
        lambda: AutoscaleConfig(power_cap_w=0.0),
        "AutoscaleConfig.power_cap_w: must be positive, got 0.0",
        id="AutoscaleConfig.power_cap_w",
    ),
    pytest.param(
        lambda: FleetConfig(pools=()),
        "FleetConfig.pools: needs at least one pool",
        id="FleetConfig.pools-empty",
    ),
    pytest.param(
        lambda: FleetConfig(pools=(_pool(), _pool())),
        "FleetConfig.pools: pool names must be unique, got ['p', 'p']",
        id="FleetConfig.pools-unique",
    ),
    pytest.param(
        lambda: FleetConfig(pools=(_pool(), _pool(name="q", workload="ncf"))),
        "FleetConfig.pools: must all serve one workload, got ['alexnet', 'ncf']",
        id="FleetConfig.pools-one-workload",
    ),
    pytest.param(
        lambda: FleetConfig(pools=(_pool(),), slo_s=0.0),
        "FleetConfig.slo_s: must be positive, got 0.0",
        id="FleetConfig.slo_s",
    ),
    pytest.param(
        lambda: _pool(name=""),
        "PoolConfig.name: must be a non-empty label",
        id="PoolConfig.name",
    ),
    pytest.param(
        lambda: _pool(platform="mobile"),
        "PoolConfig.platform: must be one of ('edge', 'cloud'), got 'mobile'",
        id="PoolConfig.platform",
    ),
    pytest.param(
        lambda: _pool(instances=0),
        "PoolConfig.instances: must be >= 1, got 0",
        id="PoolConfig.instances",
    ),
    *(
        pytest.param(
            lambda field=field: _pool(**{field: 2.5}),
            f"PoolConfig.{field}: must be an int, got 2.5",
            id=f"PoolConfig.{field}-int",
        )
        for field in ("instances", "min_instances", "max_instances")
    ),
    pytest.param(
        lambda: _pool(min_instances=3, max_instances=2),
        "PoolConfig.min_instances: needs 1 <= min_instances <= max_instances, "
        "got min=3 max=2",
        id="PoolConfig.min_instances",
    ),
    pytest.param(
        lambda: _pool(instances=9),
        "PoolConfig.instances: 9 outside [1, 8]",
        id="PoolConfig.instances-range",
    ),
    pytest.param(
        lambda: _pool(max_wait_s=-1e-3),
        "PoolConfig.max_wait_s: must be >= 0, got -0.001",
        id="PoolConfig.max_wait_s",
    ),
    pytest.param(
        lambda: _pool(act_frac=0.5),
        "PoolConfig.act_frac: needs a value-dependent scheme and a value in "
        "[0, 1], got scheme=BP act_frac=0.5",
        id="PoolConfig.act_frac",
    ),
    pytest.param(
        lambda: _pool(scheme="UR"),
        "PoolConfig.scheme: must be a ComputeScheme, got 'UR'",
        id="PoolConfig.scheme",
    ),
    pytest.param(
        lambda: _pool(bits=8.0),
        "PoolConfig.bits: must be an int, got 8.0",
        id="PoolConfig.bits-int",
    ),
    pytest.param(
        lambda: _pool(bits=1),
        "PoolConfig.bits: rejected by the BP latency law: bits must be >= 2, "
        "got 1",
        id="PoolConfig.bits-law",
    ),
    pytest.param(
        lambda: _pool(scheme=ComputeScheme.USYSTOLIC_RATE, ebt=5.5),
        "PoolConfig.ebt: must be an int, got 5.5",
        id="PoolConfig.ebt-int",
    ),
    pytest.param(
        lambda: _pool(scheme=ComputeScheme.USYSTOLIC_RATE, ebt=9),
        "PoolConfig.ebt: rejected by the UR latency law: ebt must be in "
        "[2, 8], got 9",
        id="PoolConfig.ebt-law",
    ),
    pytest.param(
        lambda: _pool(max_batch=0),
        "PoolConfig.max_batch: must be positive, got 0",
        id="PoolConfig.max_batch",
    ),
    pytest.param(
        lambda: _pool(queue_capacity=0),
        "PoolConfig.queue_capacity: must be positive, got 0",
        id="PoolConfig.queue_capacity",
    ),
    pytest.param(
        lambda: _pool(policy="nope"),
        "PoolConfig.policy: must be one of ('static', 'dynamic', 'continuous'), "
        "got 'nope'",
        id="PoolConfig.policy",
    ),
    pytest.param(
        lambda: _pool(queue_discipline="lifo"),
        "PoolConfig.queue_discipline: must be one of ('fifo', 'deadline'), "
        "got 'lifo'",
        id="PoolConfig.queue_discipline",
    ),
    pytest.param(
        lambda: _pool(workload="nope"),
        "PoolConfig.workload: must be one of ('alphagozero', 'alexnet', "
        "'googlenet', 'resnet50', 'ncf', 'sentimental_seqCNN', "
        "'sentimental_seqLSTM', 'transformer'), got 'nope'",
        id="PoolConfig.workload",
    ),
    pytest.param(
        lambda: _request(req_id=-1),
        "Request.req_id: must be >= 0, got -1",
        id="Request.req_id",
    ),
    pytest.param(
        lambda: _request(workload=""),
        "Request.workload: must be a non-empty name",
        id="Request.workload",
    ),
    *(
        pytest.param(
            lambda arrival_s=arrival_s: _request(arrival_s=arrival_s),
            f"Request.arrival_s: must be finite and >= 0, got {arrival_s}",
            id=f"Request.arrival_s-{arrival_s}",
        )
        for arrival_s in (-0.5, math.nan, math.inf)
    ),
    *(
        pytest.param(
            lambda deadline_s=deadline_s: _request(deadline_s=deadline_s),
            f"Request.deadline_s: must be finite and >= arrival_s 1.0, "
            f"got {deadline_s}",
            id=f"Request.deadline_s-{deadline_s}",
        )
        for deadline_s in (0.5, math.nan, math.inf)
    ),
    pytest.param(
        lambda: _array(rows=0),
        "ArrayConfig.rows: must be positive, got 0",
        id="ArrayConfig.rows",
    ),
    pytest.param(
        lambda: _array(cols=-3),
        "ArrayConfig.cols: must be positive, got -3",
        id="ArrayConfig.cols",
    ),
    pytest.param(
        lambda: _array(scheme="UR"),
        "ArrayConfig.scheme: must be a ComputeScheme, got 'UR'",
        id="ArrayConfig.scheme",
    ),
    pytest.param(
        lambda: _array(bits=1),
        "ArrayConfig.bits: must be >= 2, got 1",
        id="ArrayConfig.bits",
    ),
    pytest.param(
        lambda: _array(scheme=ComputeScheme.USYSTOLIC_RATE, ebt=9),
        "ArrayConfig.ebt: must be in [2, 8], got 9",
        id="ArrayConfig.ebt-range",
    ),
    pytest.param(
        lambda: _array(scheme=ComputeScheme.USYSTOLIC_TEMPORAL, ebt=6),
        "ArrayConfig.ebt: scheme UT does not support early termination",
        id="ArrayConfig.ebt-scheme",
    ),
    pytest.param(
        lambda: _array(act_frac=0.5),
        "ArrayConfig.act_frac: scheme BP has no value-dependent latency",
        id="ArrayConfig.act_frac-scheme",
    ),
    pytest.param(
        lambda: _array(scheme=ComputeScheme.TUBGEMM_TEMPORAL, act_frac=1.5),
        "ArrayConfig.act_frac: must be in [0, 1], got 1.5",
        id="ArrayConfig.act_frac-range",
    ),
    pytest.param(
        lambda: _memory(sram_bytes_per_variable=0),
        "MemoryConfig.sram_bytes_per_variable: must be positive, got 0",
        id="MemoryConfig.sram_bytes_per_variable",
    ),
]


@pytest.mark.parametrize("make,message", CONTRACT_MESSAGES)
def test_contract_message_is_exact(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


#: Integer sizes must be plain ints: a float, bool, string or ``None``
#: fails at the boundary with the field named, not silently or as an
#: anonymous ``TypeError`` deep inside the arithmetic.
NON_INT_SIZES = [
    (lambda: _array(rows=4.5), "ArrayConfig.rows: must be an int, got 4.5"),
    (lambda: _array(rows=True), "ArrayConfig.rows: must be an int, got True"),
    (lambda: _array(rows=None), "ArrayConfig.rows: must be an int, got None"),
    (lambda: _array(rows="4"), "ArrayConfig.rows: must be an int, got '4'"),
    (lambda: _array(cols=4.0), "ArrayConfig.cols: must be an int, got 4.0"),
    (lambda: _array(bits=8.0), "ArrayConfig.bits: must be an int, got 8.0"),
    (lambda: _array(bits=None), "ArrayConfig.bits: must be an int, got None"),
    (
        lambda: _array(scheme=ComputeScheme.USYSTOLIC_RATE, ebt=5.5),
        "ArrayConfig.ebt: must be an int, got 5.5",
    ),
    (
        lambda: _array(scheme=ComputeScheme.USYSTOLIC_RATE, ebt=True),
        "ArrayConfig.ebt: must be an int, got True",
    ),
    *(
        (
            lambda dim=dim: _gemm(**{dim: 2.5}),
            f"GemmParams.{dim}: must be an int, got 2.5",
        )
        for dim in GEMM_DIMS
    ),
    (lambda: _gemm(oc=True), "GemmParams.oc: must be an int, got True"),
    (
        lambda: _memory(sram_bytes_per_variable=1024.5),
        "MemoryConfig.sram_bytes_per_variable: must be an int, got 1024.5",
    ),
]


@pytest.mark.parametrize("make,message", NON_INT_SIZES)
def test_non_integer_size_rejected_by_name(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message
