"""Pool specs: validation contracts, presets, and serve-object builders."""

import dataclasses

import pytest

from repro.fleet.pools import (
    PoolConfig,
    build_cost_model,
    build_executor,
    pool_presets,
)
from repro.schemes import ComputeScheme
from repro.workloads import workload_layers
from repro.workloads.presets import CLOUD, EDGE


def test_presets_cover_the_capacity_design_space():
    presets = pool_presets()
    schemes = {p.scheme for p in presets.values()}
    assert schemes == {
        ComputeScheme.BINARY_PARALLEL,
        ComputeScheme.USYSTOLIC_RATE,
        ComputeScheme.USYSTOLIC_TEMPORAL,
        ComputeScheme.TUBGEMM_TEMPORAL,
        ComputeScheme.DIP_PARALLEL,
    }
    assert {p.platform for p in presets.values()} == {"edge", "cloud"}
    # Every preset validates and is named after its key.
    for name, preset in presets.items():
        assert preset.name == name
        assert preset.validate() is preset
    # Fresh objects per call: mutating one call's dict is safe.
    assert pool_presets() is not pool_presets()


def test_rate_presets_carry_the_paper_ebt():
    presets = pool_presets()
    assert presets["hub-rate-edge"].ebt == 6
    assert presets["hub-temporal-edge"].ebt is None
    # The EBT reaches the pool's array: 2**(6-1) + 1 cycles per MAC.
    assert build_cost_model(presets["hub-rate-edge"]).array.mac_cycles == 33


@pytest.mark.parametrize(
    "scheme",
    [s for s in ComputeScheme if not s.supports_early_termination],
    ids=lambda s: s.value,
)
def test_ebt_is_rejected_on_a_scheme_without_early_termination(scheme):
    # Any EBT, the full bitwidth included: the pool's array takes none.
    for ebt in (6, 8):
        with pytest.raises(ValueError, match=r"^PoolConfig\.ebt: "):
            PoolConfig(name="x", scheme=scheme, ebt=ebt)


def test_zoo_presets_carry_their_knobs():
    presets = pool_presets()
    assert presets["tubgemm-edge"].act_frac == 0.5
    assert presets["dip-edge"].act_frac is None
    # act_frac is rejected on value-independent schemes.
    with pytest.raises(ValueError, match="act_frac"):
        dataclasses.replace(presets["binary-edge"], act_frac=0.5)
    # tubGEMM at half magnitude is faster per request than worst-case
    # temporal coding, slower than single-cycle binary.
    tub = build_cost_model(presets["tubgemm-edge"])
    temporal = build_cost_model(presets["hub-temporal-edge"])
    binary = build_cost_model(presets["binary-edge"])
    assert tub.batch_cost(1).runtime_s < temporal.batch_cost(1).runtime_s
    assert tub.batch_cost(1).runtime_s > binary.batch_cost(1).runtime_s


@pytest.mark.parametrize(
    "field, value",
    [
        ("name", ""),
        ("platform", "laptop"),
        ("instances", 0),
        ("min_instances", 0),
        ("min_instances", 9),  # > max_instances (8)
        ("instances", 100),  # > max_instances
        ("max_wait_s", -1.0),
    ],
)
def test_impossible_pool_configs_raise(field, value):
    base = pool_presets()["binary-edge"]
    with pytest.raises(ValueError):
        dataclasses.replace(base, **{field: value})


def test_sized_widens_the_bounds_to_fit():
    pool = pool_presets()["binary-edge"]
    grown = pool.sized(32)
    assert grown.instances == 32
    assert grown.max_instances == 32
    shrunk = pool.sized(1)
    assert shrunk.instances == 1
    assert shrunk.min_instances == 1
    # Both still satisfy the validation contract.
    grown.validate()
    shrunk.validate()


def test_platform_preset_maps_names_to_platforms():
    assert pool_presets()["binary-edge"].platform_preset() is EDGE
    assert pool_presets()["binary-cloud"].platform_preset() is CLOUD


def test_workload_layers_known_and_unknown():
    assert len(workload_layers("alexnet")) > 0
    with pytest.raises(ValueError, match="unknown workload") as raised:
        workload_layers("nonexistent-net")
    # The choices list each workload once; AlexNet is a suite member too.
    assert str(raised.value).count("'alexnet'") == 1


def test_build_cost_model_reflects_the_scheme():
    presets = pool_presets()
    binary = build_cost_model(presets["binary-edge"])
    rate = build_cost_model(presets["hub-rate-edge"])
    # Unary rate coding is slower per request on the edge array.
    assert rate.batch_cost(1).runtime_s > binary.batch_cost(1).runtime_s


def test_build_executor_registers_the_workload():
    pool = pool_presets()["binary-edge"]
    model = build_cost_model(pool)
    executor = build_executor(pool, model, slo_s=0.5)
    assert executor.slo_s == 0.5
    assert (executor.workload, executor.model) == (pool.workload, model)
    # A fresh executor is idle and routable-shaped.
    assert executor.backlog == 0
    assert not executor.halted
