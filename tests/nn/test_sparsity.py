"""The activation-sparsity planning model feeding tubGEMM's latency law."""

import pytest

from repro.nn import act_frac_for_sparsity


def test_planning_model_matches_its_endpoints():
    assert act_frac_for_sparsity(0.0) == 0.5
    assert act_frac_for_sparsity(1.0) == 0.0
    assert act_frac_for_sparsity(0.5, dense_mean_frac=0.8) == pytest.approx(0.4)
    with pytest.raises(ValueError, match="sparsity"):
        act_frac_for_sparsity(-0.1)
    with pytest.raises(ValueError, match="dense_mean_frac"):
        act_frac_for_sparsity(0.5, dense_mean_frac=0.0)
