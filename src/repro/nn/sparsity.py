"""Activation sparsity as tubGEMM's latency knob.

tubGEMM encodes each activation as a temporal stream exactly as long as
its magnitude, so the scheme's *expected* MAC latency is set by the mean
activation magnitude rather than the worst case — which post-ReLU
activations keep low and magnitude pruning lowers further.
:func:`act_frac_for_sparsity` maps a target sparsity to the ``act_frac``
the latency law consumes, so sweeps can dial sparsity up and watch
tubGEMM's runtime fall while every other scheme stays put.
"""

from __future__ import annotations

__all__ = ["act_frac_for_sparsity"]


#: The unpruned tensor's mean magnitude fraction (uniform operands).
_DENSE_MEAN_FRAC = 0.5


def act_frac_for_sparsity(sparsity: float) -> float:
    """Map a pruning level to tubGEMM's expected-magnitude knob.

    First-order model: pruning removes the smallest magnitudes, but at
    the planning stage the surviving mass is approximated as uniform, so
    the expected stream length scales with the surviving density::

        act_frac = (1 - sparsity) * _DENSE_MEAN_FRAC
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    return (1.0 - sparsity) * _DENSE_MEAN_FRAC
