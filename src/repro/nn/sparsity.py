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


def act_frac_for_sparsity(sparsity: float, dense_mean_frac: float = 0.5) -> float:
    """Map a pruning level to tubGEMM's expected-magnitude knob.

    First-order model: pruning removes the smallest magnitudes, but at
    the planning stage the surviving mass is approximated as uniform, so
    the expected stream length scales with the surviving density::

        act_frac = (1 - sparsity) * dense_mean_frac

    ``dense_mean_frac`` is the unpruned tensor's mean magnitude fraction
    (0.5 for uniformly distributed operands).
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    if not 0.0 < dense_mean_frac <= 1.0:
        raise ValueError(
            f"dense_mean_frac must be in (0, 1], got {dense_mean_frac}"
        )
    return (1.0 - sparsity) * dense_mean_frac
