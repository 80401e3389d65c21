"""Behavioural PE models: functionally-faithful MACs for every scheme.

Each PE model multiplies two N-bit signed integers and reports the product
*at the true integer product scale* so that array outputs are directly
comparable with an exact GEMM:

- :class:`ExactPe` computes the exact product at the scheme's declared
  latency: binary PEs (:class:`BinaryPe`) and the zoo's exact
  temporal/permuted schemes (tuGEMM, tubGEMM, DiP) all use it;
- uSystolic PEs run the bit-true HUB kernel (unipolar uMUL + binary
  accumulation) whose natural output is ``w*x / 2**(N-1)`` and rescale it;
- the uGEMM-H PE runs the bipolar uMUL over ``2**N`` cycles.

``mac_cycles`` on every model reports the latency the cycle simulator uses,
keeping the functional and performance models in one place.
:func:`make_pe` looks each scheme's factory up in :data:`PE_FACTORIES`, a
table keyed by :class:`~repro.schemes.ComputeScheme` member, instead of
an enum if-chain.
"""

from __future__ import annotations

import abc
import types

import numpy as np

from ..schemes import ComputeScheme, scheme_mac_cycles
from ..unary.bitstream import Coding, quantize_bipolar
from ..unary.mac import HubMac
from ..unary.multiply import umul_bipolar
from ..unary.vectorized import hub_mac_tile, hub_product_counts

__all__ = [
    "PeModel",
    "BinaryPe",
    "UsystolicPe",
    "UgemmHPe",
    "ExactPe",
    "make_pe",
]


class PeModel(abc.ABC):
    """A processing element: one signed multiply per ``mac_cycles`` cycles."""

    def __init__(self, bits: int, mac_cycles: int) -> None:
        self.bits = bits
        self.mac_cycles = mac_cycles

    @abc.abstractmethod
    def multiply(self, weight: int, ifm: int) -> float:
        """Product estimate of two N-bit signed values, at integer scale."""

    def mac(self, weight: int, ifm: int, partial: float) -> float:
        """Multiply then binary-accumulate (the accumulation is exact)."""
        return partial + self.multiply(weight, ifm)

    def fold_products(
        self, weights: np.ndarray, vectors: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Per-PE product planes of one fold: ``(V, R, C)`` plus a scale.

        ``products[v, r, c] * scale`` is exactly :meth:`multiply` of
        ``(weights[r, c], vectors[v, r])`` — the value PE(r, c) lands into
        the column partial sum when its MAC for vector ``v`` completes.
        Only the stepped array's ``"cycle"`` stepper, which lands each
        product on its own cycle, needs the un-summed plane.  The base
        implementation walks the scalar PE model element by element (the
        truth source for exotic schemes); subclasses override it with
        whole-plane kernels proven bit-identical.
        """
        weights = np.asarray(weights, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.int64)
        nvec, rows = vectors.shape
        cols = weights.shape[1]
        out = np.zeros((nvec, rows, cols), dtype=np.float64)
        for v in range(nvec):
            for r in range(rows):
                x = int(vectors[v, r])
                for c in range(cols):
                    out[v, r, c] = self.multiply(int(weights[r, c]), x)
        return out, 1.0

    def tile_psums(self, w_tile: np.ndarray, x_tile: np.ndarray) -> np.ndarray:
        """Column partial sums ``(V, C)`` of ``x_tile @ w_tile``, at integer scale.

        :meth:`repro.core.array.UsystolicArray.execute` and the stepped
        array's ``"wave"`` stepper each call it once per layer, on the
        whole ``(V, K) x (K, OC)`` GEMM.  Every model's product, HUB and
        uGEMM estimates included, is an integer of magnitude at most
        ``4**(bits-1)``, so under the engines' layer bound
        (:func:`repro.core.array.check_operands`) every float64 partial
        sum is exact and the psums do not depend on how the K rows are
        ordered or grouped into folds.  The base implementation
        runs the bit-level PE element by element — that simulation *is*
        the model for exotic schemes (uGEMM), so the scalar loop stays;
        subclasses override with whole-fold kernels proven bit-identical.
        """
        v, k = x_tile.shape
        out = np.zeros((v, w_tile.shape[1]), dtype=np.float64)
        for vec in range(v):
            for r in range(k):
                x = int(x_tile[vec, r])
                for c in range(w_tile.shape[1]):
                    out[vec, c] += self.multiply(int(w_tile[r, c]), x)
        return out


class ExactPe(PeModel):
    """Exact integer MAC at a scheme-declared latency.

    Binary PEs (:class:`BinaryPe`) and the zoo's tuGEMM, tubGEMM and DiP
    use it.  The zoo's temporal and permuted-dataflow schemes compute the
    exact 2N-bit product — their novelty is *when* it finishes
    (counter-driven streams, magnitude-proportional pulses, skew-free
    launches), which the schedule and PE-cost models capture, not the
    arithmetic.
    """

    def multiply(self, weight: int, ifm: int) -> float:
        return float(weight * ifm)

    def fold_products(
        self, weights: np.ndarray, vectors: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Exact planes as one broadcast outer product, scale 1."""
        return (
            np.asarray(vectors, dtype=np.int64)[:, :, None]
            * np.asarray(weights, dtype=np.int64)[None, :, :]
        ), 1.0

    def tile_psums(self, w_tile: np.ndarray, x_tile: np.ndarray) -> np.ndarray:
        """Exact fold: one float64 matmul at integer scale.

        Exact while every partial sum stays within ``2**53``, which the
        engines' layer bound guarantees
        (:func:`repro.core.array.check_operands`).  numpy's int64 matmul
        is exact too, but it does not use BLAS and is over 10x slower.
        """
        return x_tile.astype(np.float64) @ w_tile.astype(np.float64)


class BinaryPe(ExactPe):
    """Exact binary MAC — both the parallel and serial variants.

    Bit-serial differs from bit-parallel only in latency (Section IV-C2);
    both produce the exact 2N-bit product.
    """

    def __init__(self, bits: int, serial: bool = False) -> None:
        scheme = (
            ComputeScheme.BINARY_SERIAL if serial else ComputeScheme.BINARY_PARALLEL
        )
        super().__init__(bits, scheme_mac_cycles(scheme, bits))


class UsystolicPe(PeModel):
    """uSystolic PE: bit-true HUB MAC, rescaled to integer product scale.

    The kernel's N-bit-resolution output ``~w*x / 2**(N-1)`` is multiplied
    back by ``2**(N-1)``; the quantisation this bakes in *is* the
    architecture's accuracy story (Figure 9).
    """

    def __init__(
        self, bits: int, ebt: int | None = None, coding: Coding = Coding.RATE
    ) -> None:
        self._mac = HubMac(bits, ebt=ebt, coding=coding)
        super().__init__(bits, self._mac.cycles)
        self._scale = float(1 << (bits - 1))
        self._cache: dict[tuple[int, int], float] = {}

    @property
    def ebt(self) -> int:
        return self._mac.ebt

    @property
    def coding(self) -> Coding:
        return self._mac.coding

    def multiply(self, weight: int, ifm: int) -> float:
        key = (weight, ifm)
        if key not in self._cache:
            # The kernel is deterministic (Sobol + counter), so identical
            # operand pairs always produce identical counts; memoising makes
            # whole-GEMM bit-true runs tractable.
            self._cache[key] = self._mac.multiply(weight, ifm).product * self._scale
        return self._cache[key]

    def fold_products(
        self, weights: np.ndarray, vectors: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """HUB planes via the count table (:func:`hub_product_counts`)."""
        return hub_product_counts(
            weights,
            vectors,
            self.bits,
            ebt=self._mac.ebt,
            coding=self._mac.coding,
        )

    def tile_psums(self, w_tile: np.ndarray, x_tile: np.ndarray) -> np.ndarray:
        """The whole GEMM through the count-table kernel
        (:func:`hub_mac_tile`); byte-identical to the per-element HubMac
        chain (see :mod:`repro.unary.vectorized`)."""
        return hub_mac_tile(
            w_tile,
            x_tile,
            self.bits,
            ebt=self._mac.ebt,
            coding=self._mac.coding,
        )


class UgemmHPe(PeModel):
    """uGEMM-H PE: bipolar uMUL on signed data over ``2**ebt`` cycles."""

    def __init__(self, bits: int, ebt: int | None = None) -> None:
        if ebt is None:
            ebt = bits
        super().__init__(bits, scheme_mac_cycles(ComputeScheme.UGEMM_RATE, bits, ebt))
        self.ebt = ebt
        self._cache: dict[tuple[int, int], float] = {}

    def multiply(self, weight: int, ifm: int) -> float:
        key = (weight, ifm)
        if key not in self._cache:
            limit = float(1 << (self.bits - 1))
            res = umul_bipolar(
                quantize_bipolar(weight / limit, self.ebt),
                quantize_bipolar(ifm / limit, self.ebt),
                self.ebt,
            )
            self._cache[key] = res.value * limit * limit
        return self._cache[key]


def _make_binary_parallel(bits, ebt, act_frac):
    return BinaryPe(bits, serial=False)


def _make_binary_serial(bits, ebt, act_frac):
    return BinaryPe(bits, serial=True)


def _make_usystolic_rate(bits, ebt, act_frac):
    return UsystolicPe(bits, ebt=ebt, coding=Coding.RATE)


def _make_usystolic_temporal(bits, ebt, act_frac):
    return UsystolicPe(bits, coding=Coding.TEMPORAL)


def _make_ugemm(bits, ebt, act_frac):
    return UgemmHPe(bits, ebt=ebt)


def _make_exact(scheme):
    def factory(bits, ebt, act_frac):
        return ExactPe(bits, scheme_mac_cycles(scheme, bits, ebt, act_frac))

    return factory


#: Functional-PE factory of every scheme, ``(bits, ebt, act_frac) ->
#: PeModel``.  Frozen (MappingProxyType): pool workers re-import it.
PE_FACTORIES = types.MappingProxyType(
    {
        ComputeScheme.BINARY_PARALLEL: _make_binary_parallel,
        ComputeScheme.BINARY_SERIAL: _make_binary_serial,
        ComputeScheme.UGEMM_RATE: _make_ugemm,
        ComputeScheme.USYSTOLIC_RATE: _make_usystolic_rate,
        ComputeScheme.USYSTOLIC_TEMPORAL: _make_usystolic_temporal,
        ComputeScheme.TUGEMM_TEMPORAL: _make_exact(ComputeScheme.TUGEMM_TEMPORAL),
        ComputeScheme.TUBGEMM_TEMPORAL: _make_exact(ComputeScheme.TUBGEMM_TEMPORAL),
        ComputeScheme.DIP_PARALLEL: _make_exact(ComputeScheme.DIP_PARALLEL),
    }
)


def make_pe(
    scheme: ComputeScheme,
    bits: int,
    ebt: int | None = None,
    act_frac: float | None = None,
) -> PeModel:
    """The functional PE of ``scheme``: its :data:`PE_FACTORIES` entry.

    It rejects exactly what :func:`~repro.schemes.scheme_mac_cycles`
    rejects: ``ebt == bits`` suits every scheme, any other EBT only an
    early-terminating one, and ``act_frac`` only a value-dependent one
    (:class:`~repro.schemes.SchemeCapabilityError` otherwise).
    """
    scheme_mac_cycles(scheme, bits, ebt, act_frac)
    return PE_FACTORIES[scheme](bits, ebt, act_frac)
