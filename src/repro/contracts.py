"""Runtime-contract helpers backing the config ``validate()`` methods.

The static side of the config contract (``CFG001``-``CFG003``) demands a
``validate()`` on every ``*Config``/``*Params`` dataclass; this module is
the runtime side — small predicates that raise ``ValueError`` with
field-specific messages so a nonsensical configuration (0-row array,
negative SRAM banks, non-power-of-two bitstream length) fails loudly at
construction instead of silently corrupting a sweep.

Every check runs on every call, but its message is built only when it
fails: a call site tests its condition itself and calls :func:`fail` in
the branch that raises, and each ``require_*`` helper does the same, so
a passing check costs its comparison and nothing more.  Each test is
written so that NaN fails it (``not value > 0``, never ``value <= 0``).

The CLIs' float flags share two argparse types, :func:`positive_float`
and :func:`non_negative_float`: a value that is not finite or breaks the
sign rule is a usage error (exit 2) naming the flag.

Kept free of imports from the rest of ``repro`` so config modules at any
layer can depend on it without cycles.
"""

from __future__ import annotations

import argparse
import math
from typing import NoReturn

__all__ = [
    "is_power_of_two",
    "fail",
    "require_int",
    "require_finite",
    "require_positive",
    "require_positive_int",
    "require_power_of_two",
    "require_in_range",
    "positive_float",
    "non_negative_float",
]


def is_power_of_two(value: int) -> bool:
    """True for 1, 2, 4, 8, ...; False for zero, negatives and non-ints.

    A ``bool`` is not an int here: ``True`` is no bank count.
    """
    return type(value) is int and value > 0 and (value & (value - 1)) == 0


def fail(owner: str, field: str, message: str) -> NoReturn:
    """Raise the contract ``ValueError`` naming ``owner.field``."""
    raise ValueError(f"{owner}.{field}: {message}")


def require_int(owner: str, field: str, value: object) -> None:
    """``value`` must be a plain ``int``: not a ``bool``, float or string.

    Call it in the failing branch of a value test that also tests the
    type, so a passing check pays for one ``type`` comparison.
    """
    if type(value) is not int:
        fail(owner, field, f"must be an int, got {value!r}")


def require_finite(owner: str, **fields: float) -> None:
    """Every named field must be a finite number: NaN and both infinities fail."""
    for name, value in fields.items():
        if not -math.inf < value < math.inf:
            fail(owner, name, f"must be finite, got {value!r}")


def require_positive(owner: str, **fields: float) -> None:
    """Every named field must be strictly positive."""
    for name, value in fields.items():
        if not value > 0:
            fail(owner, name, f"must be positive, got {value!r}")


def require_positive_int(owner: str, **fields: int) -> None:
    """Every named field must be a plain ``int`` above zero."""
    for name, value in fields.items():
        if type(value) is not int or value <= 0:
            require_int(owner, name, value)
            fail(owner, name, f"must be positive, got {value!r}")


def require_power_of_two(owner: str, **fields: int) -> None:
    """Every named field must be a power of two."""
    for name, value in fields.items():
        if not is_power_of_two(value):
            fail(owner, name, f"must be a power of two, got {value!r}")


def require_in_range(
    owner: str, field: str, value: float, lo: float, hi: float
) -> None:
    """``lo <= value <= hi`` or ``ValueError``."""
    if not lo <= value <= hi:
        fail(owner, field, f"must be in [{lo}, {hi}], got {value!r}")


def positive_float(text: str) -> float:
    """The argparse type of a float flag that must be finite and above 0."""
    return _finite_float(text, strict=True)


def non_negative_float(text: str) -> float:
    """The argparse type of a float flag that must be finite and at least 0."""
    return _finite_float(text, strict=False)


def _finite_float(text: str, strict: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not ((value > 0 if strict else value >= 0) and value < math.inf):
        bound = "> 0" if strict else ">= 0"
        raise argparse.ArgumentTypeError(
            f"must be a finite number {bound}, got {text!r}"
        )
    return value
