"""Fixture: known config-contract violations (never imported).

Line numbers are asserted by ``tests/analysis/test_checkers.py``.
"""

import dataclasses

__all__ = ["BadConfig", "NegativeDefaults", "GoodConfig", "UnwiredConfig"]


@dataclasses.dataclass
class BadConfig:  # line 12: CFG001 (no validate) and CFG002 (not frozen)
    """A mutable config dataclass with no validation contract."""

    rows: int
    cols: int


@dataclasses.dataclass(frozen=True)
class NegativeDefaults:
    """CFG004 on line 24: negative default on a unit-suffixed field."""

    capacity_bytes: int = 1024
    leakage_energy_pj: float = -1.0  # line 24


@dataclasses.dataclass(frozen=True)
class GoodConfig:
    """A compliant config: frozen, validate(), wired into __post_init__."""

    rows: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "GoodConfig":
        """Raise ValueError on impossible fields."""
        if self.rows < 1:
            raise ValueError(f"GoodConfig.rows: must be positive, got {self.rows}")
        return self


@dataclasses.dataclass(frozen=True)
class UnwiredConfig:  # line 44: CFG003 (validate() never called)
    """Frozen with a validate(), but no __post_init__ calls it."""

    rows: int = 1

    def validate(self) -> "UnwiredConfig":
        """Raise ValueError on impossible fields."""
        if self.rows < 1:
            raise ValueError(f"UnwiredConfig.rows: must be >= 1, got {self.rows}")
        return self
