"""Finding records emitted by the static-analysis checkers.

A :class:`Finding` pins one defect to a file/line/column with a stable
code (``UNIT001``, ``DET002``, ...).  Codes group into checker families by
prefix — the same family names the suppression syntax uses
(``# repro-lint: ignore[unit]``).
"""

from __future__ import annotations

import dataclasses

__all__ = ["Finding", "GROUPS", "group_of"]

#: Code prefix -> suppression-group name.
GROUPS = {
    "UNIT": "unit",
    "DET": "det",
    "CFG": "cfg",
    "EXP": "exp",
    "VER": "ver",
    "ARCH": "arch",
    "FLOW": "flow",
    "DEAD": "dead",
    "CONC": "conc",
    "SUP": "sup",
    "SCHEME": "scheme",
}


def group_of(code: str) -> str:
    """The suppression-group name of a finding code (``UNIT001`` -> ``unit``)."""
    prefix = code.rstrip("0123456789")
    try:
        return GROUPS[prefix]
    except KeyError:
        raise ValueError(f"unknown finding code prefix {prefix!r}") from None


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One static-analysis defect, sortable by location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def group(self) -> str:
        """Checker family this finding belongs to (``unit``/``det``/...)."""
        return group_of(self.code)

    def to_dict(self) -> dict:
        """JSON-serializable representation (round-trips via :meth:`from_dict`)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "group": self.group,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output."""
        return cls(
            path=data["path"],
            line=data["line"],
            col=data["col"],
            code=data["code"],
            message=data["message"],
        )

    def render(self) -> str:
        """One-line ``path:line:col CODE message`` rendering."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"
