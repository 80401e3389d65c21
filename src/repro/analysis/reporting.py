"""Text and JSON renderers for analysis findings.

The text form is the human-facing ``path:line:col CODE message`` listing
with a per-group summary; the JSON form is a stable machine-readable
document versioned by ``schema_version`` (see ``docs/analysis.md`` for
the pinned shape) that round-trips through
:meth:`repro.analysis.findings.Finding.from_dict`.
"""

from __future__ import annotations

import json
from collections import Counter

from .findings import Finding

__all__ = [
    "render_text",
    "render_json",
    "JSON_SCHEMA_VERSION",
]

#: Bumped whenever the JSON document shape changes.  v2 added
#: ``schema_version``, ``summary`` and the ``baseline`` block; v3 added
#: the ``profile`` block (measured-hotness ranking from ``--profile``);
#: v4 added the optional per-finding ``data`` payload carrying the
#: inferred intervals/shapes behind ``SHAPE``/``BND`` findings; v5 removed
#: the ``profile`` block and the ``data`` payload with the checkers that
#: produced them; v6 removed the ``baseline`` block with the baseline
#: ratchet.
JSON_SCHEMA_VERSION = 6


def render_text(findings: list[Finding], files_scanned: int) -> str:
    """Human-readable report: sorted findings plus a summary line."""
    lines = [f.render() for f in sorted(findings)]
    if findings:
        by_group = Counter(f.group for f in findings)
        breakdown = ", ".join(
            f"{count} {group}" for group, count in sorted(by_group.items())
        )
        lines.append(
            f"\n{len(findings)} finding(s) in {files_scanned} file(s): "
            f"{breakdown}"
        )
    else:
        lines.append(f"clean: 0 findings in {files_scanned} file(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding], files_scanned: int) -> str:
    """Machine-readable report; parse with ``json.loads``."""
    by_group = Counter(f.group for f in sorted(findings))
    doc = {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_scanned": files_scanned,
        "findings": [f.to_dict() for f in sorted(findings)],
        "summary": {
            "total": len(findings),
            "by_group": dict(sorted(by_group.items())),
        },
    }
    return json.dumps(doc, indent=2)
