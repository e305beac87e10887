"""The diagnostic data model shared by every analysis rule and reporter.

A :class:`Diagnostic` is one concrete problem found by one rule at one
location.  Diagnostics are plain immutable values with a total ordering
(rule id, then location, then message) so rendered output — and therefore
CI diffs over ``repro verify --format json`` — is deterministic regardless
of rule execution order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["Severity", "Location", "Diagnostic"]


class Severity(enum.IntEnum):
    """How bad a diagnostic is; comparable (``ERROR > WARNING > INFO``)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    ``kind`` names the analysed artifact class (``program``, ``layout``,
    ``config``), ``name`` the artifact instance (a program name, a config
    file), and ``detail`` the position inside it (a block label, a
    parameter name).  All three are plain strings so locations survive
    JSON round-trips and sort stably.
    """

    kind: str
    name: str
    detail: str = ""

    def sort_key(self) -> Tuple[str, str, str]:
        return (self.kind, self.name, self.detail)

    def to_dict(self) -> Dict[str, str]:
        return {"kind": self.kind, "name": self.name, "detail": self.detail}

    def __str__(self) -> str:
        base = f"{self.kind}:{self.name}"
        return f"{base}:{self.detail}" if self.detail else base


@dataclass(frozen=True)
class Diagnostic:
    """One problem found by one rule, ready for rendering or JSON export."""

    rule_id: str
    rule_name: str
    severity: Severity
    location: Location
    message: str
    suggestion: Optional[str] = None

    def sort_key(self) -> Tuple[str, Tuple[str, str, str], str]:
        """Stable output order: rule id, then location, then message."""
        return (self.rule_id, self.location.sort_key(), self.message)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "name": self.rule_name,
            "severity": str(self.severity),
            "location": self.location.to_dict(),
            "message": self.message,
            "suggestion": self.suggestion,
        }

    def render(self) -> str:
        """One human-readable line (plus an indented hint when present)."""
        line = f"{self.location}: {self.rule_id} {self.severity}: {self.message}"
        if self.suggestion:
            line += f"\n    hint: {self.suggestion}"
        return line
