"""The :class:`Finding` record emitted by every checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is stored with forward slashes relative to the lint invocation's
    working directory so findings are portable across machines and
    operating systems.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON shape — covered by a schema test, change with care."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
