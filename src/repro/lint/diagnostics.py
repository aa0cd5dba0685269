"""Diagnostic records emitted by the repro-lint rules.

A :class:`Diagnostic` pins one rule violation to a file position.  The
analyzer sorts diagnostics into a stable (path, line, column, rule) order
so reports are reproducible and diffable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: rule id used for files the analyzer could not parse at all
PARSE_ERROR_RULE = "E001"

#: analysis-engine version: bumped whenever the rule set or a rule's
#: semantics change so that CI artifacts are no longer comparable
#: ("3.0" = the four AST rules, without the dataflow engine)
LINT_ENGINE_VERSION = "3.0"


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at one source position."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the shape the ``--json`` report embeds)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }

    def render(self) -> str:
        """Human-readable one-liner: ``path:line:col RULE message``."""
        return f"{self.path}:{self.line}:{self.column} {self.rule} {self.message}"
