"""Rule registry: declarative metadata plus path scoping per rule.

Every rule registers itself with an id, a human name, a rationale tied to
the engine/paper invariant it protects, and the repo-relative path
patterns it applies to.  Patterns use :func:`fnmatch.fnmatch`, where
``*`` crosses directory separators — ``src/repro/*.py`` therefore means
"every Python file under src/repro", which is exactly the scoping the
rules need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .analyzer import ModuleContext

CheckFn = Callable[["ModuleContext"], List[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """One static-analysis rule and its scope."""

    id: str
    name: str
    summary: str
    rationale: str
    paths: Tuple[str, ...]
    check: CheckFn
    excludes: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """True iff the rule covers the (posix, repo-relative) path."""
        if not any(fnmatch(relpath, pattern) for pattern in self.paths):
            return False
        return not any(fnmatch(relpath, pattern) for pattern in self.excludes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "summary": self.summary,
            "paths": list(self.paths),
            "excludes": list(self.excludes),
        }


_REGISTRY: Dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (idempotent re-registration is an error)."""
    if rule.id in _REGISTRY:
        raise ValueError(f"rule {rule.id} registered twice")
    _REGISTRY[rule.id] = rule
    return rule


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id (imports the rule modules)."""
    from . import rules as _rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    from . import rules as _rules  # noqa: F401  (registration side effect)

    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def select_rules(ids: Optional[List[str]]) -> List[Rule]:
    """The rules named by ``ids`` (all rules when ``None``)."""
    if ids is None:
        return all_rules()
    return [get_rule(rule_id) for rule_id in ids]
