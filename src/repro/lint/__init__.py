"""repro-lint: dependency-free static analysis for the CFL-Match repo.

Four AST rules encode invariants the test suite does not observe:
frozen shared plans (R003), deterministic candidate iteration (R004),
a single clock seam (R005) and no swallowed boundary errors (R006).
Each rule stays only while tier-1 misses a bug of the class it guards;
docs/static-analysis.md records the seeded bugs that decided it.  Run
via ``cfl-match lint`` or programmatically through :func:`lint_paths`.
"""

from .analyzer import LintReport, ModuleContext, find_root, lint_paths, lint_source
from .diagnostics import LINT_ENGINE_VERSION, PARSE_ERROR_RULE, Diagnostic
from .registry import Rule, all_rules, get_rule, select_rules

__all__ = [
    "Diagnostic",
    "LINT_ENGINE_VERSION",
    "LintReport",
    "ModuleContext",
    "PARSE_ERROR_RULE",
    "Rule",
    "all_rules",
    "find_root",
    "get_rule",
    "lint_paths",
    "lint_source",
    "select_rules",
]
