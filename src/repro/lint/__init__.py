"""repro-lint: dependency-free static analysis for the CFL-Match repo.

Eight rules encode invariants the test suite cannot see.  Six are
intraprocedural AST checks — counter/schema lockstep (R001), spawn-safe
pool submissions (R002), frozen shared plans (R003), deterministic
candidate iteration (R004), a single clock seam (R005) and no swallowed
boundary errors (R006).  Two run on the interprocedural dataflow
engine (:mod:`repro.lint.dataflow`): shared-memory segment lifecycle
(R007) and DynamicGraph mutation-version discipline (R009).  Run via ``cfl-match lint`` or programmatically
through :func:`lint_paths`.
"""

from .analyzer import LintReport, ModuleContext, find_root, lint_paths, lint_source
from .diagnostics import LINT_ENGINE_VERSION, PARSE_ERROR_RULE, Diagnostic
from .facts import ProjectFacts
from .registry import Rule, all_rules, get_rule, select_rules

__all__ = [
    "Diagnostic",
    "LINT_ENGINE_VERSION",
    "LintReport",
    "ModuleContext",
    "PARSE_ERROR_RULE",
    "ProjectFacts",
    "Rule",
    "all_rules",
    "find_root",
    "get_rule",
    "lint_paths",
    "lint_source",
    "select_rules",
]
