"""Cross-file project facts the rules validate against.

The counter-discipline rule (R001) is a *cross-artifact* check: a counter
bumped anywhere in ``src/repro/`` must exist both as a declared
:class:`~repro.core.stats.SearchStats` dataclass field and as a required
counter in ``docs/profile.schema.json``.  Rather than importing the live
modules (which would make the linter depend on the code it lints),
:class:`ProjectFacts` parses both artifacts statically — the dataclass via
:mod:`ast`, the schema via :mod:`json` — so the gate works on any tree
state, including ones that do not import.

Two more artifact pairs ride on the same machinery: the ``PHASE_NAMES``
tuple in ``stats.py`` against the schema's ``phase_times_s.required``
list (both directions — a phase timed but not validated is as wrong as
one validated but never timed), and the ``cfl-match lint`` CLI flags
against the flags ``docs/static-analysis.md`` documents.  These facts
are optional (``None`` when the source artifact is missing) so synthetic
test fact sets keep constructing with the two original registries only.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import FrozenSet, Optional

#: repo-root-relative location of the SearchStats declaration
STATS_RELPATH = "src/repro/core/stats.py"
#: repo-root-relative location of the profile schema
SCHEMA_RELPATH = "docs/profile.schema.json"
#: repo-root-relative location of the CLI (lint flag registry)
CLI_RELPATH = "src/repro/cli.py"
#: repo-root-relative location of the lint documentation
LINT_DOC_RELPATH = "docs/static-analysis.md"

#: a flag is "documented" wherever it is spelled: `--changed`,
#: `--since REF`, a whole invocation `cfl-match lint --json out.json`.
#: (Matching inside backtick spans only would be cleaner, but fenced code
#: blocks make backtick pairing ambiguous; any spelled flag counts.)
_DOC_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


class FactError(ValueError):
    """Raised when a fact source exists but cannot be interpreted."""


def parse_stats_fields(source: str, class_name: str = "SearchStats") -> FrozenSet[str]:
    """Field names declared on the ``SearchStats`` dataclass.

    Only annotated class-level assignments count (``nodes: int = 0``);
    properties and methods are not counters.
    """
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            }
            return frozenset(fields)
    raise FactError(f"class {class_name!r} not found in stats source")


def parse_schema_counters(text: str) -> FrozenSet[str]:
    """Required counter names of the profile schema's ``counters`` object."""
    try:
        schema = json.loads(text)
        required = schema["properties"]["counters"]["required"]
    except (ValueError, KeyError, TypeError) as exc:
        raise FactError(f"profile schema has no counters.required list: {exc}")
    if not isinstance(required, list) or not all(
        isinstance(name, str) for name in required
    ):
        raise FactError("counters.required must be a list of strings")
    return frozenset(required)


def parse_phase_names(source: str) -> Optional[FrozenSet[str]]:
    """The ``PHASE_NAMES`` tuple of string literals, ``None`` if absent."""
    tree = ast.parse(source)
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "PHASE_NAMES"
            for target in node.targets
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)) and all(
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            for elt in node.value.elts
        ):
            return frozenset(elt.value for elt in node.value.elts)  # type: ignore[union-attr]
        raise FactError("PHASE_NAMES must be a tuple of string literals")
    return None


def parse_schema_phases(text: str) -> Optional[FrozenSet[str]]:
    """Required phase names of the schema's ``phase_times_s`` object."""
    try:
        schema = json.loads(text)
        required = schema["properties"]["phase_times_s"]["required"]
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(required, list) or not all(
        isinstance(name, str) for name in required
    ):
        raise FactError("phase_times_s.required must be a list of strings")
    return frozenset(required)


def parse_lint_cli_flags(source: str) -> Optional[FrozenSet[str]]:
    """Option strings of the ``lint`` subparser in the CLI source.

    Finds the variable bound by ``sub.add_parser("lint", ...)`` and
    collects every ``--flag`` literal passed to its ``add_argument``
    calls; ``None`` when no lint subparser exists.
    """
    tree = ast.parse(source)
    lint_vars = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "add_parser"
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value == "lint"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    lint_vars.add(target.id)
    if not lint_vars:
        return None
    flags = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in lint_vars
        ):
            continue
        for arg in node.args:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("--")
            ):
                flags.add(arg.value)
    return frozenset(flags)


def parse_documented_flags(text: str) -> FrozenSet[str]:
    """Every ``--flag`` the lint documentation spells out."""
    return frozenset(_DOC_FLAG.findall(text))


@dataclass(frozen=True)
class ProjectFacts:
    """The two counter registries plus where they were read from."""

    stats_fields: FrozenSet[str]
    schema_counters: FrozenSet[str]
    stats_path: str
    schema_path: str
    #: PHASE_NAMES tuple members (None: artifact missing / tuple absent)
    phase_names: Optional[FrozenSet[str]] = None
    #: schema phase_times_s.required members (None: schema lacks the block)
    schema_phases: Optional[FrozenSet[str]] = None
    #: --flags of the `cfl-match lint` subparser (None: CLI source absent)
    lint_cli_flags: Optional[FrozenSet[str]] = None
    #: --flags the lint documentation mentions (None: doc file absent)
    documented_lint_flags: Optional[FrozenSet[str]] = None

    @classmethod
    def from_paths(cls, stats_path: Path, schema_path: Path) -> "ProjectFacts":
        stats_source = stats_path.read_text()
        schema_text = schema_path.read_text()
        return cls(
            stats_fields=parse_stats_fields(stats_source),
            schema_counters=parse_schema_counters(schema_text),
            stats_path=str(stats_path),
            schema_path=str(schema_path),
            phase_names=parse_phase_names(stats_source),
            schema_phases=parse_schema_phases(schema_text),
        )

    @classmethod
    def load(cls, root: Path) -> Optional["ProjectFacts"]:
        """Facts for the repo at ``root``; ``None`` when the sources are
        absent (e.g. linting a standalone file tree in tests)."""
        stats_path = root / STATS_RELPATH
        schema_path = root / SCHEMA_RELPATH
        if not stats_path.is_file() or not schema_path.is_file():
            return None
        facts = cls.from_paths(stats_path, schema_path)
        cli_path = root / CLI_RELPATH
        doc_path = root / LINT_DOC_RELPATH
        if cli_path.is_file() and doc_path.is_file():
            facts = replace(
                facts,
                lint_cli_flags=parse_lint_cli_flags(cli_path.read_text()),
                documented_lint_flags=parse_documented_flags(doc_path.read_text()),
            )
        return facts
