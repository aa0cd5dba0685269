"""The repro-lint driver: collect files, run rules, filter suppressions.

The analyzer is deliberately dependency-free (stdlib ``ast`` + ``tokenize``
only) so the gate runs anywhere the test suite runs — no pip install, no
import of the code under analysis.  Paths are matched repo-relative in
posix form, which keeps rule scoping identical across platforms.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .diagnostics import LINT_ENGINE_VERSION, PARSE_ERROR_RULE, Diagnostic
from .registry import Rule, select_rules
from .suppressions import SuppressionIndex

#: directories never descended into when expanding path arguments
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "build", "dist"})


@dataclass
class ModuleContext:
    """One parsed module as seen by the rules."""

    relpath: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex

    def diagnostic(self, rule_id: str, node: ast.AST, message: str) -> Diagnostic:
        """A diagnostic anchored at ``node``'s position in this module."""
        return Diagnostic(
            rule=rule_id,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class LintReport:
    """Everything one lint run produced."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    rules: List[Rule] = field(default_factory=list)
    root: str = ""
    #: wall-clock seconds spent inside each rule's checks, keyed by rule id
    rule_times_s: Dict[str, float] = field(default_factory=dict)
    engine_version: str = LINT_ENGINE_VERSION

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def to_dict(self) -> Dict[str, Any]:
        # version 3 drops version 2's summary_cache block; every other
        # key keeps its name and shape
        return {
            "version": 3,
            "engine_version": self.engine_version,
            "root": self.root,
            "files_checked": self.files_checked,
            "rules": [rule.to_dict() for rule in self.rules],
            "diagnostics": [diag.to_dict() for diag in self.diagnostics],
            "suppressed": [diag.to_dict() for diag in self.suppressed],
            "rule_times_s": {
                rule_id: round(seconds, 6)
                for rule_id, seconds in sorted(self.rule_times_s.items())
            },
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [diag.render() for diag in self.diagnostics]
        noun = "file" if self.files_checked == 1 else "files"
        summary = (
            f"{len(self.diagnostics)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{self.files_checked} {noun} checked"
        )
        lines.append(summary)
        return "\n".join(lines)


def find_root(start: Path) -> Path:
    """Nearest ancestor containing ``pyproject.toml`` (else ``start``)."""
    start = start.resolve()
    candidates = [start] if start.is_dir() else [start.parent]
    candidates.extend(candidates[0].parents)
    for candidate in candidates:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return candidates[0]


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not SKIP_DIRS & set(sub.parts):
                    files.append(sub)
        elif path.suffix == ".py":
            files.append(path)
    seen = set()
    unique: List[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[List[str]] = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) against the registered rules.

    ``root`` anchors repo-relative rule scoping; it is discovered from
    the first path when omitted.  ``select`` narrows to specific rule ids.
    """
    paths = [Path(p) for p in paths]
    if root is None:
        root = find_root(paths[0] if paths else Path.cwd())
    rules = select_rules(select)
    report = LintReport(rules=rules, root=str(root))
    report.rule_times_s = {rule.id: 0.0 for rule in rules}

    for path in _collect_files(paths):
        relpath = _relpath(path, root)
        applicable = [rule for rule in rules if rule.applies_to(relpath)]
        if not applicable:
            continue
        report.files_checked += 1
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=relpath)
        except SyntaxError as exc:
            report.diagnostics.append(
                Diagnostic(
                    rule=PARSE_ERROR_RULE,
                    path=relpath,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    message=f"cannot parse file: {exc.msg}",
                )
            )
            continue
        module = ModuleContext(
            relpath=relpath,
            source=source,
            tree=tree,
            suppressions=SuppressionIndex(source),
        )
        for rule in applicable:
            started = time.perf_counter()
            diags = rule.check(module)
            report.rule_times_s[rule.id] += time.perf_counter() - started
            for diag in diags:
                if module.suppressions.is_suppressed(diag.rule, diag.line):
                    report.suppressed.append(diag)
                else:
                    report.diagnostics.append(diag)

    report.diagnostics.sort(key=lambda d: d.sort_key)
    report.suppressed.sort(key=lambda d: d.sort_key)
    return report


def lint_source(
    source: str,
    relpath: str,
    select: Optional[List[str]] = None,
) -> List[Diagnostic]:
    """Lint a source snippet as if it lived at ``relpath`` (test helper).

    Applies suppression comments and returns the unsuppressed
    diagnostics, sorted.
    """
    rules = [rule for rule in select_rules(select) if rule.applies_to(relpath)]
    tree = ast.parse(source, filename=relpath)
    module = ModuleContext(
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=SuppressionIndex(source),
    )
    diagnostics: List[Diagnostic] = []
    for rule in rules:
        for diag in rule.check(module):
            if not module.suppressions.is_suppressed(diag.rule, diag.line):
                diagnostics.append(diag)
    diagnostics.sort(key=lambda d: d.sort_key)
    return diagnostics
