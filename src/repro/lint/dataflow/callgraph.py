"""Project-wide function index and best-effort call resolution.

The call graph is deliberately *syntactic*: functions are indexed by
dotted qualname (``PlanSegment.create``, ``_dispatch.submit_more``) per
module, imports are tracked as alias → dotted-target maps, and a call is
resolved by pattern — ``name(...)``, ``self.m(...)``/``cls.m(...)``,
``Class.m(...)``, ``module_alias.f(...)`` — to the unique definition it
names, or ``None``.  Unresolved calls are not errors; every analysis
built on top treats "unknown callee" conservatively (a resource passed
to an unknown callee escapes, an unknown return value is ``TOP``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .scopes import FunctionNode, dotted_name


def module_name_of(relpath: str) -> str:
    """Dotted module name of a repo-relative path.

    ``src/repro/core/shm.py`` -> ``repro.core.shm``;
    ``tests/lint/x.py`` -> ``tests.lint.x`` (never imported, but stable).
    """
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class FunctionInfo:
    """One function definition the project knows about."""

    qualname: str
    relpath: str
    node: FunctionNode
    class_name: Optional[str] = None


class ModuleInfo:
    """One parsed module: functions by qualname plus import aliases."""

    def __init__(self, relpath: str, source: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.module_name = module_name_of(relpath)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: List[str] = []
        #: local name -> dotted import target ("bisect", "repro.core.shm.pack_segment")
        self.import_aliases: Dict[str, str] = {}
        self._index()

    def _index(self) -> None:
        self._index_body(self.tree.body, prefix="", class_name=None)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.import_aliases[alias.asname or alias.name] = target

    def _import_base(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        # relative import: resolve against this module's package
        package_parts = self.module_name.split(".")[:-1]
        if node.level > 1:
            package_parts = package_parts[: -(node.level - 1)] or package_parts[:0]
        if node.module:
            package_parts = package_parts + node.module.split(".")
        return ".".join(package_parts)

    def _index_body(
        self, body: List[ast.stmt], prefix: str, class_name: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    relpath=self.relpath,
                    node=stmt,
                    class_name=class_name,
                )
                self._index_body(stmt.body, prefix=f"{qualname}.", class_name=class_name)
            elif isinstance(stmt, ast.ClassDef):
                self.classes.append(f"{prefix}{stmt.name}")
                self._index_body(
                    stmt.body, prefix=f"{prefix}{stmt.name}.", class_name=stmt.name
                )


@dataclass
class DataflowProject:
    """Every module the engine reasons over, plus composed summaries.

    ``summaries`` maps ``(relpath, qualname)`` to the function's
    :class:`~repro.lint.dataflow.summaries.FunctionSummary`; it is filled
    by :func:`~repro.lint.dataflow.summaries.compute_summaries` and read
    back through :meth:`summary_for` / :meth:`resolve_summary`.
    """

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    summaries: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    #: files whose summaries were served from the persisted cache
    cache_hits: int = 0
    #: files whose summaries had to be (re)computed this run
    cache_misses: int = 0

    def add_module(
        self, relpath: str, source: str, tree: Optional[ast.Module] = None
    ) -> Optional[ModuleInfo]:
        """Parse and index one module; ``None`` if it does not parse."""
        if relpath in self.modules:
            return self.modules[relpath]
        if tree is None:
            try:
                tree = ast.parse(source, filename=relpath)
            except SyntaxError:
                return None
        info = ModuleInfo(relpath, source, tree)
        self.modules[relpath] = info
        return info

    def module_by_name(self, module_name: str) -> Optional[ModuleInfo]:
        for info in self.modules.values():
            if info.module_name == module_name:
                return info
        return None

    def resolve_callable(
        self,
        module: ModuleInfo,
        caller: Optional[FunctionInfo],
        func_expr: ast.AST,
    ) -> Optional[FunctionInfo]:
        """The function a call expression's callee names, if the project
        contains exactly that definition."""
        dotted = dotted_name(func_expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if len(parts) == 1:
            return self._resolve_bare(module, caller, parts[0])
        if len(parts) == 2:
            first, attr = parts
            if first in ("self", "cls") and caller is not None and caller.class_name:
                return module.functions.get(f"{caller.class_name}.{attr}")
            if first in module.classes:
                return module.functions.get(f"{first}.{attr}")
            target = module.import_aliases.get(first)
            if target is not None:
                return self._resolve_dotted(f"{target}.{attr}")
        return self._resolve_dotted(dotted)

    def _resolve_bare(
        self, module: ModuleInfo, caller: Optional[FunctionInfo], name: str
    ) -> Optional[FunctionInfo]:
        if caller is not None:
            nested = module.functions.get(f"{caller.qualname}.{name}")
            if nested is not None:
                return nested
        direct = module.functions.get(name)
        if direct is not None:
            return direct
        target = module.import_aliases.get(name)
        if target is not None:
            return self._resolve_dotted(target)
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """Resolve ``pkg.mod.func`` / ``pkg.mod.Class.method`` project-wide."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            target_module = self.module_by_name(".".join(parts[:split]))
            if target_module is None:
                continue
            qualname = ".".join(parts[split:])
            found = target_module.functions.get(qualname)
            if found is not None:
                return found
        return None

    def summary_for(self, func: FunctionInfo) -> Optional[Any]:
        return self.summaries.get((func.relpath, func.qualname))

    def resolve_summary(
        self,
        module: ModuleInfo,
        caller: Optional[FunctionInfo],
        func_expr: ast.AST,
    ) -> Optional[Any]:
        """Callee summary for a call expression, composing across modules."""
        callee = self.resolve_callable(module, caller, func_expr)
        if callee is None:
            return None
        return self.summary_for(callee)
