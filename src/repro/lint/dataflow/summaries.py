"""Function summaries: exit-path-complete effects that compose across calls.

A :class:`FunctionSummary` records what a call does to the analyses'
lattices without any path conditions: does it return an owned or
attached resource, which parameters may it unlink/close, may it leave
the graph's tracked structures dirty, does it commit on every normal
exit.  The summaries are computed
to a global fixpoint (effects flow through call chains like
``attach_graph_store -> SharedGraphStore.attach -> _Segment``) and are
JSON round-trippable so :class:`SummaryCache` can persist them to
``.lint-cache.json`` keyed by content hash.

The cache is all-or-nothing by design: summaries compose across files,
so one changed file invalidates the whole set.  That is still the right
trade — the dataflow project is the handful of modules the R007 and
R009 scopes name, and a warm ``--changed`` run skips every
recomputation.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..diagnostics import LINT_ENGINE_VERSION
from . import interp
from .callgraph import DataflowProject, FunctionInfo, ModuleInfo
from .cfg import ControlFlowGraph, build_cfg
from .scopes import dotted_name

#: Layout of ``.lint-cache.json``; a cache written under another layout
#: is recomputed, never read.
_CACHE_VERSION = 2


@dataclass(frozen=True)
class FunctionSummary:
    """Path-condition-free effects of calling one function."""

    qualname: str
    relpath: str
    #: "created"/"attached" when the return value carries a resource
    resource_returns: Optional[str] = None
    #: parameter positions (0-based, ``self`` included) that may be unlinked
    may_unlink_params: Tuple[int, ...] = ()
    may_close_params: Tuple[int, ...] = ()
    #: may leave tracked DynamicGraph structures dirty at a normal exit
    mutates: bool = False
    #: every normal exit passes a version-bump-and-log commit
    always_commits: bool = False
    #: this *is* the commit primitive (bumps ``_version``, logs a TouchSet)
    is_commit: bool = False

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["may_unlink_params"] = list(self.may_unlink_params)
        data["may_close_params"] = list(self.may_close_params)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FunctionSummary":
        return cls(
            qualname=str(data["qualname"]),
            relpath=str(data["relpath"]),
            resource_returns=data.get("resource_returns") or None,  # type: ignore[arg-type]
            may_unlink_params=tuple(data.get("may_unlink_params", ())),  # type: ignore[arg-type]
            may_close_params=tuple(data.get("may_close_params", ())),  # type: ignore[arg-type]
            mutates=bool(data.get("mutates", False)),
            always_commits=bool(data.get("always_commits", False)),
            is_commit=bool(data.get("is_commit", False)),
        )


# ---------------------------------------------------------------------------
# computation


def _iter_parameters(func: FunctionInfo) -> Dict[str, int]:
    args = func.node.args
    ordered = list(args.posonlyargs) + list(args.args)
    return {arg.arg: i for i, arg in enumerate(ordered)}


def _resource_effects(
    project: DataflowProject, module: ModuleInfo, func: FunctionInfo
) -> Tuple[Optional[str], Tuple[int, ...], Tuple[int, ...]]:
    params = _iter_parameters(func)
    origin_vars: Dict[str, str] = {}
    returns: Optional[str] = None
    unlinks: set = set()
    closes: set = set()
    for stmt in interp._walk_excluding_nested_body(func.node):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            target = (
                stmt.targets[0]
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                else getattr(stmt, "target", None)
            )
            value = stmt.value
            if isinstance(target, ast.Name) and value is not None:
                kind = interp.resource_origin(project, module, func, value)
                if kind is not None:
                    origin_vars[target.id] = kind
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            value = stmt.value
            if isinstance(value, ast.Tuple):
                continue  # multi-value returns are not tracked (documented)
            kind = interp.resource_origin(project, module, func, value)
            if kind is None:
                for name in sorted(interp._names_in(value)):
                    if name in origin_vars:
                        kind = origin_vars[name]
                        break
            if kind is not None and returns != "created":
                returns = kind
        if isinstance(stmt, ast.Call):
            func_expr = stmt.func
            # p.unlink() / self._segment.unlink(): effect on the rooted param
            if isinstance(func_expr, ast.Attribute) and func_expr.attr in (
                "unlink",
                "close",
            ):
                root = interp._root_name(func_expr.value)
                if root in params:
                    (unlinks if func_expr.attr == "unlink" else closes).add(
                        params[root]
                    )
                continue
            # g(p): compose the callee's parameter effects
            summary = project.resolve_summary(module, func, func_expr)
            if summary is None:
                continue
            shift = 1 if isinstance(func_expr, ast.Attribute) else 0
            for i, arg in enumerate(stmt.args):
                if isinstance(arg, ast.Name) and arg.id in params:
                    pos = i + shift
                    if pos in summary.may_unlink_params:
                        unlinks.add(params[arg.id])
                    if pos in summary.may_close_params:
                        closes.add(params[arg.id])
    return returns, tuple(sorted(unlinks)), tuple(sorted(closes))


def _is_commit_primitive(func: FunctionInfo) -> bool:
    """A ``_commit``-shaped method: bumps ``self._version`` and appends a
    TouchSet to ``self._log``."""
    bumps = False
    logs = False
    for stmt in interp._walk_excluding_nested_body(func.node):
        if isinstance(stmt, (ast.AugAssign, ast.Assign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "_version"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    bumps = True
        elif isinstance(stmt, ast.Call):
            dotted = dotted_name(stmt.func)
            if dotted == "self._log.append":
                logs = True
    return bumps and logs


def _module_version_relevant(module: ModuleInfo) -> bool:
    return any(attr in module.source for attr in interp.TRACKED_GRAPH_ATTRS)


def _summarize(
    project: DataflowProject,
    module: ModuleInfo,
    func: FunctionInfo,
    cfg: ControlFlowGraph,
    version_relevant: bool,
) -> FunctionSummary:
    returns, unlinks, closes = _resource_effects(project, module, func)
    is_commit = _is_commit_primitive(func)
    mutates = False
    always_commits = is_commit
    if version_relevant and not is_commit:
        analysis = interp.analyze(cfg, interp.VersionDomain(project, module, func))
        exit_state = analysis.exit_normal_state
        if exit_state is not None:
            mutates = bool(exit_state[0])
            always_commits = bool(exit_state[1]) and not exit_state[0]
    return FunctionSummary(
        qualname=func.qualname,
        relpath=func.relpath,
        resource_returns=returns,
        may_unlink_params=unlinks,
        may_close_params=closes,
        mutates=mutates,
        always_commits=always_commits,
        is_commit=is_commit,
    )


def compute_summaries(project: DataflowProject, max_rounds: int = 5) -> None:
    """Fill ``project.summaries`` to a global fixpoint."""
    cfgs: Dict[Tuple[str, str], ControlFlowGraph] = {}
    relevance: Dict[str, bool] = {}
    for module in project.modules.values():
        relevance[module.relpath] = _module_version_relevant(module)
        for func in module.functions.values():
            cfgs[(module.relpath, func.qualname)] = build_cfg(func.node)
    for _ in range(max_rounds):
        changed = False
        for module in project.modules.values():
            version_relevant = relevance[module.relpath]
            for func in module.functions.values():
                key = (module.relpath, func.qualname)
                summary = _summarize(
                    project, module, func, cfgs[key], version_relevant
                )
                if project.summaries.get(key) != summary:
                    project.summaries[key] = summary
                    changed = True
        if not changed:
            break


# ---------------------------------------------------------------------------
# persistence


def file_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class SummaryCache:
    """``.lint-cache.json``: composed summaries keyed by content hashes."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def load_matching(
        self, hashes: Dict[str, str]
    ) -> Optional[Dict[Tuple[str, str], FunctionSummary]]:
        """Cached summaries, or ``None`` on any engine/file-set/hash drift."""
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("cache_version") != _CACHE_VERSION
            or data.get("engine") != LINT_ENGINE_VERSION
        ):
            return None
        files = data.get("files")
        if not isinstance(files, dict) or set(files) != set(hashes):
            return None
        summaries: Dict[Tuple[str, str], FunctionSummary] = {}
        try:
            for relpath, entry in files.items():
                if entry["hash"] != hashes[relpath]:
                    return None
                for qualname, raw in entry["summaries"].items():
                    summaries[(relpath, qualname)] = FunctionSummary.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            return None
        return summaries

    def store(
        self,
        hashes: Dict[str, str],
        summaries: Dict[Tuple[str, str], FunctionSummary],
    ) -> None:
        files: Dict[str, Dict[str, object]] = {
            relpath: {"hash": digest, "summaries": {}} for relpath, digest in hashes.items()
        }
        for (relpath, qualname), summary in summaries.items():
            if relpath in files:
                files[relpath]["summaries"][qualname] = summary.to_dict()  # type: ignore[index]
        payload = {
            "cache_version": _CACHE_VERSION,
            "engine": LINT_ENGINE_VERSION,
            "files": files,
        }
        try:
            self.path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError:
            pass  # caching is best-effort; a read-only tree still lints


def load_or_compute(
    project: DataflowProject, cache_path: Optional[Path]
) -> None:
    """Fill ``project.summaries``, via the cache when it is still valid."""
    hashes = {
        relpath: file_hash(module.source)
        for relpath, module in project.modules.items()
    }
    cache = SummaryCache(cache_path) if cache_path is not None else None
    if cache is not None:
        cached = cache.load_matching(hashes)
        if cached is not None:
            project.summaries = cached
            project.cache_hits = len(hashes)
            return
    compute_summaries(project)
    project.cache_misses = len(hashes)
    if cache is not None:
        cache.store(hashes, project.summaries)
