"""R008 dtype-escape: numpy values are sanitized before they escape.

``DynamicGraph``'s indptr shift (:func:`repro.graph.dynamic._shift_indptr`)
computes with numpy when it is installed, and nothing numpy-typed may
reach core state: ``SearchStats`` counters feed JSON profiles,
embeddings are compared against pure-Python engines, plan arrays are
pickled across spawn boundaries — an ``np.int64`` in any of them breaks
serialization equality in ways no unit test of the shift itself
notices.  The kernel and the batch engine are pure Python and stay in
scope so that numpy cannot enter them unchecked.

The rule runs the taint domain over each function's CFG: values
originating from a numpy call (through an import alias, ``np.X(...)``)
stay tainted through subscripts, arithmetic and comparisons, and are
sanitized by ``.tolist()``/``.item()``/``int()``-family conversions.
Summaries compose across calls (a helper whose return value is tainted
taints its callers).  Only *definite* taints are reported: a value that
may or may not be numpy joins to unknown and is never flagged.

Sinks: assignments into stats-like attributes (``stats.nodes = t``),
stores into plan objects/arrays, and ``yield`` of a tainted value (the
embedding stream).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, List, Optional

from ..dataflow.cfg import build_cfg
from ..dataflow.interp import TaintDomain, analyze
from ..dataflow.lattice import DTYPE_NP
from ..diagnostics import Diagnostic
from ..facts import ProjectFacts
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..analyzer import ModuleContext

#: attribute spellings that hold a SearchStats object by project convention
_STATS_ATTRS = frozenset({"stats", "build_stats", "total_stats"})


def _is_stats_holder(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id != "stage_stats" and (
            expr.id == "stats" or expr.id.endswith("_stats")
        )
    if isinstance(expr, ast.Attribute):
        return expr.attr in _STATS_ATTRS
    return False


def _is_plan_holder(expr: ast.AST) -> bool:
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id == "plan" or current.id.endswith("_plan")
    return False


def check(module: "ModuleContext", facts: Optional[ProjectFacts]) -> List[Diagnostic]:
    project = module.dataflow
    if project is None:
        return []
    info = project.modules.get(module.relpath)
    if info is None:
        return []
    diagnostics: List[Diagnostic] = []
    for func in info.functions.values():
        cfg = build_cfg(func.node)
        domain = TaintDomain(project, info, func)
        analysis = analyze(cfg, domain)
        for node, state in analysis.reachable_stmt_states():
            stmt = node.stmt
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                if stmt.value is None or domain.eval(state, stmt.value) != DTYPE_NP:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute) and _is_stats_holder(
                        target.value
                    ):
                        diagnostics.append(
                            module.diagnostic(
                                RULE.id,
                                stmt,
                                f"numpy-originated value stored into SearchStats "
                                f"field {target.attr!r}; pass it through "
                                "int()/.tolist() first",
                            )
                        )
                    elif isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and _is_plan_holder(target):
                        diagnostics.append(
                            module.diagnostic(
                                RULE.id,
                                stmt,
                                "numpy-originated value stored into a plan "
                                "structure; plans are pickled across spawn "
                                "boundaries and must stay pure-Python",
                            )
                        )
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)
            ):
                inner = stmt.value.value
                if inner is not None and domain.eval(state, inner) == DTYPE_NP:
                    diagnostics.append(
                        module.diagnostic(
                            RULE.id,
                            stmt,
                            "numpy-originated value yielded as an embedding; "
                            "sanitize with .tolist()/int() before yielding",
                        )
                    )
    return diagnostics


RULE = register(
    Rule(
        id="R008",
        name="dtype-escape",
        summary=(
            "numpy-originated values must pass through .tolist()/int() "
            "before being stored into SearchStats, plan structures, or "
            "yielded embeddings"
        ),
        rationale=(
            "np.int64 in a profile breaks JSON serialization, in a plan "
            "breaks spawn pickling equality, in an embedding breaks "
            "differential comparison against the pure-Python engines"
        ),
        paths=(
            "src/repro/core/batch.py",
            "src/repro/core/kernel.py",
            "src/repro/graph/dynamic.py",
        ),
        check=check,
        dataflow=True,
    )
)
