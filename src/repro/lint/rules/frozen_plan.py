"""R003 frozen-plan: prepared plans are immutable outside the build layer.

A :class:`PreparedQuery` (and its ``CPI``) is shared once built: the
matcher's plan cache hands the same object to every later query with
the same signature, and each pool worker keeps the plans it reads from
shared plan segments in a per-worker LRU, their CPI rows being
``memoryview`` slices of the segment.  Any in-place mutation of a plan
after preparation corrupts *sibling chunks of the same query* and
*every later query that hits either cache*.  The sanctioned way to
specialize a plan is the copy-making API: ``CPI.with_root_candidates`` /
``CFLMatch._with_root_candidates``.

The rule flags any statement that assigns through an attribute (or a
subscript of an attribute chain) rooted at a plan-like object, outside
the modules whose *job* is plan construction: ``cpi.py`` itself,
``cpi_builder.py`` and ``matcher.py`` (the ``prepare*`` family).

Plan-like objects are inferred from parameter annotations
(``PreparedQuery``/``CPI``), from assignments whose value is a
plan-producing call (``prepare``, ``prepare_from_cpi``,
``with_root_candidates``, ``build_cpi``, ``build_naive_cpi``, or a bare
type construction), and from the project's naming vocabulary (``plan``,
``prepared``, ``cpi``, ``compiled``).

The same discipline extends to the shared-memory layer (PR 6): a packed
segment is *published read-only*.  Workers in other processes map the
same bytes, so any post-publish write is a cross-process data race.  In
``core/shm.py`` and ``graph/ingest.py`` the rule therefore flags element
writes through segment buffers (``buf``/``buffer``/``words``/``view``)
anywhere outside a ``pack*`` function — packing is the single sanctioned
write window, before the segment name (or file) is shared.

The dynamic-matching layer (PR 8) gets a *scoped* exemption rather than
a module exclusion: in ``core/dynamic.py``, plan mutation is permitted
only inside functions whose name contains ``repair`` — the incremental
CPI repair paths, which legitimately rewrite a registered plan between
syncs.  Anywhere else in that module (registration, continuous-query
bookkeeping) the frozen-plan contract still applies, so a stray plan
write outside the repair window is still caught.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional

from ..astutils import (
    FunctionNode,
    annotation_words,
    assignment_target_root,
    dotted_name,
    iter_parameters,
    statements_excluding_nested,
    walk_scopes,
)
from ..diagnostics import Diagnostic
from ..facts import ProjectFacts
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..analyzer import ModuleContext

PLAN_TYPE_NAMES = frozenset({"PreparedQuery", "CPI"})
PLAN_VAR_NAMES = frozenset({"plan", "prepared", "cpi", "compiled"})
#: annotation words meaning "container of plans", which may be mutated —
#: the worker-side plan LRU is an OrderedDict[int, PreparedQuery]
CONTAINER_WORDS = frozenset(
    {
        "Dict",
        "dict",
        "OrderedDict",
        "List",
        "list",
        "Tuple",
        "tuple",
        "Mapping",
        "MutableMapping",
        "Sequence",
        "Set",
        "set",
    }
)
PLAN_PRODUCERS = frozenset(
    {
        "prepare",
        "prepare_from_cpi",
        "with_root_candidates",
        "build_cpi",
        "build_naive_cpi",
    }
)


def _expr_produces_plan(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    called = dotted_name(node.func)
    if called is None:
        return False
    parts = called.split(".")
    if parts[-1] in PLAN_PRODUCERS:
        return True
    # Type constructions: CPI(...), PreparedQuery(...)
    return any(part in PLAN_TYPE_NAMES for part in parts)


def _infer_env(
    body: List[ast.stmt],
    func: Optional[FunctionNode],
    inherited: Dict[str, str],
) -> Dict[str, str]:
    env = dict(inherited)

    def annotates_plan(annotation: object) -> bool:
        words = annotation_words(annotation)  # type: ignore[arg-type]
        return bool(words & PLAN_TYPE_NAMES) and not words & CONTAINER_WORDS

    if func is not None:
        for param in iter_parameters(func):
            if annotates_plan(param.annotation):
                env[param.arg] = "plan"
    for node in statements_excluding_nested(body):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
            if annotates_plan(node.annotation) and isinstance(node.target, ast.Name):
                env[node.target.id] = "plan"
        else:
            continue
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and (
                _expr_produces_plan(value)
                or (isinstance(value, ast.Name) and env.get(value.id) == "plan")
            ):
                env[target.id] = "plan"
    return env


def _is_plan_name(name: str, env: Dict[str, str]) -> bool:
    return env.get(name) == "plan" or name in PLAN_VAR_NAMES


#: modules holding shared-segment buffers, where the read-only-after-
#: publish discipline applies (element writes only inside ``pack*``)
SEGMENT_MODULES = frozenset(
    {"src/repro/core/shm.py", "src/repro/graph/ingest.py"}
)
SEGMENT_BUFFER_NAMES = frozenset({"buf", "buffer", "words", "view"})

#: modules where plan mutation is sanctioned only inside functions whose
#: name contains "repair" (the incremental CPI repair paths of PR 8)
REPAIR_MODULES = frozenset({"src/repro/core/dynamic.py"})


def _subscript_buffer(target: ast.AST, names: frozenset) -> Optional[str]:
    """The first buffer-like name along a subscripted attribute chain
    (``segment.buf[0] = x`` -> ``"buf"``), or ``None``."""
    if not isinstance(target, ast.Subscript):
        return None
    chain: List[str] = []
    current: ast.AST = target
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute):
            chain.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        chain.append(current.id)
    return next(
        (name for name in chain if name.lstrip("_") in names), None
    )


def _segment_writes(
    module: "ModuleContext", node: ast.AST, inside_pack: bool
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            diagnostics.extend(
                _segment_writes(
                    module, child, inside_pack or child.name.startswith("pack")
                )
            )
            continue
        if isinstance(child, (ast.Assign, ast.AugAssign)) and not inside_pack:
            targets = (
                child.targets if isinstance(child, ast.Assign) else [child.target]
            )
            for target in targets:
                buffer = _subscript_buffer(target, SEGMENT_BUFFER_NAMES)
                if buffer is not None:
                    diagnostics.append(
                        module.diagnostic(
                            RULE.id,
                            child,
                            f"writes through segment buffer {buffer!r} "
                            "outside a pack* function; segments are "
                            "read-only once published to other processes",
                        )
                    )
        diagnostics.extend(_segment_writes(module, child, inside_pack))
    return diagnostics


def _repair_spans(tree: ast.AST) -> List[tuple]:
    """Line spans of every function whose name contains ``repair``."""
    spans: List[tuple] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "repair" in node.name:
                spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def check(module: "ModuleContext", facts: Optional[ProjectFacts]) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    if module.relpath in SEGMENT_MODULES:
        diagnostics.extend(_segment_writes(module, module.tree, False))
    repair_spans = (
        _repair_spans(module.tree) if module.relpath in REPAIR_MODULES else []
    )
    for body, env in walk_scopes(module.tree, _infer_env):
        for node in statements_excluding_nested(body):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                elements = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for element in elements:
                    root, derefs = assignment_target_root(element)
                    if root is None or not derefs:
                        continue
                    if _is_plan_name(root, env):
                        if any(
                            start <= node.lineno <= end
                            for start, end in repair_spans
                        ):
                            continue
                        diagnostics.append(
                            module.diagnostic(
                                RULE.id,
                                node,
                                f"mutates shared plan object {root!r} outside "
                                "the plan-construction modules; use the "
                                "copy-making API (with_root_candidates) "
                                "instead",
                            )
                        )
    return diagnostics


RULE = register(
    Rule(
        id="R003",
        name="frozen-plan",
        summary=(
            "no attribute/element assignment on PreparedQuery or CPI "
            "objects outside the plan-construction modules"
        ),
        rationale=(
            "the plan cache and every pool worker's plan-segment LRU hand "
            "one plan to many queries; in-place mutation corrupts sibling "
            "chunks and later cached queries."
        ),
        paths=("src/repro/*.py",),
        excludes=(
            "src/repro/core/cpi.py",
            "src/repro/core/cpi_builder.py",
            "src/repro/core/matcher.py",
        ),
        check=check,
    )
)
