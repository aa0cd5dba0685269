"""The worklist abstract interpreter and the two concrete domains.

:class:`Interpreter` runs any :class:`Domain` over a
:class:`~repro.lint.dataflow.cfg.ControlFlowGraph` to a fixpoint:
in-states join over incoming edges, normal edges carry the node's
post-state, exception edges carry the node's *pre*-state (the effect may
not have happened when the statement raised).  The lattices are finite
and the transfers monotone, so the loop terminates; a generous iteration
cap guards against construction bugs.

Two domains implement the rule families:

* :class:`ResourceDomain` — one tracked allocation (a ``SharedMemory``
  / ``_Segment`` / ``*.create`` result) stepped through
  ``created → closed/unlinked/escaped``; R007 reads the exit states.
* :class:`VersionDomain` — the mutation dirty bit over ``DynamicGraph``
  index structures, cleared by a composing commit; R009 reads public
  functions' normal-exit states.

Escape semantics are deliberately forgiving: a value stored into an
attribute, container or closure, returned, yielded, aliased, or passed
to an unresolved callee moves to ``escaped``/``TOP`` and discharges all
obligations.  The analyses only report what they can see locally plus
what composed summaries prove — never what they merely suspect.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from . import cfg as cfgmod
from .callgraph import DataflowProject, FunctionInfo, ModuleInfo
from .cfg import ControlFlowGraph, Node
from .lattice import (
    RES_ATTACHED,
    RES_CLOSED,
    RES_CREATED,
    RES_ESCAPED,
    RES_UNLINKED,
    TOP,
)
from .scopes import FunctionNode, closure_captured_names, dotted_name

# ---------------------------------------------------------------------------
# driver


class Domain:
    """Transfer-function interface the interpreter drives."""

    def initial(self) -> Any:
        raise NotImplementedError

    def transfer(self, state: Any, node: Node) -> Any:
        return state

    def exception_state(self, state: Any, node: Node) -> Any:
        """State carried along exception edges (default: pre-state)."""
        return state

    def join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError


class Analysis:
    """The fixpoint result: in-states per CFG node."""

    def __init__(self, cfg: ControlFlowGraph, in_states: List[Any]) -> None:
        self.cfg = cfg
        self.in_states = in_states

    def at(self, node: Node) -> Any:
        """In-state of ``node``; ``None`` when the node is unreachable."""
        return self.in_states[node.index]

    @property
    def exit_normal_state(self) -> Any:
        return self.in_states[self.cfg.exit_normal.index]

    @property
    def exit_raise_state(self) -> Any:
        return self.in_states[self.cfg.exit_raise.index]


def analyze(cfg: ControlFlowGraph, domain: Domain) -> Analysis:
    """Run ``domain`` over ``cfg`` to a fixpoint of in-states."""
    in_states: List[Any] = [None] * len(cfg.nodes)
    in_states[cfg.entry.index] = domain.initial()
    worklist: deque = deque([cfg.entry])
    budget = max(256, len(cfg.nodes) * 64)
    while worklist and budget > 0:
        budget -= 1
        node = worklist.popleft()
        state = in_states[node.index]
        if state is None:
            continue
        out_normal = domain.transfer(state, node)
        out_exc = domain.exception_state(state, node)
        for succ, kind in cfg.successors(node):
            incoming = out_normal if kind == cfgmod.EDGE_NORMAL else out_exc
            current = in_states[succ.index]
            merged = incoming if current is None else domain.join(current, incoming)
            if merged != current:
                in_states[succ.index] = merged
                worklist.append(succ)
    return Analysis(cfg, in_states)


# ---------------------------------------------------------------------------
# shared syntactic helpers


def _walk_excluding_nested(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression/statement without entering nested defs/lambdas."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def _effect_scope(stmt: ast.AST) -> List[ast.AST]:
    """The sub-expressions a node's transfer function may walk.

    Compound statements get a CFG node for their *header* only — the
    body statements have nodes of their own — so walking the whole
    statement from the header would double-count body effects (e.g. a
    ``_commit()`` inside an ``if`` would commit at the branch point).
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    return [stmt]


def _walk_effect_scope(stmt: ast.AST) -> Iterator[ast.AST]:
    for root in _effect_scope(stmt):
        yield from _walk_excluding_nested(root)


def _root_name(node: ast.AST) -> Optional[str]:
    """Root ``Name`` of an attribute/subscript chain."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _call_positional_index(call: ast.Call, var: str) -> Optional[int]:
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and arg.id == var:
            return i
    return None


def _name_in_container_args(call: ast.Call, var: str) -> bool:
    """``var`` nested in a tuple/list/set/starred argument of ``call``."""
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, ast.Starred):
            arg = arg.value
        if isinstance(arg, ast.Name) and arg.id == var:
            return True
        if isinstance(arg, (ast.Tuple, ast.List, ast.Set)):
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name) and sub.id == var:
                    return True
    return False


def _names_in(node: Optional[ast.AST]) -> Set[str]:
    if node is None:
        return set()
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _assigned_names(stmt: ast.AST) -> Set[str]:
    """Names (re)bound by a statement's assignment targets."""
    targets: List[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [item.optional_vars for item in stmt.items if item.optional_vars]
    names: Set[str] = set()
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
    return names


# ---------------------------------------------------------------------------
# resource lifecycle (R007)

#: constructors recognized as raw segment allocations / attachments
SEGMENT_CTOR_NAMES = frozenset({"SharedMemory", "_Segment"})


def resource_origin(
    project: DataflowProject,
    module: ModuleInfo,
    caller: Optional[FunctionInfo],
    expr: ast.AST,
) -> Optional[str]:
    """``"created"``/``"attached"`` when ``expr`` allocates or attaches a
    shared-memory resource (directly or through a summarized callee)."""
    if not isinstance(expr, ast.Call):
        return None
    dotted = dotted_name(expr.func)
    last = dotted.rsplit(".", 1)[-1] if dotted else None
    if last in SEGMENT_CTOR_NAMES:
        create = False
        for kw in expr.keywords:
            if kw.arg == "create" and isinstance(kw.value, ast.Constant):
                create = bool(kw.value.value)
        if last == "SharedMemory" and len(expr.args) >= 2:
            arg = expr.args[1]
            if isinstance(arg, ast.Constant) and bool(arg.value):
                create = True
        return RES_CREATED if create else RES_ATTACHED
    summary = project.resolve_summary(module, caller, expr.func)
    if summary is not None and getattr(summary, "resource_returns", None):
        return str(summary.resource_returns)
    return None


class ResourceSite:
    """One tracked allocation: the binding statement and its kind."""

    __slots__ = ("var", "kind", "stmt")

    def __init__(self, var: str, kind: str, stmt: ast.stmt) -> None:
        self.var = var
        self.kind = kind
        self.stmt = stmt


def find_resource_sites(
    project: DataflowProject,
    module: ModuleInfo,
    func: FunctionInfo,
) -> List[ResourceSite]:
    """Allocation/attach sites bound to a plain local name.

    Closure-captured locals are skipped (escaped by construction — the
    ``release()`` pattern), as are tuple-unpacked results (the engine
    does not track resources through multi-value returns; documented).
    """
    captured = closure_captured_names(func.node)
    sites: List[ResourceSite] = []
    for stmt in _walk_excluding_nested_body(func.node):
        value: Optional[ast.AST] = None
        target: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        kind = resource_origin(project, module, func, value)
        if kind is None or target.id in captured:
            continue
        sites.append(ResourceSite(target.id, kind, stmt))  # type: ignore[arg-type]
    return sites


def _walk_excluding_nested_body(func: FunctionNode) -> Iterator[ast.AST]:
    for stmt in func.body:
        yield from _walk_excluding_nested(stmt)


class ResourceDomain(Domain):
    """Step one :class:`ResourceSite` through the lifecycle lattice.

    The state is a *set* of lifecycle tags (powerset lattice, union
    join): each tag is a path class that can reach the program point.
    This is what makes verdicts exit-path-complete — in
    ``except Exception: seg.unlink(); raise`` the exceptional exit is
    reachable both as ``unlinked`` (handler path) and ``created`` (the
    residual ``KeyboardInterrupt`` path), and a scalar join would have
    collapsed exactly that distinction to ⊤ and masked the leak.
    """

    def __init__(
        self,
        project: DataflowProject,
        module: ModuleInfo,
        caller: FunctionInfo,
        site: ResourceSite,
    ) -> None:
        self.project = project
        self.module = module
        self.caller = caller
        self.site = site
        #: node index -> stmt for "attacher called unlink" violations
        self.unlink_violations: Dict[int, ast.AST] = {}

    def initial(self) -> Any:
        return frozenset()  # the resource is not bound yet

    def join(self, a: Any, b: Any) -> Any:
        return a | b

    def transfer(self, state: Any, node: Node) -> Any:
        stmt = node.stmt
        if node.kind == cfgmod.WITH_EXIT and isinstance(
            stmt, (ast.With, ast.AsyncWith)
        ):
            if self._with_binds_var(stmt):
                return frozenset(self._with_exit_tag(tag) for tag in state)
            return state
        if node.kind != cfgmod.STMT or stmt is None:
            return state
        if stmt is self.site.stmt:
            return frozenset({self.site.kind})
        if not state:
            return state
        return frozenset(self._apply_tag(tag, node, stmt) for tag in state)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _with_exit_tag(tag: str) -> str:
        if tag in (RES_CREATED, RES_CLOSED):
            return RES_UNLINKED
        if tag == RES_ATTACHED:
            return RES_CLOSED
        return tag

    def _with_binds_var(self, stmt: Union[ast.With, ast.AsyncWith]) -> bool:
        for item in stmt.items:
            if (
                isinstance(item.context_expr, ast.Name)
                and item.context_expr.id == self.site.var
            ):
                return True
            if (
                isinstance(item.optional_vars, ast.Name)
                and item.optional_vars.id == self.site.var
            ):
                return True
        return False

    def _apply_tag(self, tag: str, node: Node, stmt: ast.AST) -> str:
        if tag == RES_ESCAPED:
            return tag
        var = self.site.var
        if var in _assigned_names(stmt):
            return RES_ESCAPED  # rebound: the old value leaves our sight
        event: Optional[str] = None
        for sub in _walk_effect_scope(stmt):
            if not isinstance(sub, ast.Call):
                continue
            call_event = self._call_event(sub, var, node)
            if call_event == "unlink":
                return self._unlinked(node, stmt)
            if call_event == "close":
                event = "close"
            elif call_event == "escape" and event is None:
                event = "escape"
        if event == "close":
            # close() after unlink() releases the mapping only; unlink is
            # terminal for the /dev/shm *name*, which is what we track
            return tag if tag == RES_UNLINKED else RES_CLOSED
        if event == "escape":
            return RES_ESCAPED
        if self._value_flows_out(stmt, var):
            return RES_ESCAPED
        return tag

    def _unlinked(self, node: Node, stmt: ast.AST) -> str:
        if self.site.kind == RES_ATTACHED:
            self.unlink_violations[node.index] = stmt
        return RES_UNLINKED

    def _call_event(self, call: ast.Call, var: str, node: Node) -> Optional[str]:
        func = call.func
        # method call on the resource itself: seg.unlink(), seg.close(),
        # or a harmless accessor (no ownership transfer)
        if isinstance(func, ast.Attribute):
            root = func.value
            if isinstance(root, ast.Name) and root.id == var:
                if func.attr == "unlink":
                    return "unlink"
                if func.attr == "close":
                    return "close"
                return None
        index = _call_positional_index(call, var)
        passed_in_container = _name_in_container_args(call, var)
        passed_as_kw = any(
            isinstance(kw.value, ast.Name) and kw.value.id == var
            for kw in call.keywords
        )
        if index is None and not passed_in_container and not passed_as_kw:
            return None
        summary = self.project.resolve_summary(self.module, self.caller, call.func)
        if summary is not None and index is not None:
            arg_pos = index
            if isinstance(func, ast.Attribute):
                # receiver-style call: the receiver occupies parameter 0
                arg_pos += 1
            if arg_pos in tuple(getattr(summary, "may_unlink_params", ())):
                return "unlink"
            if arg_pos in tuple(getattr(summary, "may_close_params", ())):
                return "close"
        return "escape"

    def _value_flows_out(self, stmt: ast.AST, var: str) -> bool:
        """Return / yield / store / alias: the value leaves this frame."""
        if isinstance(stmt, ast.Return):
            return var in _names_in(stmt.value)
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            return var in _names_in(stmt.value)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None and var in _names_in(value):
                return True
        return False


def resource_findings(
    analysis: Analysis, domain: ResourceDomain
) -> List[Tuple[ast.AST, str]]:
    """(anchor node, message) pairs for one analyzed resource site."""
    findings: List[Tuple[ast.AST, str]] = []
    site = domain.site
    creation = site.stmt
    if site.kind == RES_CREATED:
        for exit_state, path in (
            (analysis.exit_normal_state, "a normal"),
            (analysis.exit_raise_state, "an exceptional"),
        ):
            tags = exit_state or frozenset()
            if RES_CREATED in tags:
                findings.append(
                    (
                        creation,
                        f"segment {site.var!r} created here may leak: no "
                        f"unlink() on {path} exit path",
                    )
                )
            elif RES_CLOSED in tags:
                findings.append(
                    (
                        creation,
                        f"segment {site.var!r} is closed but never unlinked "
                        f"on {path} exit path (the /dev/shm name persists)",
                    )
                )
    else:  # attached
        if RES_ATTACHED in (analysis.exit_normal_state or frozenset()):
            findings.append(
                (
                    creation,
                    f"attached segment {site.var!r} is never closed on a "
                    "normal exit path",
                )
            )
        for stmt in domain.unlink_violations.values():
            findings.append(
                (
                    stmt,
                    f"attached segment {site.var!r} must never be unlinked "
                    "(only its creator owns the /dev/shm name)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# mutation-version discipline (R009)

#: DynamicGraph structures whose interior writes require a commit
TRACKED_GRAPH_ATTRS = frozenset(
    {"labels", "adj", "_adj_sets", "_nlf", "_mnd", "_label_index"}
)
#: container methods that mutate their receiver in place
MUTATOR_METHODS = frozenset(
    {"append", "pop", "remove", "add", "discard", "clear", "extend",
     "insert", "setdefault", "update"}
)
_INSORT_NAMES = frozenset({"insort", "insort_left", "insort_right"})

#: (dirty, committed) lattice: join = (or, and)
VersionState = Tuple[bool, bool]


def tracked_aliases(func: FunctionNode) -> Set[str]:
    """Locals aliased (possibly via ``cast``/subscripts) to tracked attrs."""
    aliased: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for stmt in func.body:
            for sub in _walk_excluding_nested(stmt):
                if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                    continue
                target = sub.targets[0]
                if not isinstance(target, ast.Name) or target.id in aliased:
                    continue
                if _base_is_tracked(sub.value, aliased):
                    aliased.add(target.id)
                    changed = True
    return aliased


def _base_is_tracked(expr: ast.AST, aliased: Set[str]) -> bool:
    """Does ``expr`` resolve (through cast/subscript/calls) to a tracked
    ``DynamicGraph`` structure or an alias of one?"""
    current: Optional[ast.AST] = expr
    while current is not None:
        if isinstance(current, ast.Call):
            dotted = dotted_name(current.func)
            if dotted is not None and dotted.rsplit(".", 1)[-1] == "cast":
                if len(current.args) == 2:
                    current = current.args[1]
                    continue
            if isinstance(current.func, ast.Attribute):
                current = current.func.value  # x.setdefault(...) -> x
                continue
            return False
        if isinstance(current, ast.Subscript):
            current = current.value
            continue
        if isinstance(current, ast.Attribute):
            if (
                isinstance(current.value, ast.Name)
                and current.value.id == "self"
                and current.attr in TRACKED_GRAPH_ATTRS
            ):
                return True
            current = current.value
            continue
        if isinstance(current, ast.Name):
            return current.id in aliased
        return False
    return False


class VersionDomain(Domain):
    """The dirty bit: tracked-structure writes awaiting a commit."""

    def __init__(
        self,
        project: DataflowProject,
        module: ModuleInfo,
        caller: FunctionInfo,
    ) -> None:
        self.project = project
        self.module = module
        self.caller = caller
        self.aliased = tracked_aliases(caller.node)

    def initial(self) -> VersionState:
        return (False, False)

    def join(self, a: VersionState, b: VersionState) -> VersionState:
        return (a[0] or b[0], a[1] and b[1])

    def transfer(self, state: VersionState, node: Node) -> VersionState:
        stmt = node.stmt
        if node.kind != cfgmod.STMT or stmt is None:
            return state
        dirty, committed = state
        if self._stmt_mutates(stmt):
            dirty = True
        commit = self._stmt_commits(stmt)
        if commit:
            dirty, committed = False, True
        return (dirty, committed)

    def _stmt_mutates(self, stmt: ast.AST) -> bool:
        for sub in _walk_effect_scope(stmt):
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and _base_is_tracked(
                        target.value, self.aliased
                    ):
                        return True
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    if isinstance(target, ast.Subscript) and _base_is_tracked(
                        target.value, self.aliased
                    ):
                        return True
            elif isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and _base_is_tracked(func.value, self.aliased)
                ):
                    return True
                dotted = dotted_name(func)
                if (
                    dotted is not None
                    and dotted.rsplit(".", 1)[-1] in _INSORT_NAMES
                    and sub.args
                    and _base_is_tracked(sub.args[0], self.aliased)
                ):
                    return True
                summary = self.project.resolve_summary(
                    self.module, self.caller, func
                )
                if summary is not None and getattr(summary, "mutates", False):
                    if not getattr(summary, "always_commits", False):
                        return True
        return False

    def _stmt_commits(self, stmt: ast.AST) -> bool:
        for sub in _walk_effect_scope(stmt):
            if not isinstance(sub, ast.Call):
                continue
            summary = self.project.resolve_summary(self.module, self.caller, sub.func)
            if summary is not None and (
                getattr(summary, "is_commit", False)
                or getattr(summary, "always_commits", False)
            ):
                return True
        return False
