"""R004 deterministic-iteration: no bare loops over unordered sets.

The paper's matching order (Algorithm 2) and the exact-counter tests
(Figure 1 / Figure 3 invariants) require that candidate enumeration is
*deterministic*: two runs over the same graphs must expand the same
search nodes in the same order.  Python's ``set`` iteration order is
hash-seed dependent for strings and insertion-history dependent in
general — a bare ``for x in some_set`` in an enumeration or ordering
module can silently reorder candidates and flip tie-breaks between runs.

The rule covers the enumeration-critical modules (``core_match``,
``leaf_match``, ``ordering``, ``root_selection``) and flags ``for``
statements and comprehension generators whose iterable is provably a
set:

* set literals, set comprehensions, ``set(...)``/``frozenset(...)``
  calls and set-algebra expressions built from them;
* names assigned such expressions, or parameters/variables annotated
  ``Set``/``FrozenSet``/``AbstractSet``;
* the project's known set-valued accessors: ``cand_sets[...]``,
  ``_adj_sets[...]`` and ``neighbor_set(...)``.

Wrapping the iterable in ``sorted(...)`` both fixes the order and
satisfies the rule.  Membership tests (``in``), ``len`` and set algebra
that feeds ``sorted`` are all fine — only iteration order is the hazard.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional

from ..astutils import (
    FunctionNode,
    annotation_words,
    dotted_name,
    iter_parameters,
    statements_excluding_nested,
    walk_scopes,
)
from ..diagnostics import Diagnostic
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..analyzer import ModuleContext

SET_ANNOTATIONS = frozenset(
    {"Set", "set", "FrozenSet", "frozenset", "AbstractSet", "MutableSet"}
)
SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
#: project accessors documented to return sets
PROJECT_SET_ATTRS = frozenset({"cand_sets", "_adj_sets"})
PROJECT_SET_CALLS = frozenset({"neighbor_set"})
SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.AST, env: Dict[str, str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        called = dotted_name(node.func)
        if called is not None:
            leaf = called.split(".")[-1]
            if leaf in SET_CONSTRUCTORS or leaf in PROJECT_SET_CALLS:
                return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in SET_METHODS:
            return _is_set_expr(node.func.value, env)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPS):
        return _is_set_expr(node.left, env) or _is_set_expr(node.right, env)
    if isinstance(node, ast.Name):
        return env.get(node.id) == "set"
    if isinstance(node, ast.Subscript):
        value = node.value
        return isinstance(value, ast.Attribute) and value.attr in PROJECT_SET_ATTRS
    if isinstance(node, ast.IfExp):
        return _is_set_expr(node.body, env) or _is_set_expr(node.orelse, env)
    return False


def _infer_env(
    body: List[ast.stmt],
    func: Optional[FunctionNode],
    inherited: Dict[str, str],
) -> Dict[str, str]:
    env = dict(inherited)
    if func is not None:
        for param in iter_parameters(func):
            if annotation_words(param.annotation) & SET_ANNOTATIONS:
                env[param.arg] = "set"
    for node in statements_excluding_nested(body):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            if annotation_words(node.annotation) & SET_ANNOTATIONS and isinstance(
                node.target, ast.Name
            ):
                env[node.target.id] = "set"
            targets, value = [node.target], node.value
        else:
            continue
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and _is_set_expr(value, env):
                env[target.id] = "set"
    return env


def check(module: "ModuleContext") -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []

    def flag(node: ast.AST) -> None:
        diagnostics.append(
            module.diagnostic(
                RULE.id,
                node,
                "iterates an unordered set; wrap the iterable in sorted(...) "
                "so candidate order (and the Algorithm 2 matching order) is "
                "deterministic",
            )
        )

    for body, env in walk_scopes(module.tree, _infer_env):
        for node in statements_excluding_nested(body):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(
                node.iter, env
            ):
                flag(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in node.generators:
                    if _is_set_expr(generator.iter, env):
                        flag(generator.iter)
    return diagnostics


RULE = register(
    Rule(
        id="R004",
        name="deterministic-iteration",
        summary=(
            "no bare iteration over sets in the enumeration/ordering "
            "modules; wrap in sorted(...)"
        ),
        rationale=(
            "the Fig.1/Fig.3 exact-counter tests and Algorithm 2's greedy "
            "tie-breaks assume runs are reproducible; set iteration order "
            "is not."
        ),
        paths=(
            "src/repro/core/batch.py",
            "src/repro/core/core_match.py",
            "src/repro/core/dynamic.py",
            "src/repro/core/kernel.py",
            "src/repro/core/leaf_match.py",
            "src/repro/core/ordering.py",
            "src/repro/core/root_selection.py",
        ),
        check=check,
    )
)
