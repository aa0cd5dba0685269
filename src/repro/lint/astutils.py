"""Shared AST helpers for the repro-lint rules.

The rules lean on three recurring operations: resolving dotted call
targets (``time.perf_counter`` -> ``"time.perf_counter"``), extracting
the identifier vocabulary of a type annotation (so ``Optional["CPI"]``
still reveals ``CPI``), and walking function scopes while *inheriting*
the enclosing scope's inferred variables — nested closures see the
outer function's locals, so a purely local analysis would miss them.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def annotation_words(annotation: Optional[ast.AST]) -> Set[str]:
    """Every identifier mentioned by an annotation expression.

    String annotations (``"SearchStats"``) and subscripted generics
    (``Optional[SearchStats]``) contribute their inner names too.
    """
    words: Set[str] = set()
    if annotation is None:
        return words
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(_WORD.findall(node.value))
    return words


def iter_parameters(func: FunctionNode) -> Iterator[ast.arg]:
    """All parameters of a function, positional/keyword/star alike."""
    args = func.args
    yield from args.posonlyargs
    yield from args.args
    yield from args.kwonlyargs
    if args.vararg is not None:
        yield args.vararg
    if args.kwarg is not None:
        yield args.kwarg


def assignment_target_root(target: ast.AST) -> Tuple[Optional[str], bool]:
    """Root name of an assignment target and whether it dereferences.

    ``plan.cpi = x`` -> ``("plan", True)``; ``plan = x`` -> ``("plan",
    False)``; ``plan.cpi.candidates[0] = x`` -> ``("plan", True)``.
    Rebinding a bare name is never a mutation of the object it used to
    hold, so callers typically act only when the second element is True.
    """
    derefs = False
    current = target
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        derefs = True
        current = current.value
    if isinstance(current, ast.Name):
        return current.id, derefs
    return None, derefs


def dotted_name(node: ast.AST) -> Optional[str]:
    """Dotted form of a Name/Attribute chain, ``None`` for anything else.

    ``time.perf_counter`` -> ``"time.perf_counter"``;
    ``a.b().c`` -> ``None`` (a call breaks the chain).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def statements_excluding_nested(
    body: List[ast.stmt],
) -> Iterator[ast.AST]:
    """Walk ``body`` without descending into nested function/class defs.

    Used to collect a scope's *own* assignments; nested scopes are walked
    separately with the inherited environment.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def walk_scopes(
    tree: ast.Module,
    infer: Callable[[List[ast.stmt], Optional[FunctionNode], Dict[str, str]], Dict[str, str]],
) -> Iterator[Tuple[List[ast.stmt], Dict[str, str]]]:
    """Yield ``(scope body, environment)`` pairs, outermost first.

    ``infer`` receives the scope's statements, the function node that owns
    them (``None`` for the module body) and the inherited environment, and
    returns the environment visible inside that scope.  Nested functions
    inherit their enclosing function's environment — closures read outer
    locals — while class bodies reset to the module environment.
    """

    def visit(
        body: List[ast.stmt],
        func: Optional[FunctionNode],
        inherited: Dict[str, str],
    ) -> Iterator[Tuple[List[ast.stmt], Dict[str, str]]]:
        env = infer(body, func, inherited)
        yield body, env
        for node in statements_excluding_nested(body):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit(child.body, child, env)
                elif isinstance(child, ast.ClassDef):
                    for stmt in child.body:
                        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            yield from visit(stmt.body, stmt, dict(inherited))

    yield from visit(list(tree.body), None, {})
