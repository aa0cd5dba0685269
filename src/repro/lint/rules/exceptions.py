"""R006 no-swallowed-exceptions: the boundary layers must not eat errors.

``parallel.py`` and ``cli.py`` sit at the process and user boundaries —
exactly where a swallowed exception turns into a silently wrong answer:
a worker that dies mid-chunk and reports nothing undercounts embeddings;
a CLI path that catches everything hides the traceback the user needed.
PR 2's failure-path tests only work because worker errors *propagate*.

The rule flags, in those two files only:

* bare ``except:`` handlers (they also catch ``KeyboardInterrupt`` and
  ``SystemExit``, breaking Ctrl-C of a long enumeration);
* ``except Exception`` / ``except BaseException`` handlers whose body
  does nothing but ``pass``/``...`` — catching broadly is sometimes
  right at a boundary, but only when the handler *does* something
  (re-raise, record, convert to an exit code).

Handlers for specific exception types with a ``pass`` body (such as the
``BrokenPipeError`` dance in the CLI) are deliberately allowed: naming
the exception is the evidence the author considered it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, List

from ..astutils import annotation_words
from ..diagnostics import Diagnostic
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..analyzer import ModuleContext

BROAD_TYPES = frozenset({"Exception", "BaseException"})


def _body_does_nothing(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare `...`
        return False
    return True


def check(module: "ModuleContext") -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            diagnostics.append(
                module.diagnostic(
                    RULE.id,
                    node,
                    "bare 'except:' also catches KeyboardInterrupt/SystemExit; "
                    "name the exception types",
                )
            )
            continue
        caught = annotation_words(node.type)
        if caught & BROAD_TYPES and _body_does_nothing(node.body):
            shown = "/".join(sorted(caught & BROAD_TYPES))
            diagnostics.append(
                module.diagnostic(
                    RULE.id,
                    node,
                    f"'except {shown}: pass' swallows worker/CLI errors; "
                    "re-raise, record, or narrow the exception type",
                )
            )
    return diagnostics


RULE = register(
    Rule(
        id="R006",
        name="no-swallowed-exceptions",
        summary=(
            "no bare except or broad except-with-pass in the process and "
            "CLI boundary modules"
        ),
        rationale=(
            "a worker error swallowed in parallel.py silently undercounts "
            "embeddings; the PR 2 failure-path contract requires worker "
            "exceptions to propagate to the parent."
        ),
        paths=(
            "src/repro/core/parallel.py",
            "src/repro/cli.py",
        ),
        check=check,
    )
)
