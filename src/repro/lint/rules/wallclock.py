"""R005 no-wallclock-in-core: one clock, owned by the stats layer.

PR 3's phase timers promise that every duration in a profile comes from
the same monotonic clock, read through the timing helpers, so phase
totals reconcile with wall time and tests can stub a single seam.  A
stray ``time.time()`` inside the core search modules breaks that ledger:
it is invisible to the profiler, it can go backwards under NTP slew, and
it makes deadline math disagree with the phase timers.

The rule bans direct clock reads in ``src/repro/core/`` — calls *and*
``from time import ...`` of the clock functions (``time``, ``monotonic``,
``perf_counter``, ``process_time``, their ``_ns`` variants) plus
``datetime.now``/``utcnow``/``today`` — everywhere except the two
modules that own timing: ``stats.py`` (which exposes
:func:`repro.core.stats.monotonic_now`) and ``matcher.py`` (whose
report assembly stamps end-to-end durations).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, List, Optional

from ..astutils import dotted_name
from ..diagnostics import Diagnostic
from ..registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..analyzer import ModuleContext

CLOCK_FUNCTIONS = frozenset(
    {
        "time",
        "monotonic",
        "perf_counter",
        "process_time",
        "time_ns",
        "monotonic_ns",
        "perf_counter_ns",
        "process_time_ns",
    }
)
DATETIME_CLOCKS = frozenset({"now", "utcnow", "today"})
_HINT = "route timing through repro.core.stats.monotonic_now()"


def _call_problem(called: str) -> Optional[str]:
    parts = called.split(".")
    if parts[0] == "time" and len(parts) == 2 and parts[1] in CLOCK_FUNCTIONS:
        return f"direct wall-clock call {called}(); {_HINT}"
    if parts[-1] in DATETIME_CLOCKS and any(
        part in ("datetime", "date") for part in parts[:-1]
    ):
        return f"direct wall-clock call {called}(); {_HINT}"
    return None


def check(module: "ModuleContext") -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in CLOCK_FUNCTIONS:
                    diagnostics.append(
                        module.diagnostic(
                            RULE.id,
                            node,
                            f"imports clock function time.{alias.name}; {_HINT}",
                        )
                    )
        elif isinstance(node, ast.Call):
            called = dotted_name(node.func)
            if called is None:
                continue
            problem = _call_problem(called)
            if problem is not None:
                diagnostics.append(module.diagnostic(RULE.id, node, problem))
    return diagnostics


RULE = register(
    Rule(
        id="R005",
        name="no-wallclock-in-core",
        summary=(
            "core search modules must not read clocks directly; use the "
            "stats layer's monotonic_now()"
        ),
        rationale=(
            "profile durations must reconcile against one monotonic clock "
            "with one stubbable seam (PR 3 invariant); ad-hoc time.time() "
            "calls drift from the phase-timer ledger."
        ),
        paths=("src/repro/core/*.py",),
        excludes=(
            "src/repro/core/stats.py",
            "src/repro/core/matcher.py",
        ),
        check=check,
    )
)
