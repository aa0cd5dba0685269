"""Rule modules; importing this package registers every rule.

The registry imports this lazily (``all_rules``/``get_rule``) so rule
modules can reference analyzer types without an import cycle.
"""

from . import (  # noqa: F401  (registration side effects)
    counters,
    exceptions,
    frozen_plan,
    iteration,
    segment_lifecycle,
    spawn,
    version_discipline,
    wallclock,
)

__all__ = [
    "counters",
    "spawn",
    "frozen_plan",
    "iteration",
    "wallclock",
    "exceptions",
    "segment_lifecycle",
    "version_discipline",
]
