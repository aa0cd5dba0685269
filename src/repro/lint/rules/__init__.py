"""Rule modules; importing this package registers every rule.

The registry imports this lazily (``all_rules``/``get_rule``) so rule
modules can reference analyzer types without an import cycle.
"""

from . import (  # noqa: F401  (registration side effects)
    exceptions,
    frozen_plan,
    iteration,
    wallclock,
)

__all__ = [
    "frozen_plan",
    "iteration",
    "wallclock",
    "exceptions",
]
