"""Flat value lattices for the abstract interpreter.

Every analysis the engine runs joins over a *flat* lattice: ``BOTTOM``
(unreached) below a finite set of incomparable named states below
``TOP`` (conflicting origins; the analysis gives up soundly rather than
guess).  Two concrete vocabularies are declared here:

* resource states — ``created``/``attached``/``closed``/``unlinked``/
  ``escaped`` for the R007 segment-lifecycle analysis;
* version tags — ``bumped``/``stale`` for the R009 mutation-version
  dirty bit.

Joins are monotone and the lattices have height 3, so the worklist
interpreter in :mod:`~repro.lint.dataflow.interp` terminates on any CFG.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable


class _Sentinel:
    """A named lattice extremum with a stable repr for test output."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: the unreached state: join identity
BOTTOM = _Sentinel("BOTTOM")
#: conflicting origins: join absorbing element ("unknown", never reported on)
TOP = _Sentinel("TOP")

Value = object  # BOTTOM | TOP | one of the lattice's named states


class FlatLattice:
    """A flat lattice over a finite vocabulary of named states."""

    def __init__(self, states: Iterable[str]) -> None:
        self.states: FrozenSet[str] = frozenset(states)

    def check(self, value: Value) -> Value:
        if value is BOTTOM or value is TOP or value in self.states:
            return value
        raise ValueError(f"{value!r} is not a state of this lattice")

    def join(self, a: Value, b: Value) -> Value:
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        if a == b:
            return a
        return TOP


# -- resource lifecycle (R007) ----------------------------------------------

RES_CREATED = "created"
RES_ATTACHED = "attached"
RES_CLOSED = "closed"
RES_UNLINKED = "unlinked"
RES_ESCAPED = "escaped"

RESOURCE_LATTICE = FlatLattice(
    (RES_CREATED, RES_ATTACHED, RES_CLOSED, RES_UNLINKED, RES_ESCAPED)
)

# -- mutation/version discipline (R009) -------------------------------------

#: all prior writes are covered by a version bump + TouchSet log
VER_BUMPED = "bumped"
#: a tracked structure was written after the last commit
VER_STALE = "stale"

VERSION_LATTICE = FlatLattice((VER_BUMPED, VER_STALE))
