"""An independent model of failing-set backjumping (the counter oracle).

Failing-set backjumping makes the engines' search counters depend on
sibling order, so they are no longer invariant under relabelling the
data graph or under weakening the CPI.  This module recomputes them
from first principles instead: a short recursive DAF search (Han et
al., SIGMOD 2019) over a :class:`~repro.core.matcher.PreparedQuery`'s
core and forest slots, with its own ancestor masks, sharing no code
with either engine.  It returns the core+forest ``nodes`` and
``backjumps`` of an exhaustive search, with pruning or without.

The rule it models, per stage that has a backward non-tree edge:

* ``anc(u) = {u} | anc(tree parent) | anc(each backward neighbor)``; a
  vertex mapped by an earlier stage contributes only its own bit;
* a finished node with no yielded descendant fails with ``anc(u)`` when
  no candidate of the next vertex ``u`` passes the backward-edge checks,
  else with the union of ``anc(u) | anc(u')`` per candidate occupied by
  ``u'`` and of its children's failing sets;
* a child whose failing set excludes its own vertex ends its parent's
  loop (one backjump) unless an earlier sibling yielded, and its set
  becomes the parent's.

Every complete core mapping counts as yielded, whatever the forest and
leaf stages find under it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.core_match import OrderedVertex
from ..core.matcher import PreparedQuery

__all__ = ["model_counters"]


def _ancestor_masks(slots: Sequence[OrderedVertex]) -> Optional[Dict[int, int]]:
    if all(not slot.backward_neighbors for slot in slots):
        return None
    masks: Dict[int, int] = {}
    for slot in slots:
        mask = 1 << slot.u
        for w in (slot.tree_parent, *slot.backward_neighbors):
            if w is not None:
                mask |= masks[w] if w in masks else 1 << w
        masks[slot.u] = mask
    return masks


class _Model:
    def __init__(self, plan: PreparedQuery, prune: bool) -> None:
        self.cpi = plan.cpi
        self.data = plan.cpi.data
        self.stages = [plan.core_slots, plan.forest_slots]
        self.masks = [
            _ancestor_masks(slots) if prune else None for slots in self.stages
        ]
        self.mapping = [-1] * plan.query.num_vertices
        self.used: set = set()
        self.nodes = 0
        self.backjumps = 0

    def _candidates(self, slot: OrderedVertex) -> List[int]:
        if slot.tree_parent is None:
            row = self.cpi.candidates[slot.u]
        else:
            row = self.cpi.adjacency[slot.u].get(self.mapping[slot.tree_parent], ())
        return [
            v for v in row
            if all(self.data.has_edge(v, self.mapping[w]) for w in slot.backward_neighbors)
        ]

    def visit(self, stage: int, depth: int) -> Optional[int]:
        """Search depth ``depth`` of ``stage`` under the current mapping;
        the failing set of the parent node, or ``None`` if it yielded."""
        slots = self.stages[stage]
        if depth == len(slots):
            if stage + 1 < len(self.stages):
                self.visit(stage + 1, 0)
            return None
        masks = self.masks[stage]
        slot = slots[depth]
        u = slot.u
        failing = 0
        found = False
        for v in self._candidates(slot):
            if v in self.used:
                if masks is not None:
                    owner = self.mapping.index(v)
                    failing |= masks[u] | masks.get(owner, 1 << owner)
                continue
            self.nodes += 1
            self.mapping[u] = v
            self.used.add(v)
            child = self.visit(stage, depth + 1)
            self.mapping[u] = -1
            self.used.discard(v)
            if child is None:
                found = True
            elif masks is not None and not found:
                if not child & (1 << u):
                    self.backjumps += 1
                    return child
                failing |= child
        if found:
            return None
        if masks is None:
            return 0
        return failing or masks[u]


def model_counters(plan: PreparedQuery, prune: bool = True) -> Dict[str, int]:
    """Core+forest ``nodes`` and ``backjumps`` of an exhaustive search of
    ``plan``; ``prune=False`` gives the search without backjumping."""
    model = _Model(plan, prune)
    if not plan.cpi.is_empty():
        model.visit(0, 0)
    return {"nodes": model.nodes, "backjumps": model.backjumps}
