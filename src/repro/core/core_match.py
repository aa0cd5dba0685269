"""CPI-based embedding enumeration (Core-Match, Algorithm 5).

:class:`CPIBacktracker` grows a partial embedding along a matching order,
drawing the candidates of each query vertex from the CPI adjacency list of
its BFS-tree parent's image and validating backward non-tree edges against
the data graph (``ValidateNT``).  Forest-Match reuses the same engine with
non-tree checking disabled — the forest has no non-tree edges, so *the
data graph is never probed* there (Section 4.3).

The search is non-recursive (explicit iterator stack), as the paper's
implementation note prescribes, and yields control back each time the
order is fully mapped so that stages (core -> forest -> leaf) nest as
generators without materializing intermediate result sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..graph.graph import Graph
from .cpi import CPI, EMPTY_CANDIDATES
from .stats import BudgetExhausted, SearchStats, WorkBudget, monotonic_now

__all__ = [
    "BudgetExhausted",
    "CPIBacktracker",
    "OrderedVertex",
    "SearchStats",
    "SearchTimeout",
    "WorkBudget",
    "build_ordered_vertices",
    "failing_set_masks",
    "validate_embedding",
]


class SearchTimeout(Exception):
    """Raised inside a search when its deadline is crossed.

    Deadlines are absolute timestamps on the
    :func:`repro.core.stats.monotonic_now` clock (the single timing seam
    repro-lint rule R005 enforces for core modules), checked every 1024
    search nodes, so even a search that never emits an embedding (the
    paper's "INF" cases) terminates promptly.
    """


@dataclass(frozen=True)
class OrderedVertex:
    """One slot of a matching order.

    ``tree_parent`` is the BFS-tree parent supplying the CPI adjacency
    list (``None`` only for the very first vertex of the whole search,
    whose candidates come straight from ``u.C``).  ``backward_neighbors``
    are the non-tree neighbors already mapped when this slot is reached —
    the edges ``ValidateNT`` must probe in the data graph.
    """

    u: int
    tree_parent: Optional[int]
    backward_neighbors: tuple = field(default=())


def build_ordered_vertices(
    cpi: CPI,
    order: Sequence[int],
    already_mapped: Sequence[int] = (),
    check_non_tree: bool = True,
) -> List[OrderedVertex]:
    """Attach parent / backward-edge metadata to a raw vertex order.

    ``already_mapped`` lists query vertices mapped by earlier stages (the
    core, when building the forest's order): they count as "before" for
    backward-edge purposes and make tree parents available.
    """
    query = cpi.query
    tree = cpi.tree
    placed = set(already_mapped)
    result: List[OrderedVertex] = []
    for u in order:
        parent = tree.parent[u]
        if parent is not None and parent not in placed:
            # No anchored adjacency list available: candidates come from
            # u.C (first vertex of a stage, or a non-BFS order).
            parent = None
        backward = ()
        if check_non_tree:
            # Every earlier query neighbor must be edge-checked except the
            # anchor, whose edge is implicit in the CPI adjacency list.
            # For path-based orders this degenerates to exactly the
            # backward *non-tree* edges of Algorithm 5; for arbitrary
            # connected orders (e.g. the hierarchical-core extension) it
            # also covers tree edges whose parent is mapped later.
            backward = tuple(
                w for w in query.neighbors(u) if w in placed and w != parent
            )
        result.append(OrderedVertex(u=u, tree_parent=parent, backward_neighbors=backward))
        placed.add(u)
    return result


def failing_set_masks(ordered: Sequence[OrderedVertex]) -> Optional[Dict[int, int]]:
    """Ancestor masks for failing-set backjumping, or ``None`` to skip it.

    ``anc(u) = {u} | anc(tree parent) | anc(each backward neighbor)`` as
    an int bitmask over query-vertex ids, keyed by ``u`` in slot order.
    A vertex mapped by an enclosing stage contributes only its own bit:
    it is constant for the whole stage, so its ancestors are never
    tested.  A stage without a backward edge (every forest stage, every
    tree core) returns ``None`` and runs the plain loop: there a dead
    end's failing set nearly always holds the vertex one level up (on
    perfbench's ``dense-tree`` the rule would save 39 of 79,411 forest
    nodes), so the bookkeeping would only tax searches that emit.
    """
    if not any(slot.backward_neighbors for slot in ordered):
        return None
    masks: Dict[int, int] = {}
    for slot in ordered:
        mask = 1 << slot.u
        if slot.tree_parent is not None:
            mask |= masks.get(slot.tree_parent, 1 << slot.tree_parent)
        for w in slot.backward_neighbors:
            mask |= masks.get(w, 1 << w)
        masks[slot.u] = mask
    return masks


class CPIBacktracker:
    """Iterative backtracking over one stage's matching order.

    In a stage with a backward edge the search backjumps on failing sets
    (DAF, Han et al., SIGMOD 2019).  A finished node with no yielded
    descendant has a failing set ``F``: the query vertices whose images
    alone doom it.  With no candidate surviving the backward checks it
    is ``anc(u)``; otherwise it is the union of ``anc(u) | anc(u')`` per
    candidate occupied by ``u'`` and of the children's failing sets.
    When ``F`` excludes the node's own vertex, re-mapping that vertex
    cannot help, so the remaining siblings are skipped (``backjumps``)
    and ``F`` passes to the parent.  Skipped subtrees hold no embedding,
    so embeddings and their order are unchanged; ``nodes`` can only fall.
    """

    def __init__(
        self,
        cpi: CPI,
        ordered: Sequence[OrderedVertex],
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
        budget: Optional[WorkBudget] = None,
    ):
        self.cpi = cpi
        self.ordered = list(ordered)
        self.stats = stats if stats is not None else SearchStats()
        self.deadline = deadline
        self.budget = budget
        self.ancestors = failing_set_masks(self.ordered)

    def extend(self, mapping: List[int], used: bytearray) -> Iterator[None]:
        """Yield once per complete assignment of this stage's vertices.

        ``mapping`` (query vertex -> data vertex, -1 when unmapped) and
        ``used`` (data-vertex occupancy) are mutated in place and restored
        between yields and on exhaustion.  Callers nest stages by looping
        over ``extend`` generators.
        """
        ordered = self.ordered
        k = len(ordered)
        if k == 0:
            yield None
            return
        cpi = self.cpi
        data = cpi.data
        adj_sets = data._adj_sets  # noqa: SLF001 - hot path, documented internal
        candidates = cpi.candidates
        adjacency = cpi.adjacency
        stats = self.stats
        budget = self.budget
        ancestors = self.ancestors
        # Backjumping state (gated stages only): ``acc[d]`` accumulates
        # the failing set of depth d's parent node; ``found`` is the
        # deepest depth whose parent node has a yielded descendant (every
        # node on the path above it has one too).
        acc = [0] * k if ancestors is not None else []
        found = -1

        iterators: List[Optional[Iterator[int]]] = [None] * k
        iterators[0] = iter(self._slot_candidates(ordered[0], mapping, candidates, adjacency))
        depth = 0
        while depth >= 0:
            slot = ordered[depth]
            u = slot.u
            # Hoisted per depth-visit: attribute loads stay out of the
            # per-candidate loop, and slots without backward non-tree
            # edges (every forest slot, most core slots) skip the
            # ValidateNT block entirely.
            backward = slot.backward_neighbors
            descended = False
            iterator = iterators[depth]
            assert iterator is not None
            for v in iterator:
                if used[v]:
                    stats.injectivity_conflicts += 1
                    if (
                        ancestors is not None
                        and found < depth
                        and all(mapping[w] in adj_sets[v] for w in backward)
                    ):
                        # A conflict among the candidates that pass
                        # ValidateNT: freeing v needs its owner re-mapped.
                        owner = mapping.index(v)
                        acc[depth] |= ancestors[u] | ancestors.get(owner, 1 << owner)
                    continue
                if backward:
                    ok = True
                    for w in backward:
                        if mapping[w] not in adj_sets[v]:
                            ok = False
                            break
                    if not ok:
                        stats.edge_check_failures += 1
                        continue
                if budget is not None:
                    budget.charge()
                stats.nodes += 1
                if (
                    self.deadline is not None
                    and (stats.nodes & 1023) == 0
                    and monotonic_now() > self.deadline
                ):
                    raise SearchTimeout
                mapping[u] = v
                used[v] = 1
                if depth == k - 1:
                    found = depth
                    yield None
                    used[v] = 0
                    mapping[u] = -1
                    continue
                depth += 1
                iterators[depth] = iter(
                    self._slot_candidates(ordered[depth], mapping, candidates, adjacency)
                )
                descended = True
                break
            if descended:
                continue
            if ancestors is not None:
                if found >= depth:
                    found = depth - 1
                else:
                    failing = acc[depth] or ancestors[u]
                    if depth and found != depth - 1:
                        if failing & (1 << ordered[depth - 1].u):
                            acc[depth - 1] |= failing
                        else:
                            # The failure does not involve the vertex one
                            # level up: none of its remaining candidates
                            # can succeed, so its parent fails with F.
                            acc[depth - 1] = failing
                            iterators[depth - 1] = iter(())
                            stats.backjumps += 1
                acc[depth] = 0
            depth -= 1
            if depth >= 0:
                stats.backtracks += 1
                u = ordered[depth].u
                v = mapping[u]
                used[v] = 0
                mapping[u] = -1

    @staticmethod
    def _slot_candidates(slot, mapping, candidates, adjacency):
        if slot.tree_parent is None:
            return candidates[slot.u]
        parent_image = mapping[slot.tree_parent]
        return adjacency[slot.u].get(parent_image, EMPTY_CANDIDATES)


def validate_embedding(query: Graph, data: Graph, mapping: Sequence[int]) -> bool:
    """Full correctness check of an embedding (used by tests/examples):
    injective, label-preserving, and edge-preserving."""
    images = [mapping[u] for u in query.vertices()]
    if len(set(images)) != len(images):
        return False
    if any(v < 0 or v >= data.num_vertices for v in images):
        return False
    for u in query.vertices():
        if query.label(u) != data.label(mapping[u]):
            return False
    for u, w in query.edges():
        if not data.has_edge(mapping[u], mapping[w]):
            return False
    return True
