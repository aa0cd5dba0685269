"""Compact Path Index (CPI) — the paper's auxiliary structure (Section 4.1).

A CPI is defined with respect to a BFS tree ``q_T`` of the query and
stores, for every query vertex ``u``:

* a candidate set ``u.C`` of data vertices ``u`` may map to, and
* for every tree edge ``(u.p, u)`` and every ``v in u.p.C``, the adjacency
  list ``N_u^{u.p}(v)`` — the candidates of ``u`` adjacent to ``v`` in G.

Worst-case size is ``O(|E(G)| x |V(q)|)`` (versus TurboISO's exponential
materialized path embeddings).  :class:`QueryBFSTree` carries the BFS
tree, the level partition, and the S-NTE / C-NTE classification of
non-tree edges (Definition 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..graph.graph import Graph, GraphError

#: The one empty-candidate sentinel, shared by every "no adjacency row for
#: this parent image" path (:meth:`CPI.child_candidates`, the reference
#: backtracker's ``_slot_candidates``, Leaf-Match's ``_nec_candidates``).
#: A tuple so accidental mutation of the shared default is impossible.
EMPTY_CANDIDATES: Tuple[int, ...] = ()


@dataclass
class QueryBFSTree:
    """BFS spanning tree of a connected query plus non-tree edge metadata."""

    query: Graph
    root: int
    parent: List[Optional[int]]
    children: List[List[int]]
    level: List[int]                     # 1-based BFS level per vertex
    levels: List[List[int]]              # levels[i] = vertices at level i+1
    non_tree_neighbors: List[List[int]]  # per vertex, non-tree adjacent vertices

    @classmethod
    def build(cls, query: Graph, root: int) -> "QueryBFSTree":
        if not 0 <= root < query.num_vertices:
            raise GraphError(f"root {root} out of range")
        parent, level = query.bfs_tree(root)
        if any(p == -1 for v, p in enumerate(parent) if v != root):
            raise GraphError("query must be connected to build a BFS tree")
        children: List[List[int]] = [[] for _ in range(query.num_vertices)]
        order = sorted(query.vertices(), key=lambda v: (level[v], v))
        for v in order:
            p = parent[v]
            if p is not None:
                children[p].append(v)
        max_level = max(level) if level else 0
        levels: List[List[int]] = [[] for _ in range(max_level)]
        for v in order:
            levels[level[v] - 1].append(v)
        non_tree: List[List[int]] = [[] for _ in range(query.num_vertices)]
        for u, v in query.edges():
            if parent[u] == v or parent[v] == u:
                continue
            non_tree[u].append(v)
            non_tree[v].append(u)
        return cls(
            query=query,
            root=root,
            parent=parent,
            children=children,
            level=level,
            levels=levels,
            non_tree_neighbors=non_tree,
        )

    def is_tree_edge(self, u: int, v: int) -> bool:
        return self.parent[u] == v or self.parent[v] == u

    def is_same_level_nte(self, u: int, v: int) -> bool:
        """S-NTE: a non-tree edge whose endpoints share a BFS level."""
        return (
            not self.is_tree_edge(u, v)
            and self.query.has_edge(u, v)
            and self.level[u] == self.level[v]
        )

    def is_cross_level_nte(self, u: int, v: int) -> bool:
        """C-NTE: a non-tree edge across BFS levels."""
        return (
            not self.is_tree_edge(u, v)
            and self.query.has_edge(u, v)
            and self.level[u] != self.level[v]
        )

    def non_tree_edge_count(self, u: int) -> int:
        """Number of non-tree edges incident to ``u``."""
        return len(self.non_tree_neighbors[u])

    def root_to_leaf_paths(self, restrict_to: Optional[Set[int]] = None) -> List[List[int]]:
        """All root-to-leaf paths of the BFS tree, optionally restricted.

        When ``restrict_to`` is given, the tree is first pruned to those
        vertices (which must be parent-closed, as the core-set is) and the
        paths of the pruned tree are returned.  Paths start at the root.
        """
        def kept(v: int) -> bool:
            return restrict_to is None or v in restrict_to

        if not kept(self.root):
            raise GraphError("restriction set must contain the BFS root")
        paths: List[List[int]] = []
        stack: List[Tuple[int, List[int]]] = [(self.root, [self.root])]
        while stack:
            v, path = stack.pop()
            child_list = [c for c in self.children[v] if kept(c)]
            if not child_list:
                paths.append(path)
                continue
            for c in reversed(child_list):
                stack.append((c, path + [c]))
        paths.sort()
        return paths


class CPI:
    """Candidate sets plus per-tree-edge adjacency lists over ``tree``."""

    __slots__ = ("tree", "data", "candidates", "cand_sets", "adjacency")

    # Rows are annotated read-only (Sequence) because a CPI decoded from
    # a shared plan segment (repro.core.shm) stores them as memoryview
    # slices of the segment; the builders pass plain lists.  Either way
    # a published CPI is immutable (repro-lint R003).
    def __init__(
        self,
        tree: QueryBFSTree,
        data: Graph,
        candidates: List[Sequence[int]],
        adjacency: List[Dict[int, Sequence[int]]],
        cand_sets: Optional[List[Set[int]]] = None,
    ) -> None:
        self.tree = tree
        self.data = data
        self.candidates = candidates                 # candidates[u] = sorted u.C
        # cand_sets[u] = set(u.C), built here unless the builder has them
        self.cand_sets: List[Set[int]] = (
            [set(c) for c in candidates] if cand_sets is None else cand_sets
        )
        # adjacency[u][v_parent] = N_u^{u.p}(v_parent); empty dict for root
        self.adjacency = adjacency

    @property
    def query(self) -> Graph:
        return self.tree.query

    @property
    def root(self) -> int:
        return self.tree.root

    def candidate_list(self, u: int) -> List[int]:
        """The candidate set ``u.C`` (sorted list)."""
        return self.candidates[u]

    def child_candidates(self, u: int, parent_vertex: int) -> Sequence[int]:
        """``N_u^{u.p}(parent_vertex)``: candidates of u adjacent to it.

        Returns the shared :data:`EMPTY_CANDIDATES` sentinel when the
        parent image has no adjacency row.
        """
        return self.adjacency[u].get(parent_vertex, EMPTY_CANDIDATES)

    def is_empty(self) -> bool:
        """True iff some query vertex has no candidates (no embedding)."""
        return any(not c for c in self.candidates)

    def with_root_candidates(self, filtered: Iterable[int]) -> "CPI":
        """Shallow copy whose root candidate set is ``filtered``.

        Everything except the root's candidate list/set is shared with
        ``self`` (the root has no incoming tree edge, so no adjacency
        list keys off its candidates).  Cost is O(|V(q)| + |filtered|),
        which lets the parallel engine restrict per root candidate
        without rebuilding the per-vertex candidate sets.
        """
        clone = CPI.__new__(CPI)
        clone.tree = self.tree
        clone.data = self.data
        clone.candidates = list(self.candidates)
        clone.candidates[self.root] = sorted(filtered)
        clone.cand_sets = list(self.cand_sets)
        clone.cand_sets[self.root] = set(clone.candidates[self.root])
        clone.adjacency = self.adjacency
        return clone

    def size(self) -> int:
        """Total CPI size: candidate entries + adjacency-list entries.

        This is the metric plotted as "index size" in Figure 16(d).
        """
        total = sum(len(c) for c in self.candidates)
        for table in self.adjacency:
            total += sum(len(lst) for lst in table.values())
        return total

    def candidate_counts(self) -> List[int]:
        """Per-query-vertex candidate-set sizes |u.C|."""
        return [len(c) for c in self.candidates]

    def __repr__(self) -> str:
        return (
            f"CPI(root={self.root}, |V(q)|={self.query.num_vertices}, "
            f"size={self.size()})"
        )
