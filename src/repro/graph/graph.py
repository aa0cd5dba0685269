"""Vertex-labeled undirected graph, the substrate every algorithm runs on.

The representation follows the paper's preliminaries (Section 2): a graph
``g = (V, E, l, Sigma)`` with vertices ``0..n-1``, integer labels, and an
adjacency-list encoding.  Hot-path accessors (``neighbors``, ``has_edge``,
``degree``) are O(1)/O(deg); the Neighborhood Label Frequency (NLF) table
and Maximum Neighbor Degree (MND) used by the CandVerify filter
(Section A.6) are computed once and cached.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    cast,
)

#: A sorted int32 vector the kernel can bisect and slice: a plain
#: ``array('i')`` (in-process lowering) or a zero-copy ``memoryview``
#: over a shared segment (:mod:`repro.core.shm`).  Both support the only
#: operations the hot loops use — ``len``, indexing, slicing, iteration.
IntVector = Union["array[int]", memoryview]
#: The kernel's data adjacency ``(indptr, flat)``: row ``v`` is
#: ``flat[indptr[v]:indptr[v + 1]]``, sorted ascending.
AdjacencyCSR = Tuple[IntVector, IntVector]
#: One label's vertices ordered by ``(degree, id)`` and their degrees,
#: ascending: the vertices of degree at least ``d`` are the suffix from
#: ``bisect_left(degrees, d)``.
DegreeIndex = Tuple[Sequence[int], Sequence[int]]
#: exact structural key: (labels, sorted edge list)
Signature = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]


class GraphError(ValueError):
    """Raised for structurally invalid graph constructions."""


class Graph:
    """An undirected vertex-labeled graph with dense integer vertex ids.

    Parameters
    ----------
    labels:
        ``labels[v]`` is the integer label of vertex ``v``; the vertex count
        is ``len(labels)``.
    edges:
        iterable of ``(u, v)`` pairs.  Self-loops and duplicate edges are
        rejected (the paper assumes simple graphs).
    """

    __slots__ = (
        "labels",
        "adj",
        "_adj_sets",
        "_num_edges",
        "_label_index",
        "_degree_index",
        "_nlf",
        "_mnd",
        "_adjacency_csr",
        "_signature",
    )

    # Storage is annotated with read-only protocols rather than the
    # concrete list/set types this constructor builds: the shared-memory
    # subclass (:class:`repro.core.shm.SharedGraph`) fills the same
    # slots with zero-copy memoryview rows and bisect-backed set
    # facades.  Consumers may only rely on Sequence/AbstractSet
    # operations — which is also the immutability story (PR 2).
    def __init__(self, labels: Sequence[int], edges: Iterable[Tuple[int, int]]) -> None:
        self.labels: Sequence[int] = list(labels)
        n = len(self.labels)
        adj: List[List[int]] = [[] for _ in range(n)]
        adj_sets: List[Set[int]] = [set() for _ in range(n)]
        num_edges = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            if v in adj_sets[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            adj_sets[u].add(v)
            adj_sets[v].add(u)
            adj[u].append(v)
            adj[v].append(u)
            num_edges += 1
        for lst in adj:
            lst.sort()
        self.adj: Sequence[Sequence[int]] = adj
        self._adj_sets: Sequence[AbstractSet[int]] = adj_sets
        self._num_edges = num_edges
        self._label_index: Optional[Dict[int, Sequence[int]]] = None
        self._degree_index: Optional[Dict[int, DegreeIndex]] = None
        self._nlf: Optional[List[Dict[int, int]]] = None
        self._mnd: Optional[Sequence[int]] = None
        self._adjacency_csr: Optional[AdjacencyCSR] = None
        self._signature: Optional[Signature] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices |V(g)|."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of edges |E(g)|."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Mutation counter; always 0, since a static graph never changes.

        Caches tied to one ``data.version`` (the plan cache, the batch
        aux cache) therefore stay valid for a static graph and are
        dropped after any mutation of a
        :class:`~repro.graph.dynamic.DynamicGraph`.
        """
        return 0

    def vertices(self) -> range:
        """All vertex ids."""
        return range(len(self.labels))

    def label(self, v: int) -> int:
        """Label ``l(v)`` of vertex ``v``."""
        return self.labels[v]

    def neighbors(self, v: int) -> Sequence[int]:
        """Sorted neighbor list ``N(v)``."""
        return self.adj[v]

    def neighbor_set(self, v: int) -> AbstractSet[int]:
        """Neighbor set of ``v`` for O(1)/O(log deg) membership tests."""
        return self._adj_sets[v]

    def degree(self, v: int) -> int:
        """Degree ``d(v)``."""
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``(u, v)`` is an edge; O(1)."""
        return v in self._adj_sets[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def signature(self) -> Signature:
        """Exact structural key ``(labels, sorted edges)``, computed once.

        Two graphs with equal signatures are the *same* labeled graph
        (identical vertex ids, labels and edge set), which makes the
        signature a collision-free plan-cache key.  It deliberately does
        not canonicalize up to isomorphism — that would be as hard as
        the matching problem itself.
        """
        if self._signature is None:
            self._signature = (tuple(self.labels), tuple(self.edges()))
        return self._signature

    @property
    def num_labels(self) -> int:
        """Number of distinct labels actually present, |Sigma|."""
        return len(self.label_index())

    def average_degree(self) -> float:
        """Average vertex degree ``2|E| / |V|``."""
        if not self.labels:
            return 0.0
        return 2.0 * self._num_edges / len(self.labels)

    # ------------------------------------------------------------------
    # Cached derived structures
    # ------------------------------------------------------------------
    def label_index(self) -> Dict[int, Sequence[int]]:
        """Map label -> sorted vertices carrying it (built lazily)."""
        if self._label_index is None:
            index: Dict[int, List[int]] = {}
            for v, lab in enumerate(self.labels):
                index.setdefault(lab, []).append(v)
            self._label_index = cast(Dict[int, Sequence[int]], index)
        return self._label_index

    def vertices_with_label(self, label: int) -> Sequence[int]:
        """All vertices with the given label (empty if none)."""
        return self.label_index().get(label, [])

    def degree_index(self, label: int) -> DegreeIndex:
        """``(vertices, degrees)`` of ``label`` ordered by degree, ties by id.

        Derived per label on first request from the label index and the
        adjacency, then kept; root selection counts the label+degree
        candidates of a query vertex of degree ``d`` as
        ``len(degrees) - bisect_left(degrees, d)`` and CandVerifies only
        that suffix of ``vertices``.  Both sequences are empty for a
        label no vertex carries.
        """
        index = self._degree_index
        if index is None:
            index = self._degree_index = {}
        entry = index.get(label)
        if entry is None:
            bucket = self.vertices_with_label(label)
            degrees = self._degrees_of(bucket)
            order = sorted(range(len(bucket)), key=degrees.__getitem__)
            entry = index[label] = (
                list(map(bucket.__getitem__, order)),
                list(map(degrees.__getitem__, order)),
            )
        return entry

    def _degrees_of(self, vertices: Sequence[int]) -> List[int]:
        """``[d(v) for v in vertices]``, without a Python call per vertex."""
        return list(map(len, map(self.adj.__getitem__, vertices)))

    def label_frequency(self, label: int) -> int:
        """Number of vertices carrying ``label``."""
        return len(self.vertices_with_label(label))

    def nlf(self, v: int) -> Dict[int, int]:
        """Neighborhood Label Frequency of ``v``: label -> #neighbors with it."""
        if self._nlf is None:
            tables: List[Dict[int, int]] = []
            labels = self.labels
            for nbrs in self.adj:
                table: Dict[int, int] = {}
                for w in nbrs:
                    lab = labels[w]
                    table[lab] = table.get(lab, 0) + 1
                tables.append(table)
            self._nlf = tables
        return self._nlf[v]

    def mnd(self, v: int) -> int:
        """Maximum neighbor degree (Definition A.1); 0 for isolated vertices."""
        if self._mnd is None:
            adj = self.adj
            self._mnd = [max((len(adj[w]) for w in nbrs), default=0) for nbrs in adj]
        return self._mnd[v]

    def adjacency_csr(self) -> AdjacencyCSR:
        """The kernel's int32 adjacency CSR ``(indptr, flat)``, lowered once.

        One pair per graph, shared by every compiled plan of every
        matcher over it.  A graph whose storage already *is* this CSR (a
        shared segment or an mmap'd ingest file) starts with its views
        in the slot, so the lowering never runs for it; a
        :class:`~repro.graph.dynamic.DynamicGraph` keeps the pair
        current for its version.  The arrays are never written after
        they are handed out.
        """
        if self._adjacency_csr is None:
            rows = self.adj
            self._adjacency_csr = (
                array("i", accumulate(map(len, rows), initial=0)),
                array("i", list(chain.from_iterable(rows))),
            )
        return self._adjacency_csr

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertex_subset: Iterable[int]) -> Tuple["Graph", List[int]]:
        """Vertex-induced subgraph ``g[V_s]`` (Section 2).

        Returns the subgraph with vertices renumbered ``0..k-1`` plus the
        list mapping new ids back to original ids.
        """
        kept = sorted(set(vertex_subset))
        new_id = {v: i for i, v in enumerate(kept)}
        labels = [self.labels[v] for v in kept]
        edges = [
            (new_id[u], new_id[v])
            for u in kept
            for v in self.adj[u]
            if u < v and v in new_id
        ]
        return Graph(labels, edges), kept

    def is_connected(self) -> bool:
        """True iff the graph is connected (vacuously true when empty)."""
        n = len(self.labels)
        if n == 0:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        adj = self.adj
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists."""
        n = len(self.labels)
        seen = [False] * n
        components: List[List[int]] = []
        adj = self.adj
        for start in range(n):
            if seen[start]:
                continue
            seen[start] = True
            component = [start]
            stack = [start]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        component.append(w)
                        stack.append(w)
            components.append(sorted(component))
        return components

    def bfs_tree(self, root: int) -> Tuple[List[Optional[int]], List[int]]:
        """BFS spanning tree from ``root``.

        Returns ``(parent, level)`` where ``parent[root] is None``,
        ``parent[v] = -1`` for unreachable vertices, and ``level`` is the
        1-based BFS level (0 for unreachable), matching Section 5.1.
        """
        n = len(self.labels)
        parent: List[Optional[int]] = [-1] * n
        level = [0] * n
        parent[root] = None
        level[root] = 1
        queue = [root]
        adj = self.adj
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in adj[u]:
                if parent[w] == -1 and w != root:
                    parent[w] = u
                    level[w] = level[u] + 1
                    queue.append(w)
        return parent, level

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.adj == other.adj

    def __hash__(self) -> int:  # consistent with __eq__: equal graphs share a signature
        return hash(self.signature())

    def __repr__(self) -> str:
        return (
            f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|Sigma|={self.num_labels})"
        )


def graph_from_edge_list(
    num_vertices: int,
    labels: Sequence[int],
    edge_list: Iterable[Tuple[int, int]],
) -> Graph:
    """Build a graph validating that ``labels`` covers ``num_vertices``."""
    if len(labels) != num_vertices:
        raise GraphError(
            f"expected {num_vertices} labels, got {len(labels)}"
        )
    return Graph(labels, edge_list)
