"""Dynamic graphs: in-place mutations with incremental index maintenance.

The rest of the repository treats :class:`~repro.graph.graph.Graph` as
frozen — every engine bakes candidate structures against a snapshot.
:class:`DynamicGraph` is the mutation layer underneath the continuous
query machinery (:mod:`repro.core.dynamic`): ``add_edge`` /
``remove_edge`` / ``add_vertex`` / ``remove_vertex`` mutate the graph in
place while *incrementally* maintaining every derived structure the
matchers read — the sorted adjacency rows and neighbor sets, the label
index and the NLF / MND filter tables (Section A.6) — instead of
invalidating and rebuilding them.

The kernel's int32 adjacency CSR (:meth:`~DynamicGraph.adjacency_csr`)
is patched rather than rebuilt: edge deltas record the vertices whose
rows changed, and the next request splices only those rows into a
*new* snapshot, shifting ``indptr`` past them.  Snapshots are
copy-on-write — a compiled plan keeps the pair it was compiled against,
and no later delta writes into it.  Vertex deltas change the row count
(and ``remove_vertex`` may renumber ids), so after one the next request
lowers the whole adjacency again.  The per-label degree index
(:meth:`~repro.graph.graph.Graph.degree_index`) is kept per label: an
edge delta drops the entries of its two endpoint labels (the only
vertices whose degree changed), which the next request re-derives,
while a vertex delta drops the whole index.  Only the structural
signature is dropped on every mutation.

Every mutation bumps a monotonically increasing ``version`` and appends
a :class:`TouchSet` to a bounded mutation log: the set of data labels
whose vertices may have changed candidacy or adjacency.  For an edge
delta ``(u, v)`` that is ``l(u)``, ``l(v)`` and the labels of both
endpoints' neighbors (their MND can change when an endpoint's degree
does); vertex removal additionally touches two-hop labels (its incident
edge removals change its neighbors' degrees).  Consumers such as
:class:`~repro.core.dynamic.IncrementalMatcher` replay the log lazily to
decide which label classes their candidate structures must be repaired
for — and fall back to a full rebuild when the log no longer covers
their last synchronized version.

``remove_vertex`` keeps vertex ids dense by swapping the last vertex
into the freed slot (the classic swap-remove).  When that renumbers a
vertex the touch entry carries ``renumbered=True``, which forces
consumers holding vertex-id-based caches to rebuild.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from .graph import AdjacencyCSR, Graph, GraphError, IntVector

#: The four mutation kinds, in the order the compact codes list them.
DELTA_OPS = ("add_edge", "remove_edge", "add_vertex", "remove_vertex")
_OP_CODES = {
    "add_edge": "ae",
    "remove_edge": "re",
    "add_vertex": "av",
    "remove_vertex": "rv",
}
_CODE_OPS = {code: op for op, code in _OP_CODES.items()}


@dataclass(frozen=True)
class Delta:
    """One graph mutation, parseable from / formattable to one text line.

    The line format (used by ``cfl-match watch --deltas``)::

        ae U V     add edge (U, V)
        re U V     remove edge (U, V)
        av LABEL   add an isolated vertex carrying LABEL (id = |V|)
        rv V       remove vertex V (incident edges first, then swap-remove)
    """

    op: str
    u: int = -1
    v: int = -1
    label: int = -1

    def __post_init__(self) -> None:
        if self.op not in DELTA_OPS:
            raise GraphError(f"unknown delta op {self.op!r}; expected one of {DELTA_OPS}")

    @classmethod
    def add_edge(cls, u: int, v: int) -> "Delta":
        return cls("add_edge", u=u, v=v)

    @classmethod
    def remove_edge(cls, u: int, v: int) -> "Delta":
        return cls("remove_edge", u=u, v=v)

    @classmethod
    def add_vertex(cls, label: int) -> "Delta":
        return cls("add_vertex", label=label)

    @classmethod
    def remove_vertex(cls, v: int) -> "Delta":
        return cls("remove_vertex", v=v)

    @classmethod
    def parse(cls, line: str) -> "Delta":
        """Parse one delta line (inverse of :meth:`format`)."""
        parts = line.split()
        op = _CODE_OPS.get(parts[0]) if parts else None
        if op is None:
            raise GraphError(f"unparseable delta line {line!r}")
        try:
            if op in ("add_edge", "remove_edge"):
                if len(parts) != 3:
                    raise GraphError(f"delta {parts[0]!r} needs two vertex ids: {line!r}")
                return cls(op, u=int(parts[1]), v=int(parts[2]))
            if op == "add_vertex":
                if len(parts) != 2:
                    raise GraphError(f"delta 'av' needs one label: {line!r}")
                return cls(op, label=int(parts[1]))
            if len(parts) != 2:
                raise GraphError(f"delta 'rv' needs one vertex id: {line!r}")
            return cls(op, v=int(parts[1]))
        except ValueError as exc:
            raise GraphError(f"non-integer operand in delta line {line!r}") from exc

    def format(self) -> str:
        """The one-line text form (inverse of :meth:`parse`)."""
        code = _OP_CODES[self.op]
        if self.op in ("add_edge", "remove_edge"):
            return f"{code} {self.u} {self.v}"
        if self.op == "add_vertex":
            return f"{code} {self.label}"
        return f"{code} {self.v}"


def parse_delta_stream(text: str) -> List[Delta]:
    """Parse a deltas file: one delta per line, ``#`` starts a comment."""
    deltas: List[Delta] = []
    for line in text.splitlines():
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        deltas.append(Delta.parse(entry))
    return deltas


@dataclass(frozen=True)
class TouchSet:
    """What one mutation may have invalidated.

    ``labels`` is a superset of the data labels whose vertices can have
    changed adjacency, degree, NLF or MND — the dirty label classes an
    incremental consumer must re-examine.  ``renumbered`` marks a
    swap-remove that moved a vertex id, which invalidates any cache
    keyed by vertex ids outright.
    """

    version: int
    labels: FrozenSet[int]
    renumbered: bool = False


class DynamicGraph(Graph):
    """A :class:`Graph` that supports in-place mutation with a touch log.

    All read accessors behave exactly like the frozen base class at
    every version; the differential suite asserts that each derived
    structure (label index, degree index, NLF, MND, neighbor sets,
    adjacency CSR) stays equal to a from-scratch rebuild after arbitrary
    mutation streams.
    """

    __slots__ = ("_version", "_log", "_csr_dirty")

    # Equality is structural and changes with every delta, so a mutable
    # graph has no stable hash: it cannot be a dict key or set member.
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        labels: Sequence[int],
        edges: Iterable[Tuple[int, int]] = (),
        log_limit: int = 4096,
    ) -> None:
        super().__init__(labels, edges)
        self._version = 0
        self._log: Deque[TouchSet] = deque(maxlen=log_limit)
        #: vertices whose adjacency rows changed since the current
        #: ``adjacency_csr`` snapshot (empty while there is none)
        self._csr_dirty: Set[int] = set()

    @classmethod
    def from_graph(cls, graph: Graph, log_limit: int = 4096) -> "DynamicGraph":
        """A mutable copy of ``graph`` at version 0."""
        return cls(list(graph.labels), graph.edges(), log_limit=log_limit)

    def to_static(self) -> Graph:
        """An independent frozen snapshot of the current state."""
        return Graph(list(self.labels), self.edges())

    # ------------------------------------------------------------------
    # Version / touch log
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter (0 = as constructed)."""
        return self._version

    def touches_since(self, version: int) -> Optional[List[TouchSet]]:
        """Touch entries after ``version``, oldest first.

        Returns ``None`` when the bounded log no longer reaches back to
        ``version`` — the caller must treat everything as dirty.
        """
        if version >= self._version:
            return []
        log = self._log
        if not log or log[0].version > version + 1:
            return None
        return [touch for touch in log if touch.version > version]

    def adjacency_csr(self) -> AdjacencyCSR:
        """The kernel's adjacency CSR for the current version.

        Edge deltas since the last snapshot are spliced into a new pair
        (:func:`patch_adjacency`); with no snapshot — none taken yet, or
        a vertex delta dropped it — the whole adjacency is lowered.  A
        pair handed out earlier is never modified.
        """
        snapshot = self._adjacency_csr
        if snapshot is None:
            snapshot = super().adjacency_csr()
        elif self._csr_dirty:
            snapshot = patch_adjacency(snapshot, self.adj, sorted(self._csr_dirty))
            self._adjacency_csr = snapshot
        self._csr_dirty.clear()
        return snapshot

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> Optional[int]:
        """Apply one :class:`Delta`; returns the new id for ``add_vertex``."""
        if delta.op == "add_edge":
            self.add_edge(delta.u, delta.v)
        elif delta.op == "remove_edge":
            self.remove_edge(delta.u, delta.v)
        elif delta.op == "add_vertex":
            return self.add_vertex(delta.label)
        else:
            self.remove_vertex(delta.v)
        return None

    def can_apply(self, delta: Delta) -> bool:
        """True iff ``delta`` is valid against the current state."""
        n = len(self.labels)
        if delta.op == "add_edge":
            return (
                0 <= delta.u < n
                and 0 <= delta.v < n
                and delta.u != delta.v
                and not self.has_edge(delta.u, delta.v)
            )
        if delta.op == "remove_edge":
            return 0 <= delta.u < n and 0 <= delta.v < n and self.has_edge(delta.u, delta.v)
        if delta.op == "add_vertex":
            return True
        return 0 <= delta.v < n

    def add_vertex(self, label: int) -> int:
        """Append an isolated vertex carrying ``label``; returns its id."""
        v = len(self.labels)
        cast(List[int], self.labels).append(label)
        cast(List[List[int]], self.adj).append([])
        cast(List[Set[int]], self._adj_sets).append(set())
        if self._label_index is not None:
            index = cast(Dict[int, List[int]], self._label_index)
            index.setdefault(label, []).append(v)  # v is the max id: stays sorted
        if self._nlf is not None:
            self._nlf.append({})
        if self._mnd is not None:
            cast(List[int], self._mnd).append(0)
        self._drop_adjacency_csr()
        self._degree_index = None
        self._commit(frozenset((label,)))
        return v

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``(u, v)``; rejects self-loops and duplicates."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        if self.has_edge(u, v):
            raise GraphError(f"duplicate edge ({u}, {v})")
        touched = self._edge_touch_labels(u, v)
        labels = self.labels
        adj = cast(List[List[int]], self.adj)
        insort(adj[u], v)
        insort(adj[v], u)
        self._mark_rows(u, v)
        self._drop_degree_entries(u, v)
        adj_sets = cast(List[Set[int]], self._adj_sets)
        adj_sets[u].add(v)
        adj_sets[v].add(u)
        self._num_edges += 1
        if self._nlf is not None:
            nlf = self._nlf
            nlf[u][labels[v]] = nlf[u].get(labels[v], 0) + 1
            nlf[v][labels[u]] = nlf[v].get(labels[u], 0) + 1
        if self._mnd is not None:
            # Degrees only grew at the endpoints, so MND can only grow —
            # push the new endpoint degrees to every endpoint neighbor.
            mnd = cast(List[int], self._mnd)
            du, dv = len(adj[u]), len(adj[v])
            for w in adj[u]:
                if mnd[w] < du:
                    mnd[w] = du
            for w in adj[v]:
                if mnd[w] < dv:
                    mnd[w] = dv
        self._commit(touched)

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)``; rejects missing edges."""
        self._check_vertex(u)
        self._check_vertex(v)
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) does not exist")
        touched = self._edge_touch_labels(u, v)
        self._remove_edge_inner(u, v)
        self._commit(touched)

    def remove_vertex(self, v: int) -> None:
        """Delete vertex ``v`` and its incident edges (swap-remove).

        The last vertex (id ``|V| - 1``) is moved into slot ``v`` so ids
        stay dense; when that renumbering happens the touch entry
        carries ``renumbered=True``.
        """
        self._check_vertex(v)
        labels = cast(List[int], self.labels)
        adj = cast(List[List[int]], self.adj)
        adj_sets = cast(List[Set[int]], self._adj_sets)
        # Two-hop touch set, computed before any structure changes: the
        # incident edge removals change every neighbor's degree, which
        # can change the MND of the neighbors' neighbors.
        touched: Set[int] = {labels[v]}
        for w in adj[v]:
            touched.add(labels[w])
            for x in adj[w]:
                touched.add(labels[x])
        for w in list(adj[v]):
            self._remove_edge_inner(v, w)
        last = len(labels) - 1
        renumbered = v != last
        if self._label_index is not None:
            self._label_index_remove(labels[v], v)
        if renumbered:
            # Swap-remove: vertex `last` takes over id `v`.
            for w in adj[last]:
                row = adj[w]
                row.remove(last)
                insort(row, v)
                adj_sets[w].discard(last)
                adj_sets[w].add(v)
            labels[v] = labels[last]
            adj[v] = adj[last]
            adj_sets[v] = adj_sets[last]
            if self._label_index is not None:
                self._label_index_remove(labels[last], last)
                index = cast(Dict[int, List[int]], self._label_index)
                insort(index.setdefault(labels[last], []), v)
            if self._nlf is not None:
                self._nlf[v] = self._nlf[last]
            if self._mnd is not None:
                mnd = cast(List[int], self._mnd)
                mnd[v] = mnd[last]
        labels.pop()
        adj.pop()
        adj_sets.pop()
        if self._nlf is not None:
            self._nlf.pop()
        if self._mnd is not None:
            cast(List[int], self._mnd).pop()
        self._drop_adjacency_csr()
        self._degree_index = None
        self._commit(frozenset(touched), renumbered=renumbered)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self.labels):
            raise GraphError(f"vertex {v} outside 0..{len(self.labels) - 1}")

    def _edge_touch_labels(self, u: int, v: int) -> FrozenSet[int]:
        """Dirty labels of an edge delta: endpoints plus their neighbors.

        Neighbor labels are included because the endpoint degrees change,
        which can change every endpoint neighbor's MND.
        """
        labels = self.labels
        touched: Set[int] = {labels[u], labels[v]}
        for w in self.adj[u]:
            touched.add(labels[w])
        for w in self.adj[v]:
            touched.add(labels[w])
        return frozenset(touched)

    def _remove_edge_inner(self, u: int, v: int) -> None:
        """Delete ``(u, v)`` and repair NLF/MND; no version bump."""
        labels = self.labels
        adj = cast(List[List[int]], self.adj)
        adj_sets = cast(List[Set[int]], self._adj_sets)
        adj[u].remove(v)
        adj[v].remove(u)
        self._mark_rows(u, v)
        self._drop_degree_entries(u, v)
        adj_sets[u].discard(v)
        adj_sets[v].discard(u)
        self._num_edges -= 1
        if self._nlf is not None:
            nlf = self._nlf
            for a, b in ((u, v), (v, u)):
                remaining = nlf[a][labels[b]] - 1
                if remaining:
                    nlf[a][labels[b]] = remaining
                else:
                    del nlf[a][labels[b]]
        if self._mnd is not None:
            # Degrees shrank, so affected MNDs must be recomputed exactly:
            # the endpoints (each lost a neighbor) and every remaining
            # neighbor of either endpoint (its neighbor's degree dropped).
            mnd = cast(List[int], self._mnd)
            affected = {u, v}
            affected.update(adj[u])
            affected.update(adj[v])
            for x in sorted(affected):
                mnd[x] = max((len(adj[w]) for w in adj[x]), default=0)

    def _mark_rows(self, u: int, v: int) -> None:
        """Record rows ``u`` and ``v`` for the next CSR patch."""
        if self._adjacency_csr is not None:
            self._csr_dirty.add(u)
            self._csr_dirty.add(v)

    def _drop_degree_entries(self, u: int, v: int) -> None:
        """Forget the degree-index entries of the labels of ``u`` and
        ``v``, the two vertices whose degree an edge delta changed."""
        index = self._degree_index
        if index is not None:
            index.pop(self.labels[u], None)
            index.pop(self.labels[v], None)

    def _drop_adjacency_csr(self) -> None:
        """Forget the CSR snapshot: the row count or the ids changed."""
        self._adjacency_csr = None
        self._csr_dirty.clear()

    def _label_index_remove(self, label: int, v: int) -> None:
        index = cast(Dict[int, List[int]], self._label_index)
        row = index[label]
        row.remove(v)
        if not row:
            del index[label]

    def _commit(self, labels: FrozenSet[int], renumbered: bool = False) -> None:
        """Invalidate snapshot caches, bump the version, log the touch."""
        self._signature = None
        self._version += 1
        self._log.append(TouchSet(self._version, labels, renumbered))


def patch_adjacency(
    snapshot: AdjacencyCSR,
    rows: Sequence[Sequence[int]],
    dirty: Sequence[int],
) -> Tuple["array[int]", "array[int]"]:
    """A new CSR pair equal to lowering ``rows``, built from ``snapshot``.

    ``snapshot`` is the lowering of an earlier state whose rows differ
    from ``rows`` only at the sorted vertex ids ``dirty`` (same vertex
    count).  The unchanged stretches of ``flat`` are block copies; the
    ``dirty`` rows are taken from ``rows``; every ``indptr`` entry past a
    dirty row shifts by that row's change in length.  ``snapshot`` is
    not modified.
    """
    old_indptr, old_flat = snapshot
    blocks = memoryview(old_flat).cast("B")
    width = old_flat.itemsize
    flat = array("i")
    growth: List[int] = []
    start = 0  # first vertex whose row is not yet in ``flat``
    for v in dirty:
        flat.frombytes(blocks[width * old_indptr[start]:width * old_indptr[v]])
        row = rows[v]
        flat.extend(row)
        growth.append(len(row) - (old_indptr[v + 1] - old_indptr[v]))
        start = v + 1
    flat.frombytes(blocks[width * old_indptr[start]:])
    return _shift_indptr(old_indptr, dirty, growth), flat


#: numpy once :func:`_load_numpy` has run, ``None`` before that and when
#: numpy is absent: importing this module never imports numpy
_np: Any = None
_np_loaded = False


def _load_numpy() -> Any:
    """numpy, imported on first use; the outcome, absence included, is
    cached, so only the first call pays for the import attempt."""
    global _np, _np_loaded
    if not _np_loaded:
        _np_loaded = True
        try:
            import numpy as _np
        except ImportError:  # pragma: no cover - numpy is optional
            _np = None
    return _np


def _shift_indptr(
    indptr: IntVector, dirty: Sequence[int], growth: Sequence[int]
) -> "array[int]":
    """``indptr`` with every entry after ``dirty[i]`` raised by the
    running sum of ``growth[:i + 1]``; numpy does it in one pass when
    present, and the pure ``array`` path produces the same bytes."""
    if _load_numpy() is not None:
        shift = _np.zeros(len(indptr), dtype=_np.intc)
        shift[_np.asarray(dirty, dtype=_np.intp) + 1] = growth
        _np.cumsum(shift, dtype=_np.intc, out=shift)
        shift += _np.frombuffer(indptr, dtype=_np.intc)
        return array("i", shift.tobytes())
    bounds = [*dirty[1:], len(indptr) - 1]
    shifted = array("i", indptr[:dirty[0] + 1])
    total = 0
    for v, end, grown in zip(dirty, bounds, growth):
        total += grown
        shifted.extend(map(total.__add__, indptr[v + 1:end + 1]))
    return shifted
