"""CPI construction (Section 5): top-down build + bottom-up refinement.

Minimizing a sound CPI is NP-hard (Lemma 4.1), so the paper constructs a
*small and sound* CPI heuristically in two ``O(|E(G)| x |E(q)|)`` phases:

* **Top-down construction** (Algorithm 3) visits query vertices
  level-by-level.  For every level it (1) generates candidates forward
  using all *visited* neighbors — the BFS parent, upper-level C-NTE
  neighbors and already-processed same-level S-NTE neighbors; (2) prunes
  backward using the *unvisited* S-NTE neighbors; (3) materializes the
  adjacency lists of the level's tree edges.
* **Bottom-up refinement** (Algorithm 4) walks the levels bottom-up,
  pruning every ``u.C`` against its lower-level neighbors (tree children
  and downward C-NTEs) and then shrinking adjacency lists to the refined
  candidate sets.

Together, both directions of every query edge are exploited for pruning
(Table 2).  The *naive* builder of Section 4.1 (label-only candidates) is
also provided — it backs the ``CFL-Match-Naive`` variant of Figure 15.

Steps (1), (2) and Algorithm 4's candidate refinement keep the vertices
in the *reach* (the union of the data rows of ``u'.C``) of every query
neighbor ``u'``, which is what Lemma 5.1's gated counter computes; here
it is one C-level ``set.intersection`` per neighbor (:func:`_reach`).

Each step is written once.  :func:`build_cpi` runs them for a static
build, refining its tables in place.  :func:`repair_cpi` runs the same
two phases for :mod:`repro.core.dynamic`, with a memo (:class:`_Memo`)
of the previous sweep's :class:`RepairState` and the labels a delta
touched: a unit is recomputed only when something it reads may have
changed, refinement works on copies of the tables, and the sweep
returns the state the next repair reuses.

Both builders accept an optional :class:`~repro.core.stats.SearchStats`
(per-filter prune counts and the top-down vs bottom-up refinement delta
— see :mod:`repro.core.stats`) and an optional absolute ``deadline``
checked once per query vertex, so a run whose budget expires *during*
CPI construction terminates with :class:`SearchTimeout` instead of
finishing an arbitrarily expensive build.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graph.graph import Graph
from .core_match import SearchTimeout
from .cpi import CPI, QueryBFSTree
from .filters import (
    VerifiedCandidates,
    cand_verify,
    has_cand_verify_verdict,
    record_rejections,
    verify_candidates,
)
from .stats import SearchStats, monotonic_now

if TYPE_CHECKING:  # pragma: no cover - types only
    from .batch import AuxAdjacencyCache

VerifyFn = Callable[[Graph, Graph, int, int], bool]
#: A query neighbor ``u'`` of the vertex being filtered, with its candidates.
Source = Tuple[int, Sequence[int]]


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and monotonic_now() > deadline:
        raise SearchTimeout


# ----------------------------------------------------------------------
# Set algebra shared by every builder
# ----------------------------------------------------------------------
def _reach(within: Set[int], rows: Iterable[Iterable[int]]) -> Set[int]:
    """The members of ``within`` that appear in some row of ``rows``.

    One ``set.intersection`` over the chained rows, executed in C.  It
    may stop reading rows once every member of ``within`` has been seen.
    """
    return within.intersection(chain.from_iterable(rows))


def _rows(
    query: Graph,
    data: Graph,
    aux: Optional["AuxAdjacencyCache"],
    u: int,
    u_prime: int,
    cands: Sequence[int],
) -> Iterable[Sequence[int]]:
    """The data rows of ``cands`` (candidates of ``u_prime``) as seen
    from ``u``: raw rows, read lazily, or the aux rows restricted to l(u)
    and ``u``'s degree bucket, all fetched now so that the cache builds
    and counts the same rows however far a consumer reads."""
    if aux is None:
        return map(data.adj.__getitem__, cands)
    entry = aux.lookup(query.label(u_prime), query.label(u), query.degree(u))
    return list(map(entry.row, cands))


def _restricted(row: Iterable[int], keep: AbstractSet[int]) -> List[int]:
    """The members of ``row`` that are in ``keep``, in row order."""
    return list(filter(keep.__contains__, row))


def _adjacency_table(
    parents: Sequence[int],
    rows: Iterable[Iterable[int]],
    keep: AbstractSet[int],
) -> Dict[int, List[int]]:
    """Lines 24-28 of Algorithm 3: each parent candidate's row (from
    ``rows``, in ``parents`` order) restricted to ``keep``, the child's
    candidate set; empty rows are left out.  Each row is filtered in C
    with no Python call per row.  (A pipeline of ``map``/``filter``
    over all rows costs more in fixed set-up than it saves on the many
    one- and two-row tables of small queries.)"""
    contains = keep.__contains__
    table: Dict[int, List[int]] = {}
    for v_p, row in zip(parents, rows):
        kept = list(filter(contains, row))
        if kept:
            table[v_p] = kept
    return table


def _first_reach(
    query: Graph, data: Graph, u: int, rows: Iterable[Sequence[int]]
) -> Set[int]:
    """The label-l(u), degree >= d(u) vertices in some row of ``rows``.

    When the label has fewer vertices than the rows have members, the
    degree suffix of ``data.degree_index(l(u))`` is intersected with the
    rows in C; otherwise the members are filtered by label and degree.
    The label's size stands in for the suffix's because it needs no
    bisection, which on rows of a few dozen members costs about as much
    as the filter.
    """
    label, degree = query.label(u), query.degree(u)
    row_list = list(rows)
    if len(data.vertices_with_label(label)) < sum(map(len, row_list)):
        vertices, degrees = data.degree_index(label)
        return _reach(set(vertices[bisect_left(degrees, degree):]), row_list)
    labels, adj = data.labels, data.adj
    reach: Set[int] = set()
    for row in row_list:
        for v in row:
            if labels[v] == label and len(adj[v]) >= degree:
                reach.add(v)
    return reach


def _reached(
    query: Graph,
    data: Graph,
    u: int,
    within: Set[int],
    sources: Sequence[Source],
    aux: Optional["AuxAdjacencyCache"],
) -> Set[int]:
    """The members of ``within`` adjacent to some candidate of every
    neighbor in ``sources``.  With ``within`` = ``u.C``, which passed the
    label and degree tests, this is Algorithm 3's backward S-NTE pruning
    and Algorithm 4's candidate refinement."""
    for u_prime, cands in sources:
        within = _reach(within, _rows(query, data, aux, u, u_prime, cands))
    return within


def _forward_reach(
    query: Graph,
    data: Graph,
    u: int,
    sources: Sequence[Source],
    aux: Optional["AuxAdjacencyCache"],
) -> Set[int]:
    """Lines 5-17 of Algorithm 3 before CandVerify: the label and degree
    survivors adjacent to some candidate of every visited neighbor in
    ``sources`` (never empty: the BFS parent is visited)."""
    first, cands = sources[0]
    within = _first_reach(query, data, u, _rows(query, data, aux, u, first, cands))
    return _reached(query, data, u, within, sources[1:], aux)


def _verified(
    query: Graph,
    data: Graph,
    u: int,
    structural: List[int],
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats],
) -> List[int]:
    """CandVerify over ``u``'s label and degree survivors, in their order.

    A ``verify`` with CandVerify's verdict runs in bulk through
    :func:`verify_candidates`, its rejections counted per filter by
    :func:`record_rejections`; any other callable is asked once per
    vertex, its rejections counted as ``filter_other_pruned``.
    """
    if stats is not None:
        stats.cpi_candidates_structural += len(structural)
    if verify is None or not structural:
        return structural
    if has_cand_verify_verdict(verify):
        verified = verify_candidates(query, data, u, structural)
        passed = verified.passed
        if stats is not None and len(passed) < len(structural):
            record_rejections(stats, verified)
        return passed
    passed = [v for v in structural if verify(query, data, u, v)]
    if stats is not None:
        stats.filter_other_pruned += len(structural) - len(passed)
    return passed


def _root_candidates(
    query: Graph,
    data: Graph,
    root: int,
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats] = None,
) -> List[int]:
    """Lines 1-2 of Algorithm 3: label + degree + CandVerify on the root,
    in vertex-id order, with the degree prunes and per-filter rejections
    counted into ``stats``."""
    vertices, degrees = data.degree_index(query.label(root))
    start = bisect_left(degrees, query.degree(root))
    if stats is not None:
        stats.filter_degree_pruned += start
    return _verified(query, data, root, sorted(vertices[start:]), verify, stats)


def _handed_root_candidates(
    query: Graph,
    data: Graph,
    root: int,
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats],
    root_verified: Optional[VerifiedCandidates],
) -> Optional[List[int]]:
    """The root's candidates from root selection's CandVerify run, with
    the counters :func:`_root_candidates` would have recorded; ``None``
    when there is no handoff or ``verify`` would judge differently."""
    if root_verified is None or not has_cand_verify_verdict(verify):
        return None
    if stats is not None:
        structural = root_verified.structural
        bucket = len(data.vertices_with_label(query.label(root)))
        stats.filter_degree_pruned += bucket - structural
        stats.cpi_candidates_structural += structural
        record_rejections(stats, root_verified)
    return list(root_verified.passed)


def _refine_vertex(
    query: Graph,
    data: Graph,
    u: int,
    cands: Sequence[int],
    lower: Sequence[Source],
    children: Sequence[Tuple[Dict[int, List[int]], Optional[AbstractSet[int]]]],
    stats: Optional[SearchStats],
    aux: Optional["AuxAdjacencyCache"],
) -> Sequence[int]:
    """Algorithm 4 on one query vertex; returns ``u``'s refined candidates
    (``cands`` itself when none is dropped).

    Lines 2-7 keep the members of ``cands`` reached from every lower
    neighbor in ``lower``.  ``children`` pairs each tree child's table,
    edited in place, with the child's refined candidate set, or ``None``
    when refinement dropped none of them (the rows hold only those
    already): dropped candidates' rows go, and lines 8-11 restrict the
    kept rows to the child's set.
    """
    if lower:
        within = _reached(query, data, u, set(cands), lower, aux)
        if len(within) < len(cands):
            dropped = [v for v in cands if v not in within]
            cands = [v for v in cands if v in within]
            if stats is not None:
                stats.refine_candidates_pruned += len(dropped)
            for table, _ in children:
                for v in dropped:
                    removed = table.pop(v, None)
                    if removed is not None and stats is not None:
                        stats.refine_adjacency_pruned += len(removed)
    for table, keep in children:
        if keep is None:
            continue
        for v in cands:
            row = table.get(v)
            if row is None:
                continue
            pruned = _restricted(row, keep)
            if stats is not None:
                stats.refine_adjacency_pruned += len(row) - len(pruned)
            if pruned:
                table[v] = pruned
            else:
                del table[v]
    return cands


def _differs(
    last: CPI, u: int, refined: Sequence[int], adjacency: Sequence[Dict[int, List[int]]]
) -> bool:
    """Whether u's refined candidates or its children's tables differ
    from ``last``'s, in order (key order included)."""
    if refined != last.candidates[u]:
        return True
    for c in last.tree.children[u]:
        table, old = adjacency[c], last.adjacency[c]
        if table != old or list(table) != list(old):
            return True
    return False


def _record_build_totals(cpi: CPI, stats: Optional[SearchStats]) -> None:
    if stats is None:
        return
    stats.cpi_candidates_final += sum(len(c) for c in cpi.candidates)
    stats.cpi_edges_final += sum(
        sum(len(row) for row in table.values()) for table in cpi.adjacency
    )


# ----------------------------------------------------------------------
# Repair memo: which units a sweep recomputes
# ----------------------------------------------------------------------
@dataclass
class RepairState:
    """Every per-query-vertex intermediate of the last CPI sweep.

    ``forward[u]`` is Algorithm 3's candidate list after forward
    generation, ``topdown[u]`` after backward S-NTE pruning, and
    ``topdown_adj[u]`` u's adjacency table before bottom-up refinement;
    ``cpi`` is the refined result.  A sweep with a memo refines copies
    of the tables, so the top-down values stay intact for the next one.
    """

    tree: QueryBFSTree
    forward: List[List[int]]
    topdown: List[List[int]]
    topdown_adj: List[Dict[int, List[int]]]
    cpi: CPI


class _Memo:
    """A repair sweep's reuse rule, and the intermediates it keeps.

    A unit (one query vertex's step of Algorithm 3 or 4) is recomputed
    when something it reads is *stale*: its vertex or a vertex it reads
    carries a label a delta touched, or a value it reads changed in
    this sweep.  Otherwise it takes ``prev``'s value, which is sound
    because a unit is a pure function of what it reads.  ``stale[u]``
    describes u's candidates at the stage the sweep has reached
    (forward, then post-backward, then refined): the stage every later
    unit reads them at.  A same-level neighbor is read at its forward
    value, an upper-level one at its post-backward value and a lower
    one at its refined value.  Without ``prev`` every unit is stale: a
    full build that keeps its intermediates.

    Refinement reuses u's refined child tables along with its refined
    candidates without reading the top-down tables' staleness: a child
    c's refined table holds, for each refined candidate of u, its data
    row cut to c's refined candidates (every such row is non-empty,
    since refinement keeps only candidates with a neighbor in each
    child's set).  It is a function of u's and c's refined candidates
    and of data rows under u's label, which ``stale`` and the dirty
    labels already cover.
    """

    def __init__(
        self,
        tree: QueryBFSTree,
        prev: Optional[RepairState],
        dirty_labels: AbstractSet[int],
    ) -> None:
        query = tree.query
        self.prev = prev
        self.dirty = [
            prev is None or query.label(u) in dirty_labels for u in query.vertices()
        ]
        self.stale = list(self.dirty)
        #: whether a recomputed unit's refined candidates or child
        #: tables differ from ``prev``'s (a reused unit's cannot)
        self.changed = False
        self.forward: List[List[int]] = []
        self.topdown: List[List[int]] = []
        self.topdown_adj: List[Dict[int, List[int]]] = []

    def settle(self, u: int, changed: Callable[[RepairState], bool]) -> None:
        """Mark u's recomputed value stale when u's label is dirty or
        ``changed(prev)`` says it differs."""
        self.stale[u] = self.prev is None or self.dirty[u] or changed(self.prev)

    def reusable(self, u: int, reads: Iterable[int] = ()) -> Optional[RepairState]:
        """The previous sweep's state when u's unit may take its value
        from it: u's candidates and the candidates of ``reads`` are all
        fresh.  ``None`` means recompute."""
        stale = self.stale
        if stale[u] or any(map(stale.__getitem__, reads)):
            return None
        return self.prev


def build_cpi(
    query: Graph,
    data: Graph,
    root: int,
    refine: bool = True,
    verify: Optional[VerifyFn] = cand_verify,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
    root_verified: Optional[VerifiedCandidates] = None,
) -> CPI:
    """Build a small, sound CPI for ``query`` over ``data``.

    ``refine=False`` stops after the top-down phase (the ``CFL-Match-TD``
    variant); ``verify=None`` disables the CandVerify MND/NLF filtering.
    ``aux`` (a :class:`~repro.core.batch.AuxAdjacencyCache`) serves
    pre-intersected label-pair adjacency rows during construction; the
    resulting CPI is identical with or without it.  ``root_verified`` is
    root selection's CandVerify outcome for ``root`` (see
    :func:`~repro.core.root_selection.select_root`): the root step takes
    its candidates and counters from it instead of verifying again; the
    CPI and every counter are identical either way.
    """
    tree = QueryBFSTree.build(query, root)
    root_candidates = _handed_root_candidates(
        query, data, root, verify, stats, root_verified
    )
    return _sweep(tree, data, refine, verify, stats, deadline, aux, root_candidates, None)


def repair_cpi(
    query: Graph,
    data: Graph,
    root: int,
    prev: Optional[RepairState] = None,
    dirty: AbstractSet[int] = frozenset(),
    verify: Optional[VerifyFn] = cand_verify,
    stats: Optional[SearchStats] = None,
) -> Tuple[CPI, RepairState]:
    """:func:`build_cpi` for a plan that later deltas repair, with the
    state the next repair reuses.

    Without ``prev`` this is a full build: the same CPI and counters as
    ``build_cpi``.  With the last sweep's state (over the same ``root``)
    and the labels the deltas since touched in ``dirty``, only the units
    :class:`_Memo` finds stale are recomputed, so the prune counters
    count only recomputed work; the top-down and final totals are
    counted on full builds only.  When every refined candidate list and
    adjacency table equals ``prev``'s, in order, the result is
    ``prev.cpi`` itself, so a caller can tell an unchanged CPI by
    identity.
    """
    tree = QueryBFSTree.build(query, root) if prev is None else prev.tree
    memo = _Memo(tree, prev, dirty)
    cpi = _sweep(tree, data, True, verify, stats, None, None, None, memo)
    if prev is not None and not memo.changed:
        cpi = prev.cpi
    return cpi, RepairState(tree, memo.forward, memo.topdown, memo.topdown_adj, cpi)


def _sweep(
    tree: QueryBFSTree,
    data: Graph,
    refine: bool,
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats],
    deadline: Optional[float],
    aux: Optional["AuxAdjacencyCache"],
    root_candidates: Optional[List[int]],
    memo: Optional[_Memo],
) -> CPI:
    """Algorithm 3, then Algorithm 4 when ``refine``."""
    full = memo is None or memo.prev is None
    cpi = _top_down_construct(
        tree, data, verify, stats, deadline, aux, root_candidates, memo
    )
    if stats is not None and full:
        stats.cpi_candidates_topdown += sum(len(c) for c in cpi.candidates)
    if refine:
        _bottom_up_refine(cpi, stats, deadline, aux, memo)
        if stats is not None:
            stats.refine_passes += 1
    if full:
        _record_build_totals(cpi, stats)
    return cpi


def build_naive_cpi(
    query: Graph,
    data: Graph,
    root: int,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
) -> CPI:
    """Section 4.1's naive sound CPI: ``u.C`` = all vertices labeled l(u)."""
    tree = QueryBFSTree.build(query, root)
    candidates = [list(data.vertices_with_label(query.label(u))) for u in query.vertices()]
    adjacency: List[Dict[int, List[int]]] = [dict() for _ in query.vertices()]
    for u in query.vertices():
        _check_deadline(deadline)
        parent = tree.parent[u]
        if parent is None:
            continue
        parents = candidates[parent]
        adjacency[u] = _adjacency_table(
            parents, _rows(query, data, None, u, parent, parents), set(candidates[u])
        )
    cpi = CPI(tree, data, candidates, adjacency)
    if stats is not None:
        total = sum(len(c) for c in candidates)
        stats.cpi_candidates_structural += total
        stats.cpi_candidates_topdown += total
    _record_build_totals(cpi, stats)
    return cpi


# ----------------------------------------------------------------------
# Top-down construction (Algorithm 3)
# ----------------------------------------------------------------------
def _top_down_construct(
    tree: QueryBFSTree,
    data: Graph,
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
    root_candidates: Optional[List[int]] = None,
    memo: Optional[_Memo] = None,
) -> CPI:
    query = tree.query
    n_q = query.num_vertices
    root = tree.root

    forward: List[List[int]] = [[] for _ in range(n_q)]
    candidates: List[List[int]] = [[] for _ in range(n_q)]
    adjacency: List[Dict[int, List[int]]] = [dict() for _ in range(n_q)]
    cand_sets: List[Optional[Set[int]]] = [None] * n_q

    prev = None if memo is None else memo.reusable(root)
    if prev is not None:
        root_candidates = prev.forward[root]
    elif root_candidates is None:
        root_candidates = _root_candidates(query, data, root, verify, stats)
    candidates[root] = forward[root] = root_candidates
    if memo is not None and prev is None:
        memo.settle(root, lambda last: root_candidates != last.forward[root])

    visited = [False] * n_q
    visited[root] = True
    unvisited_same_level: List[List[int]] = [[] for _ in range(n_q)]

    for level_vertices in tree.levels[1:]:
        # ---- Forward candidate generation (Lines 5-17) ----
        for u in level_vertices:
            _check_deadline(deadline)
            sources: List[Source] = []
            for u_prime in query.neighbors(u):
                if not visited[u_prime] and tree.level[u_prime] == tree.level[u]:
                    unvisited_same_level[u].append(u_prime)
                elif visited[u_prime]:
                    sources.append((u_prime, candidates[u_prime]))
            visited[u] = True
            if memo is not None:
                prev = memo.reusable(u, [x for x, _ in sources])
                if prev is not None:
                    candidates[u] = forward[u] = prev.forward[u]
                    continue
            structural = sorted(_forward_reach(query, data, u, sources, aux))
            candidates[u] = forward[u] = _verified(
                query, data, u, structural, verify, stats
            )
            if memo is not None:
                memo.settle(u, lambda last: forward[u] != last.forward[u])

        # ---- Backward candidate pruning (Lines 18-23) ----
        # In reverse order each pending neighbor is already pruned.
        for u in reversed(level_vertices):
            pending = unvisited_same_level[u]
            if not pending:
                continue
            _check_deadline(deadline)
            if memo is not None:
                prev = memo.reusable(u, pending)
                if prev is not None:
                    candidates[u] = prev.topdown[u]
                    continue
            before = candidates[u]
            within = _reached(
                query, data, u, set(before),
                [(u_prime, candidates[u_prime]) for u_prime in pending], aux,
            )
            kept = candidates[u] = [v for v in before if v in within]
            if stats is not None:
                stats.filter_snte_pruned += len(before) - len(within)
            if memo is not None:
                memo.settle(u, lambda last: kept != last.topdown[u])

        # ---- Adjacency list construction (Lines 24-28) ----
        for u in level_vertices:
            _check_deadline(deadline)
            u_parent = tree.parent[u]
            assert u_parent is not None
            if memo is not None:
                prev = memo.reusable(u, (u_parent,))
                if prev is not None:
                    adjacency[u] = prev.topdown_adj[u]
                    continue
            parents = candidates[u_parent]
            keep = cand_sets[u] = set(candidates[u])
            # With aux, every member of u's candidate set passed the
            # degree >= deg(u) gate, so the bucket-prefiltered aux row
            # keeps exactly the neighbors the raw row would keep.
            adjacency[u] = _adjacency_table(
                parents, _rows(query, data, aux, u, u_parent, parents), keep
            )
    if memo is not None:
        memo.forward = forward
        memo.topdown, memo.topdown_adj = list(candidates), list(adjacency)
    return CPI(
        tree, data, candidates, adjacency,
        [set(c) if s is None else s for c, s in zip(candidates, cand_sets)],
    )


# ----------------------------------------------------------------------
# Bottom-up refinement (Algorithm 4)
# ----------------------------------------------------------------------
def _bottom_up_refine(
    cpi: CPI,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
    memo: Optional[_Memo] = None,
) -> None:
    """Algorithm 4 on ``cpi``, which it edits.  Without ``memo`` the
    adjacency tables are edited in place; with one, a recomputed unit
    refines copies and a fresh one takes the previous CPI's entries."""
    tree = cpi.tree
    query = tree.query
    data = cpi.data
    candidates, cand_sets, adjacency = cpi.candidates, cpi.cand_sets, cpi.adjacency
    shrunk = [False] * query.num_vertices

    for level_vertices in reversed(tree.levels):
        for u in level_vertices:
            _check_deadline(deadline)
            lower = [
                (u_prime, candidates[u_prime])
                for u_prime in query.neighbors(u)
                if tree.level[u_prime] > tree.level[u]
            ]
            children = tree.children[u]
            before = candidates[u]
            if memo is not None:
                prev = memo.reusable(u, [x for x, _ in lower])
                if prev is not None:
                    final = prev.cpi
                    for c in children:
                        adjacency[c] = final.adjacency[c]
                    shrunk[u] = len(final.candidates[u]) < len(before)
                    candidates[u] = final.candidates[u]
                    cand_sets[u] = final.cand_sets[u]
                    continue
                for c in children:
                    adjacency[c] = dict(adjacency[c])
            refined = _refine_vertex(
                query, data, u, before, lower,
                [
                    (adjacency[c], cand_sets[c] if shrunk[c] else None)
                    for c in children
                ],
                stats, aux,
            )
            if refined is not before:
                candidates[u] = refined
                cand_sets[u] = set(refined)
                shrunk[u] = True
            if memo is not None:
                memo.settle(u, lambda last: refined != last.cpi.candidates[u])
                if memo.prev is not None and not memo.changed:
                    memo.changed = _differs(memo.prev.cpi, u, refined, adjacency)
