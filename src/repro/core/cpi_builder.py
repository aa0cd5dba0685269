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

Both builders accept an optional :class:`~repro.core.stats.SearchStats`
(per-filter prune counts and the top-down vs bottom-up refinement delta
— see :mod:`repro.core.stats`) and an optional absolute ``deadline``
checked once per query vertex, so a run whose budget expires *during*
CPI construction terminates with :class:`SearchTimeout` instead of
finishing an arbitrarily expensive build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..graph.graph import Graph
from .core_match import SearchTimeout
from .cpi import CPI, QueryBFSTree
from .filters import (
    VerifiedCandidates,
    cand_verify,
    has_cand_verify_verdict,
    make_counting_verify,
    record_rejections,
)
from .stats import SearchStats, monotonic_now

if TYPE_CHECKING:  # pragma: no cover - types only
    from .batch import AuxAdjacencyCache

VerifyFn = Callable[[Graph, Graph, int, int], bool]


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and monotonic_now() > deadline:
        raise SearchTimeout


def _root_candidates(
    query: Graph,
    data: Graph,
    root: int,
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats] = None,
) -> List[int]:
    """Lines 1-2 of Algorithm 3: label + degree + CandVerify on the root.

    ``verify`` must already be counting-wrapped if per-filter attribution
    is wanted; this helper only counts the degree prunes and the
    structural (pre-CandVerify) survivors.
    """
    root_degree = query.degree(root)
    cands: List[int] = []
    for v in data.vertices_with_label(query.label(root)):
        if data.degree(v) < root_degree:
            if stats is not None:
                stats.filter_degree_pruned += 1
            continue
        if stats is not None:
            stats.cpi_candidates_structural += 1
        if verify is not None and not verify(query, data, root, v):
            continue
        cands.append(v)
    return cands


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
        record_rejections(verify, stats, query, data, root, root_verified)
    return list(root_verified.passed)


def _record_build_totals(cpi: CPI, stats: Optional[SearchStats]) -> None:
    if stats is None:
        return
    stats.cpi_candidates_final += sum(len(c) for c in cpi.candidates)
    stats.cpi_edges_final += sum(
        sum(len(row) for row in table.values()) for table in cpi.adjacency
    )


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
    counted = make_counting_verify(verify, stats)
    root_candidates = _handed_root_candidates(
        query, data, root, verify, stats, root_verified
    )
    cpi = _top_down_construct(
        tree, data, counted, stats, deadline, aux, root_candidates
    )
    if stats is not None:
        stats.cpi_candidates_topdown += sum(len(c) for c in cpi.candidates)
    if refine:
        _bottom_up_refine(cpi, stats, deadline, aux)
        if stats is not None:
            stats.refine_passes += 1
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
    cand_sets = [set(c) for c in candidates]
    adjacency: List[Dict[int, List[int]]] = [dict() for _ in query.vertices()]
    for u in query.vertices():
        _check_deadline(deadline)
        parent = tree.parent[u]
        if parent is None:
            continue
        u_set = cand_sets[u]
        table = adjacency[u]
        for v_p in candidates[parent]:
            row = [v for v in data.neighbors(v_p) if v in u_set]
            if row:
                table[v_p] = row
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
) -> CPI:
    query = tree.query
    n_q = query.num_vertices
    root = tree.root

    candidates: List[List[int]] = [[] for _ in range(n_q)]
    adjacency: List[Dict[int, List[int]]] = [dict() for _ in range(n_q)]

    if root_candidates is None:
        root_candidates = _root_candidates(query, data, root, verify, stats)
    candidates[root] = root_candidates

    visited = [False] * n_q
    visited[root] = True
    cnt = [0] * data.num_vertices
    unvisited_same_level: List[List[int]] = [[] for _ in range(n_q)]

    for level_vertices in tree.levels[1:]:
        # ---- Forward candidate generation (Lines 5-17) ----
        for u in level_vertices:
            _check_deadline(deadline)
            total, touched = 0, []
            for u_prime in query.neighbors(u):
                if not visited[u_prime] and tree.level[u_prime] == tree.level[u]:
                    unvisited_same_level[u].append(u_prime)
                elif visited[u_prime]:
                    _accumulate(
                        query, data, u, query.label(u_prime),
                        candidates[u_prime], cnt, touched, total, aux,
                    )
                    total += 1
            u_cands: List[int] = []
            for v in touched:
                if cnt[v] != total:
                    continue
                if stats is not None:
                    stats.cpi_candidates_structural += 1
                if verify is not None and not verify(query, data, u, v):
                    continue
                u_cands.append(v)
            u_cands.sort()
            candidates[u] = u_cands
            visited[u] = True
            for v in touched:
                cnt[v] = 0

        # ---- Backward candidate pruning (Lines 18-23) ----
        for u in reversed(level_vertices):
            pending = unvisited_same_level[u]
            if not pending:
                continue
            _check_deadline(deadline)
            total, touched = 0, []
            for u_prime in pending:
                _accumulate(
                    query, data, u, query.label(u_prime),
                    candidates[u_prime], cnt, touched, total, aux,
                )
                total += 1
            before = len(candidates[u])
            candidates[u] = [v for v in candidates[u] if cnt[v] == total]
            if stats is not None:
                stats.filter_snte_pruned += before - len(candidates[u])
            for v in touched:
                cnt[v] = 0

        # ---- Adjacency list construction (Lines 24-28) ----
        for u in level_vertices:
            _check_deadline(deadline)
            u_parent = tree.parent[u]
            assert u_parent is not None
            u_label = query.label(u)
            u_set = set(candidates[u])
            table = adjacency[u]
            if aux is not None:
                # Every member of u_set passed the degree >= deg(u) gate,
                # so the bucket-prefiltered aux row keeps exactly the
                # label-matching neighbors the raw scan would keep.
                entry = aux.lookup(
                    query.label(u_parent), u_label, query.degree(u)
                )
                for v_p in candidates[u_parent]:
                    row = [v for v in entry.row(v_p) if v in u_set]
                    if row:
                        table[v_p] = row
                continue
            for v_p in candidates[u_parent]:
                row = [
                    v
                    for v in data.neighbors(v_p)
                    if data.label(v) == u_label and v in u_set
                ]
                if row:
                    table[v_p] = row
    return CPI(tree, data, candidates, adjacency)


def _accumulate(
    query: Graph,
    data: Graph,
    u: int,
    parent_label: int,
    neighbor_candidates: List[int],
    cnt: List[int],
    touched: List[int],
    expected: int,
    aux: Optional["AuxAdjacencyCache"] = None,
) -> None:
    """Lines 11-13 of Algorithm 3: bump ``cnt`` of label/degree-feasible
    data neighbors of every candidate of a query neighbor of ``u``.

    ``cnt[v]`` is incremented at most once per query neighbor because the
    bump is gated on ``cnt[v] == expected`` (the neighbors already seen).
    ``parent_label`` is the query label of the neighbor whose candidates
    are being expanded (every candidate carries that data label); with
    ``aux`` the inner scan walks the cached pre-intersected row — the
    label-matching, degree-bucket-filtered subsequence of the raw
    adjacency, in the same sorted order, built on its first use — and
    only re-checks the exact degree when the bucket under-approximates
    it.
    """
    u_label = query.label(u)
    u_degree = query.degree(u)
    data_adj = data.adj
    if aux is not None:
        entry = aux.lookup(parent_label, u_label, u_degree)
        exact_degree = u_degree > entry.bucket
        row = entry.row
        for v_prime in neighbor_candidates:
            for v in row(v_prime):
                if exact_degree and len(data_adj[v]) < u_degree:
                    continue
                if cnt[v] == expected:
                    if expected == 0:
                        touched.append(v)
                    cnt[v] = expected + 1
        return
    data_labels = data.labels
    for v_prime in neighbor_candidates:
        for v in data_adj[v_prime]:
            if data_labels[v] != u_label or len(data_adj[v]) < u_degree:
                continue
            if cnt[v] == expected:
                if expected == 0:
                    touched.append(v)
                cnt[v] = expected + 1


# ----------------------------------------------------------------------
# Bottom-up refinement (Algorithm 4)
# ----------------------------------------------------------------------
def _bottom_up_refine(
    cpi: CPI,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
) -> None:
    tree = cpi.tree
    query = tree.query
    data = cpi.data
    cnt = [0] * data.num_vertices

    for level_vertices in reversed(tree.levels):
        for u in level_vertices:
            _check_deadline(deadline)
            lower = [
                u_prime
                for u_prime in query.neighbors(u)
                if tree.level[u_prime] > tree.level[u]
            ]
            # ---- Candidate refinement (Lines 2-7) ----
            if lower:
                total, touched = 0, []
                for u_prime in lower:
                    _accumulate(
                        query, data, u, query.label(u_prime),
                        cpi.candidates[u_prime], cnt, touched, total, aux,
                    )
                    total += 1
                kept, dropped = [], []
                for v in cpi.candidates[u]:
                    if cnt[v] == total:
                        kept.append(v)
                    else:
                        dropped.append(v)
                if dropped:
                    cpi.candidates[u] = kept
                    cpi.cand_sets[u] = set(kept)
                    if stats is not None:
                        stats.refine_candidates_pruned += len(dropped)
                    for child in tree.children[u]:
                        child_table = cpi.adjacency[child]
                        for v in dropped:
                            removed = child_table.pop(v, None)
                            if removed is not None and stats is not None:
                                stats.refine_adjacency_pruned += len(removed)
                for v in touched:
                    cnt[v] = 0
            # ---- Adjacency list pruning (Lines 8-11) ----
            for child in tree.children[u]:
                child_set = cpi.cand_sets[child]
                child_table = cpi.adjacency[child]
                for v in cpi.candidates[u]:
                    row = child_table.get(v)
                    if row is None:
                        continue
                    pruned = [v_prime for v_prime in row if v_prime in child_set]
                    if stats is not None:
                        stats.refine_adjacency_pruned += len(row) - len(pruned)
                    if pruned:
                        child_table[v] = pruned
                    else:
                        del child_table[v]
