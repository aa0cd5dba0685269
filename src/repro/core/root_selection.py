"""BFS-root selection for the CPI (Section A.6).

The root is drawn from the core-set (it is the first vertex of the
matching order) and should have few candidates but high degree.  Following
the paper: first rank every eligible vertex by ``|C(u)| / d(u)`` using the
light-weight label+degree candidate count, keep the top 3, then recompute
``C(u)`` for those with the full CandVerify filter and pick the minimum.

Both counts read the data graph's per-label degree index
(:meth:`~repro.graph.graph.Graph.degree_index`): the light count is one
bisection, and CandVerify walks only the degree-passing suffix.  The
winner's verified candidates can be handed to the CPI builder
(``verified``), which then skips re-verifying the root.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Set

from ..graph.dynamic import TouchSet
from ..graph.graph import Graph, GraphError
from .filters import VerifiedCandidates, verify_candidates


def _light_candidate_count(query: Graph, data: Graph, u: int) -> int:
    """|C(u)| using only the label and degree filters."""
    _, degrees = data.degree_index(query.label(u))
    return len(degrees) - bisect_left(degrees, query.degree(u))


def _verified_candidates(query: Graph, data: Graph, u: int) -> VerifiedCandidates:
    """CandVerify (MND + NLF) over the label+degree survivors of ``u``,
    with ``passed`` in vertex-id order like the label bucket."""
    vertices, degrees = data.degree_index(query.label(u))
    start = bisect_left(degrees, query.degree(u))
    verified = verify_candidates(query, data, u, vertices[start:])
    verified.passed.sort()
    return verified


class ShortlistState:
    """The CandVerify passing sets of the last shortlist of one query.

    ``touched`` collects the data vertices whose degree, NLF or MND may
    have changed since the sets were computed (see :meth:`touch`).  Every
    other vertex is judged as before, so a kept set needs only its
    touched members re-judged.
    """

    def __init__(self) -> None:
        self.passing: Dict[int, Set[int]] = {}
        self.touched: Set[int] = set()

    def touch(self, data: Graph, touches: Iterable[TouchSet]) -> None:
        """Record the mutations ``touches``, which brought the graph to
        ``data``: their edge endpoints and the endpoints' neighbors in
        ``data``, which include every vertex whose degree, NLF or MND
        they changed.  A vertex delta (``vertices`` is ``None``) drops
        every kept set."""
        if not self.passing:
            return
        endpoints: Set[int] = set()
        for t in touches:
            if t.vertices is None:
                self.passing.clear()
                self.touched.clear()
                return
            endpoints.update(t.vertices)
        touched, adj = self.touched, data.adj
        touched.update(endpoints)
        for v in sorted(endpoints):
            touched.update(adj[v])

    def passing_sets(
        self, query: Graph, data: Graph, shortlist: List[int]
    ) -> Dict[int, Set[int]]:
        """CandVerify's passing set for each vertex of ``shortlist``,
        which become the kept sets: a new vertex's is computed over its
        label and degree survivors, a kept one has its touched members
        re-judged."""
        touched = self.touched
        labels, adj = data.labels, data.adj
        sets: Dict[int, Set[int]] = {}
        for u in shortlist:
            passing = self.passing.get(u)
            if passing is None:
                passing = set(_verified_candidates(query, data, u).passed)
            elif touched:
                passing.difference_update(touched)
                label, degree = query.label(u), query.degree(u)
                survivors = [
                    v for v in touched if labels[v] == label and len(adj[v]) >= degree
                ]
                passing.update(verify_candidates(query, data, u, survivors).passed)
            sets[u] = passing
        self.passing = sets
        self.touched = set()
        return sets


def select_root(
    query: Graph,
    data: Graph,
    eligible: Optional[Iterable[int]] = None,
    top_k: int = 3,
    *,
    verified: Optional[Dict[int, VerifiedCandidates]] = None,
    state: Optional[ShortlistState] = None,
) -> int:
    """Pick the BFS root as ``arg min |C(u)| / d(u)`` (Section A.6).

    ``eligible`` restricts the pool (the CFL framework passes the
    core-set); by default all query vertices compete.  When the
    CandVerify step runs and ``verified`` is given, the chosen root's
    verification outcome is stored in it under the root's id.  With a
    ``state`` the CandVerify counts come from its kept passing sets
    instead (:meth:`ShortlistState.passing_sets`); the root is the same,
    and ``verified`` is left alone.
    """
    pool: List[int] = list(eligible) if eligible is not None else list(query.vertices())
    if not pool:
        raise GraphError("root selection needs at least one eligible vertex")

    def light_ratio(u: int) -> float:
        return _light_candidate_count(query, data, u) / max(query.degree(u), 1)

    pool.sort(key=lambda u: (light_ratio(u), u))
    shortlist = pool[: max(top_k, 1)]
    if len(shortlist) == 1:
        return shortlist[0]

    if state is not None:
        passing = state.passing_sets(query, data, shortlist)
        return min(
            shortlist,
            key=lambda u: (len(passing[u]) / max(query.degree(u), 1), u),
        )
    outcomes = {u: _verified_candidates(query, data, u) for u in shortlist}
    root = min(
        shortlist,
        key=lambda u: (len(outcomes[u].passed) / max(query.degree(u), 1), u),
    )
    if verified is not None:
        verified[root] = outcomes[root]
    return root
