"""Incremental CPI maintenance over mutating data graphs (dynamic matching).

The static pipeline (``cpi_builder`` → ``matcher``) assumes a frozen data
graph: every delta would force a full re-preparation.  This module adds
the delta path:

* :class:`IncrementalMatcher` keeps one prepared plan per registered
  query against a :class:`~repro.graph.dynamic.DynamicGraph` and, on
  each synchronization, *repairs* the plan's CPI instead of rebuilding
  it.  The repair is a memoized re-run of Algorithm 3 + Algorithm 4 that
  recomputes a per-query-vertex unit only when the unit is *dirty* —
  reachable from the delta's touched label classes or downstream of a
  unit whose value actually changed — and otherwise reuses the
  previous sweep's value verbatim.  Because every data-graph read made
  by the builder (label-index scans, label-filtered adjacency scans,
  NLF/MND lookups) is gated on labels drawn from the query, a delta
  whose touched labels are disjoint from the query's labels provably
  leaves the CPI — and the compiled kernel plan — bit-identical, and is
  absorbed with no work at all (the *label-disjoint fast path*).
* :class:`ContinuousQuery` layers a standing-query view on top: register
  once, feed deltas, receive the per-delta stream of newly created
  embeddings and the tombstone stream of destroyed ones.

Soundness is enforced empirically, not just argued: the differential
harness in :mod:`repro.testing.dynamic` replays every delta stream
against a cold re-preparation and demands bit-identical embeddings,
enumeration order, and enumeration counters.

Accounting: the registration's ``build_stats`` accumulates over the
plan's lifetime — the initial build totals, then per-repair counters for
the *recomputed* units only, plus the ``cpi_repairs`` /
``cpi_rebuilds`` / ``dirty_region_size`` outcome counters.  The
``cpi_candidates_topdown`` / ``cpi_candidates_final`` / ``cpi_edges_final``
totals are recorded on full builds (initial and rebuild) only, so they
describe complete CPIs rather than sums of partial sweeps.  Phase timers
accumulate likewise, with the delta-synchronization cost itself under
the ``cpi_repair`` phase.

repro-lint rule R003 (frozen plans) treats this module specially: CPI
mutation is permitted, but only inside functions whose name contains
``repair`` — the repair paths below.  Everywhere else the frozen-plan
contract still holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from ..graph.dynamic import Delta, DynamicGraph
from ..graph.graph import Graph, GraphError
from .cpi import CPI, QueryBFSTree
from .cpi_builder import (
    _adjacency_table,
    _check_deadline,
    _forward_reach,
    _reached,
    _record_build_totals,
    _refine_vertex,
    _root_candidates,
    _rows,
    _verified,
)
from .decomposition import CFLDecomposition, cfl_decompose
from .filters import cand_verify
from .matcher import CFLMatch, MatchReport, PreparedQuery
from .root_selection import select_root
from .stats import (
    SearchStats,
    WorkBudget,
    empty_phase_times,
    merge_phase_times,
    monotonic_now,
)

__all__ = [
    "ContinuousQuery",
    "DeltaEvent",
    "IncrementalMatcher",
    "RepairState",
    "dirty_region",
]


# ----------------------------------------------------------------------
# Repair state: the memoized intermediates of one build/repair sweep
# ----------------------------------------------------------------------
@dataclass
class RepairState:
    """Every per-query-vertex intermediate of the last CPI sweep.

    ``forward[u]`` is Algorithm 3's post-forward-generation candidate
    list, ``topdown[u]`` the post-backward (S-NTE pruned) list,
    ``topdown_adj[u]`` a snapshot of the adjacency table *before*
    bottom-up refinement (refinement mutates tables in place, so the
    snapshot is what lets a later sweep re-refine from scratch), and
    ``final_cands`` / ``final_adj`` the refined values that became the
    CPI.  A repair sweep reuses any unit whose inputs are provably
    untouched and recomputes the rest, so equality of recomputed values
    with the previous sweep stops the dirtiness cascade early.
    """

    tree: QueryBFSTree
    forward: List[List[int]]
    topdown: List[List[int]]
    topdown_adj: List[Dict[int, List[int]]]
    final_cands: List[List[int]]
    final_adj: List[Dict[int, List[int]]]


def dirty_region(query: Graph, dirty_labels: FrozenSet[int]) -> List[int]:
    """Query vertices whose CPI units a delta with these labels can touch.

    A unit's recomputation reads only data vertices labeled with the
    unit's own label or a query-neighbor's label, so the reachable
    region is every vertex carrying — or adjacent to a vertex carrying —
    a dirty label.
    """
    return [
        u
        for u in query.vertices()
        if query.label(u) in dirty_labels
        or any(query.label(x) in dirty_labels for x in query.neighbors(u))
    ]


def _repair_sweep(
    query: Graph,
    data: Graph,
    root: int,
    dirty: Optional[FrozenSet[int]],
    prev: Optional[RepairState],
    stats: SearchStats,
    verify=cand_verify,
    deadline: Optional[float] = None,
) -> Tuple[CPI, RepairState]:
    """One memoized top-down + bottom-up sweep (Algorithms 3 and 4).

    With ``prev is None`` (initial build or rebuild) every unit is dirty
    and the sweep is *exactly* ``build_cpi``: same candidate values, same
    iteration orders, same counter increments.  With a previous state
    and a ``dirty`` label set, a unit is recomputed only when

    * its own label or a read neighbor's label is dirty (its data-graph
      reads may have changed), or
    * a neighbor value it reads — at the same intermediate stage the
      static builder would read it — actually changed in this sweep;

    otherwise the previous value is reused, which is sound because the
    unit's computation is a pure function of those inputs.  Per-filter
    prune counters therefore count only recomputed work on repairs.

    ``verify`` is the CandVerify callable, as in
    :func:`~repro.core.cpi_builder.build_cpi`.
    """
    if prev is not None:
        tree = prev.tree
    else:
        tree = QueryBFSTree.build(query, root)
    n_q = query.num_vertices

    def label_dirty(u: int) -> bool:
        return dirty is None or query.label(u) in dirty

    forward: List[List[int]] = [[] for _ in range(n_q)]
    topdown: List[List[int]] = [[] for _ in range(n_q)]
    topdown_adj: List[Dict[int, List[int]]] = [{} for _ in range(n_q)]
    forward_changed = [False] * n_q
    topdown_changed = [False] * n_q
    adj_changed = [False] * n_q

    visited = [False] * n_q
    visited[root] = True
    pending_same_level: List[List[int]] = [[] for _ in range(n_q)]

    # ---- Root candidates (Algorithm 3, lines 1-2) ----
    if prev is None or label_dirty(root):
        forward[root] = _root_candidates(query, data, root, verify, stats)
        forward_changed[root] = prev is None or forward[root] != prev.forward[root]
    else:
        forward[root] = prev.forward[root]
    topdown[root] = forward[root]
    topdown_changed[root] = forward_changed[root]

    for level_vertices in tree.levels[1:]:
        level = tree.level[level_vertices[0]]

        # The static builder reads same-level earlier vertices at their
        # *forward* value and upper-level vertices at their *topdown*
        # (post-backward) value; mirror both the values and the
        # change flags at exactly those stages.
        def read_value(x: int) -> List[int]:
            return forward[x] if tree.level[x] == level else topdown[x]

        def read_changed(x: int) -> bool:
            return forward_changed[x] if tree.level[x] == level else topdown_changed[x]

        # ---- Forward candidate generation (lines 5-17) ----
        for u in level_vertices:
            _check_deadline(deadline)
            pending: List[int] = []
            sources: List[int] = []
            for u_prime in query.neighbors(u):
                if not visited[u_prime] and tree.level[u_prime] == level:
                    pending.append(u_prime)
                elif visited[u_prime]:
                    sources.append(u_prime)
            pending_same_level[u] = pending
            recompute = (
                prev is None
                or label_dirty(u)
                or any(label_dirty(x) or read_changed(x) for x in sources)
            )
            if recompute:
                within = _forward_reach(
                    query, data, u, [(x, read_value(x)) for x in sources], None
                )
                u_cands = _verified(query, data, u, sorted(within), verify, stats)
                forward[u] = u_cands
                forward_changed[u] = prev is None or u_cands != prev.forward[u]
            else:
                assert prev is not None
                forward[u] = prev.forward[u]
            visited[u] = True

        # ---- Backward S-NTE pruning (lines 18-23) ----
        # Reversed order means each pending neighbor is read at its
        # already-final post-backward value, as in the static builder.
        for u in reversed(level_vertices):
            pending = pending_same_level[u]
            if not pending:
                topdown[u] = forward[u]
                topdown_changed[u] = forward_changed[u]
                continue
            _check_deadline(deadline)
            recompute = (
                prev is None
                or forward_changed[u]
                or label_dirty(u)
                or any(label_dirty(x) or topdown_changed[x] for x in pending)
            )
            if recompute:
                within = _reached(
                    query, data, u, set(forward[u]),
                    [(x, topdown[x]) for x in pending], None,
                )
                kept = [v for v in forward[u] if v in within]
                stats.filter_snte_pruned += len(forward[u]) - len(kept)
                topdown[u] = kept
                topdown_changed[u] = prev is None or kept != prev.topdown[u]
            else:
                assert prev is not None
                topdown[u] = prev.topdown[u]

        # ---- Adjacency construction (lines 24-28) ----
        for u in level_vertices:
            _check_deadline(deadline)
            u_parent = tree.parent[u]
            assert u_parent is not None
            recompute = (
                prev is None
                or label_dirty(u)
                or label_dirty(u_parent)
                or topdown_changed[u]
                or topdown_changed[u_parent]
            )
            if recompute:
                parents = topdown[u_parent]
                table = _adjacency_table(
                    parents,
                    _rows(query, data, None, u, u_parent, parents),
                    set(topdown[u]),
                )
                topdown_adj[u] = table
                adj_changed[u] = prev is None or table != prev.topdown_adj[u]
            else:
                assert prev is not None
                topdown_adj[u] = prev.topdown_adj[u]

    if prev is None:
        stats.cpi_candidates_topdown += sum(len(c) for c in topdown)

    # ---- Bottom-up refinement (Algorithm 4) ----
    # refine(u) reads lower neighbors at their refined value and
    # finalizes the adjacency tables of u's children; the root's (empty)
    # table is final as built.
    final_cands: List[List[int]] = list(topdown)
    final_adj: List[Dict[int, List[int]]] = list(topdown_adj)
    refined_changed = [False] * n_q

    for level_vertices in reversed(tree.levels):
        for u in level_vertices:
            _check_deadline(deadline)
            lower = [
                u_prime
                for u_prime in query.neighbors(u)
                if tree.level[u_prime] > tree.level[u]
            ]
            children = tree.children[u]
            recompute = (
                prev is None
                or label_dirty(u)
                or topdown_changed[u]
                or any(label_dirty(x) or refined_changed[x] for x in lower)
                or any(adj_changed[c] for c in children)
            )
            if not recompute:
                assert prev is not None
                final_cands[u] = prev.final_cands[u]
                for c in children:
                    final_adj[c] = prev.final_adj[c]
                continue
            # Refinement mutates adjacency tables in place, so work on
            # fresh copies and leave the top-down snapshots intact for
            # the next sweep's RepairState.
            work_adj = {c: dict(topdown_adj[c]) for c in children}
            cands_u = cast(List[int], _refine_vertex(
                query, data, u, final_cands[u],
                [(x, final_cands[x]) for x in lower],
                [
                    (work_adj[c], set(final_cands[c])
                     if len(final_cands[c]) < len(topdown[c]) else None)
                    for c in children
                ],
                stats, None,
            ))
            final_cands[u] = cands_u
            for c in children:
                final_adj[c] = work_adj[c]
            refined_changed[u] = prev is None or cands_u != prev.final_cands[u]

    stats.refine_passes += 1
    cpi = CPI(
        tree,
        data,
        cast(List[Sequence[int]], final_cands),
        cast(List[Dict[int, Sequence[int]]], final_adj),
    )
    if prev is None:
        _record_build_totals(cpi, stats)
    state = RepairState(
        tree=tree,
        forward=forward,
        topdown=topdown,
        topdown_adj=topdown_adj,
        final_cands=final_cands,
        final_adj=final_adj,
    )
    return cpi, state


# ----------------------------------------------------------------------
# IncrementalMatcher
# ----------------------------------------------------------------------
@dataclass
class _Registration:
    """One standing query: its current plan plus repair bookkeeping."""

    query: Graph
    query_labels: FrozenSet[int]
    prepared: PreparedQuery
    state: RepairState
    root: int
    version: int
    build_stats: SearchStats
    phase_dict: Dict[str, float] = field(default_factory=empty_phase_times)


class IncrementalMatcher:
    """A :class:`CFLMatch` whose prepared plans survive graph mutation.

    Register a query by simply searching (or calling :meth:`prepare`);
    the plan is kept and, whenever the underlying
    :class:`~repro.graph.dynamic.DynamicGraph` has advanced, lazily
    synchronized by repairing its CPI against the accumulated deltas
    (see :func:`_repair_sweep`).  A full re-preparation happens only
    when repair is unsound or not worthwhile: the dirty region exceeds
    ``rebuild_threshold`` × |V(q)|, the selected root changed, a
    ``remove_vertex`` renumbered vertex ids, or the mutation log no
    longer covers the plan's version.  Outcomes are counted in the
    registration's lifetime ``build_stats`` (``cpi_repairs``,
    ``cpi_rebuilds``, ``dirty_region_size``) and the synchronization
    cost lands in the ``cpi_repair`` phase timer.
    """

    def __init__(
        self,
        data: DynamicGraph,
        engine: str = "kernel",
        rebuild_threshold: float = 0.75,
        mode: str = "cfl",
    ) -> None:
        if not isinstance(data, DynamicGraph):
            raise TypeError("IncrementalMatcher requires a DynamicGraph")
        if not 0.0 <= rebuild_threshold <= 1.0:
            raise ValueError("rebuild_threshold must be within [0, 1]")
        self.data = data
        self.engine = engine
        self.rebuild_threshold = rebuild_threshold
        # plan_cache_size=0: this class owns plan reuse; the inner
        # matcher must never serve a stale cached plan of its own.
        self._matcher = CFLMatch(data, mode=mode, engine=engine, plan_cache_size=0)
        self._plans: Dict[int, _Registration] = {}

    # -- plan lifecycle ------------------------------------------------
    @property
    def matcher(self) -> CFLMatch:
        """The wrapped static matcher (plans it serves are synchronized)."""
        return self._matcher

    def registration_count(self) -> int:
        return len(self._plans)

    def prepare(self, query: Graph) -> PreparedQuery:
        """The synchronized plan for ``query`` (registering it first if new)."""
        reg = self._plans.get(id(query))
        if reg is None:
            reg = self._register(query)
        elif reg.version != self.data.version:
            self._repair_sync(reg)
        return reg.prepared

    def forget(self, query: Graph) -> bool:
        """Drop ``query``'s registration; ``True`` if one existed."""
        return self._plans.pop(id(query), None) is not None

    def _decompose(self, query: Graph) -> Tuple[CFLDecomposition, int]:
        """The CFL decomposition and the CPI root, chosen once: a tree
        query's root is the core vertex the decomposition picked."""
        decomposition = cfl_decompose(
            query, root_chooser=lambda q: select_root(q, self.data)
        )
        if decomposition.is_tree_query:
            return decomposition, decomposition.core[0]
        return decomposition, select_root(
            query, self.data, eligible=decomposition.core
        )

    def _register(self, query: Graph) -> _Registration:
        if query.num_vertices == 0:
            raise GraphError("cannot match an empty query")
        build_stats = SearchStats()
        phase_times = empty_phase_times()
        started = monotonic_now()
        decomposition, root = self._decompose(query)
        phase_times["decomposition"] = monotonic_now() - started
        cpi_started = monotonic_now()
        cpi, state = _repair_sweep(query, self.data, root, None, None, build_stats)
        phase_times["cpi_build"] = monotonic_now() - cpi_started
        prepared = self._matcher._assemble_plan(
            query, decomposition, root, cpi, started,
            phase_times=phase_times, build_stats=build_stats,
        )
        reg = _Registration(
            query=query,
            query_labels=frozenset(query.labels),
            prepared=prepared,
            state=state,
            root=root,
            version=self.data.version,
            build_stats=build_stats,
            phase_dict=phase_times,
        )
        self._plans[id(query)] = reg
        return reg

    # -- synchronization (the R003-permitted repair path) --------------
    def _repair_sync(self, reg: _Registration) -> None:
        """Bring ``reg`` up to ``data.version`` by repair or rebuild."""
        data = self.data
        sync_started = monotonic_now()
        touches = data.touches_since(reg.version)
        if touches is None:
            # The bounded mutation log no longer reaches back to the
            # plan's version: no touched-label information, rebuild.
            self._rebuild_registration(reg, sync_started)
            return
        if any(t.renumbered for t in touches):
            # remove_vertex renumbered ids; candidate lists would need a
            # remap, which a rebuild performs implicitly.
            self._rebuild_registration(reg, sync_started)
            return
        dirty: Set[int] = set()
        for t in touches:
            dirty.update(t.labels)
        if not (dirty & reg.query_labels):
            # Label-disjoint fast path: every data-graph read the
            # builder, CandVerify, and root selection make is gated on
            # query labels, and the kernel plan's data-CSR snapshot
            # differs from the current graph only in rows of touched-label
            # vertices, none of which is a candidate — the whole plan is
            # provably still exact.
            reg.version = data.version
            reg.build_stats.cpi_repairs += 1
            reg.phase_dict["cpi_repair"] += monotonic_now() - sync_started
            return
        query = reg.query
        region = dirty_region(query, frozenset(dirty))
        if len(region) > self.rebuild_threshold * query.num_vertices:
            self._rebuild_registration(reg, sync_started)
            return
        decomposition, root = self._decompose(query)
        if root != reg.root:
            # The BFS tree would change shape; repair memoization is
            # keyed on the old tree, so start over.
            self._rebuild_registration(reg, sync_started)
            return
        stats = reg.build_stats
        cpi, state = _repair_sweep(query, data, root, frozenset(dirty), reg.state, stats)
        stats.cpi_repairs += 1
        stats.dirty_region_size += len(region)
        repair_elapsed = monotonic_now() - sync_started
        scratch = empty_phase_times()
        prepared = self._matcher._assemble_plan(
            query, decomposition, root, cpi, sync_started,
            phase_times=scratch, build_stats=stats,
        )
        merge_phase_times(scratch, reg.phase_dict)
        scratch["cpi_repair"] += repair_elapsed
        reg.prepared = prepared
        reg.state = state
        reg.phase_dict = scratch
        reg.version = data.version

    def _rebuild_registration(self, reg: _Registration, started: float) -> None:
        """Full re-preparation, keeping the registration's lifetime stats."""
        query = reg.query
        stats = reg.build_stats
        phase_times = empty_phase_times()
        build_started = monotonic_now()
        decomposition, root = self._decompose(query)
        phase_times["decomposition"] = monotonic_now() - build_started
        cpi_started = monotonic_now()
        cpi, state = _repair_sweep(query, self.data, root, None, None, stats)
        phase_times["cpi_build"] = monotonic_now() - cpi_started
        prepared = self._matcher._assemble_plan(
            query, decomposition, root, cpi, build_started,
            phase_times=phase_times, build_stats=stats,
        )
        merge_phase_times(phase_times, reg.phase_dict)
        phase_times["cpi_repair"] += monotonic_now() - started
        stats.cpi_rebuilds += 1
        reg.prepared = prepared
        reg.state = state
        reg.root = root
        reg.phase_dict = phase_times
        reg.version = self.data.version

    # -- matching ------------------------------------------------------
    def search(
        self,
        query: Graph,
        limit: Optional[int] = None,
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
        budget: Optional[WorkBudget] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily yield embeddings against the *current* graph version.

        The plan is synchronized eagerly (at call time), then the
        iterator enumerates it; mutating the graph while consuming the
        iterator is undefined, as with any live-graph search.
        """
        prepared = self.prepare(query)
        return self._matcher.search(
            query, limit=limit, prepared=prepared,
            stats=stats, deadline=deadline, budget=budget,
        )

    def count(
        self,
        query: Graph,
        limit: Optional[int] = None,
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
        budget: Optional[WorkBudget] = None,
    ) -> int:
        prepared = self.prepare(query)
        return self._matcher.count(
            query, limit=limit, prepared=prepared,
            stats=stats, deadline=deadline, budget=budget,
        )

    def run(
        self,
        query: Graph,
        limit: Optional[int] = None,
        collect: bool = False,
        deadline: Optional[float] = None,
        max_expansions: Optional[int] = None,
        count_only: bool = False,
    ) -> MatchReport:
        prepared = self.prepare(query)
        return self._matcher.run(
            query, limit=limit, collect=collect, deadline=deadline,
            max_expansions=max_expansions, count_only=count_only,
            prepared=prepared,
        )


# ----------------------------------------------------------------------
# Continuous queries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeltaEvent:
    """The result-set delta one graph mutation produced for one query.

    ``created`` holds embeddings present after the delta but not before;
    ``destroyed`` is the tombstone stream — embeddings the delta killed.
    Both are sorted tuples of (query-vertex-indexed) embedding tuples.
    ``total`` is the full result-set size after the delta.  After a
    renumbering ``remove_vertex``, streams are expressed in the *new*
    vertex ids (an embedding that merely had a vertex renamed appears as
    destroyed + created).
    """

    version: int
    delta: Delta
    created: Tuple[Tuple[int, ...], ...]
    destroyed: Tuple[Tuple[int, ...], ...]
    total: int


class ContinuousQuery:
    """A standing query over a mutating graph.

    Registers ``query`` with an :class:`IncrementalMatcher` and, per
    applied delta, reports which embeddings the delta created and which
    it destroyed.  With a ``limit`` the view tracks only the first
    ``limit`` embeddings in enumeration order, so deltas can appear to
    create/destroy results that merely crossed the cutoff.
    """

    def __init__(
        self,
        matcher: IncrementalMatcher,
        query: Graph,
        limit: Optional[int] = None,
    ) -> None:
        self.matcher = matcher
        self.query = query
        self.limit = limit
        self._current: Tuple[Tuple[int, ...], ...] = self._snapshot()

    @property
    def embeddings(self) -> Tuple[Tuple[int, ...], ...]:
        """The current result set, in enumeration order."""
        return self._current

    def _snapshot(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(self.matcher.search(self.query, limit=self.limit))

    def apply(self, delta: Delta) -> DeltaEvent:
        """Apply one delta to the graph and diff the result set."""
        self.matcher.data.apply(delta)
        return self._refresh(delta)

    def _refresh(self, delta: Delta) -> DeltaEvent:
        before = set(self._current)
        after = self._snapshot()
        after_set = set(after)
        created = tuple(e for e in sorted(after_set) if e not in before)
        destroyed = tuple(e for e in sorted(before) if e not in after_set)
        self._current = after
        return DeltaEvent(
            version=self.matcher.data.version,
            delta=delta,
            created=created,
            destroyed=destroyed,
            total=len(after),
        )

    def feed(self, deltas: Iterable[Delta]) -> Iterator[DeltaEvent]:
        """Apply a delta stream lazily, yielding one event per delta."""
        for delta in deltas:
            yield self.apply(delta)
