"""Incremental CPI maintenance over mutating data graphs (dynamic matching).

The static pipeline (``cpi_builder`` → ``matcher``) assumes a frozen data
graph: every delta would force a full re-preparation.  This module adds
the delta path:

* :class:`IncrementalMatcher` keeps one prepared plan per registered
  query against a :class:`~repro.graph.dynamic.DynamicGraph` and, on
  each synchronization, *repairs* the plan's CPI instead of rebuilding
  it.  Registration, repair and rebuild all run the static builder's
  one sweep, :func:`~repro.core.cpi_builder.repair_cpi`: a repair hands
  it the previous sweep's state and the delta's touched labels, and
  the sweep recomputes a per-query-vertex unit only when something it
  reads is label-dirty or changed in this sweep, reusing the previous
  value otherwise.  Because every data-graph read made by the builder
  (label-index scans, label-filtered adjacency scans, NLF/MND lookups)
  is gated on labels drawn from the query, a delta whose touched labels
  are disjoint from the query's labels provably leaves the CPI — and
  the compiled kernel plan — bit-identical, and is absorbed with no
  work at all (the *label-disjoint fast path*).
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
accumulate likewise on the registration, with each synchronization's
whole cost also under the ``cpi_repair`` phase; each new plan's
``phase_times`` is a snapshot of them.

A synchronization builds a new plan and never edits a published one, so
repro-lint rule R003 (frozen plans) holds in this module as everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..graph.dynamic import Delta, DynamicGraph
from ..graph.graph import Graph, GraphError
from .cpi_builder import RepairState, repair_cpi
from .decomposition import CFLDecomposition, cfl_decompose
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
    "dirty_region",
]


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
    #: lifetime phase timers; each plan gets a snapshot, so the
    #: label-disjoint fast path never edits a published plan's timers
    phase_dict: Dict[str, float]


class IncrementalMatcher:
    """A :class:`CFLMatch` whose prepared plans survive graph mutation.

    Register a query by simply searching (or calling :meth:`prepare`);
    the plan is kept and, whenever the underlying
    :class:`~repro.graph.dynamic.DynamicGraph` has advanced, lazily
    synchronized by repairing its CPI against the accumulated deltas
    (see :func:`~repro.core.cpi_builder.repair_cpi`).  A full
    re-preparation happens only when repair is unsound: the selected
    root changed, a ``remove_vertex`` renumbered vertex ids, or the
    mutation log no longer covers the plan's version.  Outcomes are
    counted in the registration's lifetime ``build_stats``
    (``cpi_repairs``, ``cpi_rebuilds``, ``dirty_region_size``) and the
    synchronization cost lands in the ``cpi_repair`` phase timer.
    """

    def __init__(self, data: DynamicGraph, engine: str = "kernel") -> None:
        if not isinstance(data, DynamicGraph):
            raise TypeError("IncrementalMatcher requires a DynamicGraph")
        self.data = data
        self.engine = engine
        # plan_cache_size=0: this class owns plan reuse; the inner
        # matcher must never serve a stale cached plan of its own.
        self._matcher = CFLMatch(data, engine=engine, plan_cache_size=0)
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
            if query.num_vertices == 0:
                raise GraphError("cannot match an empty query")
            reg = self._plan(query, monotonic_now())
        elif reg.version != self.data.version:
            reg = self._sync(reg)
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

    def _plan(
        self,
        query: Graph,
        started: float,
        old: Optional[_Registration] = None,
        dirty: FrozenSet[int] = frozenset(),
    ) -> _Registration:
        """``query``'s registration at the graph's current version.

        Synchronizing ``old`` with the (non-empty) labels ``dirty``
        touched since its version repairs ``old``'s CPI when root
        selection still picks ``old.root``.  Otherwise the CPI is built
        afresh: a registration without ``old``, else a rebuild (the BFS
        tree the repair memo is keyed on changed, or there is no touch
        information).  ``old``'s lifetime counters and phase timers
        carry over, and the whole synchronization since ``started`` is
        added to ``cpi_repair``.
        """
        stats = SearchStats() if old is None else old.build_stats
        phase_times = empty_phase_times()
        began = monotonic_now()
        decomposition, root = self._decompose(query)
        swept = monotonic_now()
        phase_times["decomposition"] = swept - began
        prev = old.state if old is not None and dirty and root == old.root else None
        cpi, state = repair_cpi(query, self.data, root, prev, dirty, stats=stats)
        phase_times["cpi_build"] = monotonic_now() - swept
        prepared = self._matcher._assemble_plan(
            query, decomposition, root, cpi, started,
            phase_times=phase_times, build_stats=stats,
        )
        if old is not None:
            merge_phase_times(phase_times, old.phase_dict)
            phase_times["cpi_repair"] += monotonic_now() - started
            if prev is None:
                stats.cpi_rebuilds += 1
            else:
                stats.cpi_repairs += 1
                stats.dirty_region_size += len(dirty_region(query, dirty))
        reg = _Registration(
            query=query,
            query_labels=frozenset(query.labels),
            prepared=prepared,
            state=state,
            root=root,
            version=self.data.version,
            build_stats=stats,
            phase_dict=dict(phase_times),
        )
        self._plans[id(query)] = reg
        return reg

    def _sync(self, reg: _Registration) -> _Registration:
        """``reg`` brought up to ``data.version`` by repair or rebuild."""
        data = self.data
        started = monotonic_now()
        touches = data.touches_since(reg.version)
        if touches is None or any(t.renumbered for t in touches):
            # Either the bounded mutation log no longer reaches back to
            # the plan's version (no touched-label information), or
            # remove_vertex renumbered ids, which a rebuild remaps.
            return self._plan(reg.query, started, reg)
        dirty: Set[int] = set()
        for t in touches:
            dirty.update(t.labels)
        if not (dirty & reg.query_labels):
            # Label-disjoint fast path: every data-graph read the
            # builder, CandVerify, and root selection make is gated on
            # query labels, so the CPI is still exact.  The kernel plan
            # reads the graph's live rows, and an edge delta changes
            # only its two endpoints' rows; both endpoints carry touched
            # labels, so no candidate's row changed either.  (Vertex
            # renumbering never reaches here: it forced a rebuild above.)
            reg.version = data.version
            reg.build_stats.cpi_repairs += 1
            reg.phase_dict["cpi_repair"] += monotonic_now() - started
            return reg
        return self._plan(reg.query, started, reg, frozenset(dirty))

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
