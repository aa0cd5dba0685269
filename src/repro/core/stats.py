"""Search observability: counters, phase timers, and work budgets.

The paper's central claim — postponing Cartesian products shrinks search
breadth — is only checkable with *counters*, not wall clock.  This module
defines the always-on :class:`SearchStats` object threaded through every
stage of CFL-Match:

* **CandVerify filter prunes** (Section A.6 / Algorithm 6): how many
  candidates each individual filter (degree, MND, NLF) removed;
* **CPI construction totals** (Algorithms 3 and 4): structural survivors,
  same-level non-tree-edge prunes, and the top-down vs bottom-up
  refinement delta;
* **enumeration work** (Algorithm 5 / Section 4.4): per-stage
  (core/forest/leaf) partial-match expansions, backtracks, injectivity
  conflicts, failed ``ValidateNT`` edge probes, and the NEC leaf
  permutations skipped by combination counting (Lemma 4.3).

Counters are plain integer attributes, cheap enough to stay on in
production; they merge across worker processes (``merge``) so the
parallel engine can aggregate chunk results into pool totals.

:class:`WorkBudget` bounds *work* (partial-match expansions) the way the
existing deadline bounds *time*: a search that exceeds its expansion
budget stops with :class:`BudgetExhausted` and partial, uncorrupted
stats (a charge is made **before** the matching expansion is counted, so
``nodes`` never exceeds the budget).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - types only
    from .cpi import CPI


def monotonic_now() -> float:
    """The one clock every core module reads: monotonic seconds.

    Deadlines, phase timers and build timings all go through this seam so
    profile durations reconcile against a single clock and tests can stub
    timing in exactly one place.  Only this module and the report
    assembly in ``matcher.py`` may call :mod:`time` directly
    (enforced by repro-lint rule R005).
    """
    return time.perf_counter()


class BudgetExhausted(Exception):
    """Raised inside a search when its expansion budget runs out.

    The work analogue of :class:`~repro.core.core_match.SearchTimeout`:
    deadlines bound wall-clock, budgets bound partial-match expansions,
    so truncated runs are reproducible across machines.
    """


class WorkBudget:
    """A shared, decrementing expansion allowance.

    One budget instance is shared by every stage of a search (core,
    forest and leaf draw from the same pool).  ``charge`` is called
    *before* the expansion is performed/counted, so on exhaustion the
    recorded counters never exceed ``max_expansions``.
    """

    __slots__ = ("max_expansions", "remaining")

    def __init__(self, max_expansions: int) -> None:
        if max_expansions < 0:
            raise ValueError("max_expansions must be >= 0")
        self.max_expansions = max_expansions
        self.remaining = max_expansions

    def charge(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            self.remaining = 0
            raise BudgetExhausted

    @property
    def spent(self) -> int:
        return self.max_expansions - self.remaining


@dataclass
class SearchStats:
    """Counters for one match run (or one worker's share of it).

    Enumeration counters (filled during Core/Forest/Leaf-Match):

    ``nodes``
        partial-match expansions: candidate vertices accepted into the
        partial embedding (the paper's search breadth, Section 2.1).
    ``embeddings``
        full embeddings emitted (or counted).
    ``core_expansions`` / ``forest_expansions`` / ``leaf_expansions``
        the per-stage split of ``nodes`` (Sections 4.2-4.4); only filled
        when stages run with separate stat objects (see
        :func:`aggregate_stage_stats`).
    ``backtracks``
        retreats to an earlier matching-order position after exhausting
        a slot's candidates (Algorithm 5's implicit backtrack).
    ``injectivity_conflicts``
        candidates rejected because their data vertex was already used
        by the partial embedding.
    ``edge_check_failures``
        failed ``ValidateNT`` probes of backward non-tree edges.
    ``backjumps``
        failing-set backjumps in Core-Match: a finished node's failing
        set excluded its own query vertex, so its remaining sibling
        candidates were skipped (see
        :class:`~repro.core.core_match.CPIBacktracker`).  Always 0 in a
        stage without a backward non-tree edge.
    ``nec_groups``
        leaf NEC combinations explored by the counting path (Lemma 4.3).
    ``nec_permutations_skipped``
        leaf permutations the ``m!`` combination counting avoided
        enumerating (the on-the-fly Cartesian-product compression).
    ``leaf_shortcircuits``
        leaf stages abandoned before any assignment because some NEC
        could not possibly be filled.

    CPI build counters (filled by Algorithms 3+4, Section 5):

    ``filter_degree_pruned``
        root candidates removed by the degree filter.
    ``filter_mnd_pruned`` / ``filter_nlf_pruned``
        candidates removed by the maximum-neighbor-degree filter
        (Definition A.1) and the NLF filter inside CandVerify.
    ``filter_other_pruned``
        candidates removed by a custom ``verify`` callable (ablations).
    ``filter_snte_pruned``
        candidates removed by the backward same-level non-tree-edge
        pruning pass (Algorithm 3, lines 18-23).
    ``cpi_candidates_structural``
        candidates that survived structural generation (label, degree
        and the Lemma 5.1 counting gate) and reached CandVerify.
    ``cpi_candidates_topdown``
        total candidate entries after the top-down phase (Algorithm 3).
    ``refine_candidates_pruned`` / ``refine_adjacency_pruned``
        candidate entries and adjacency entries removed by bottom-up
        refinement (Algorithm 4) — the top-down vs bottom-up delta.
    ``refine_passes``
        bottom-up refinement passes run (0 for the ``td`` ablation).
    ``cpi_candidates_final`` / ``cpi_edges_final``
        candidate / adjacency-list entry totals of the finished CPI.

    Batch auxiliary-adjacency counters (filled by the shared
    pre-intersected label-pair cache in ``repro.core.batch``):

    ``aux_adj_hits``
        CPI-construction lookups served by an existing auxiliary
        adjacency entry (a ``(parent_label, child_label, degree_bucket)``
        row memo reused across the batch).
    ``aux_adj_misses``
        lookups that had to create a new (empty) auxiliary adjacency
        entry.
    ``aux_adj_bytes``
        cumulative bytes of the auxiliary rows stored as CPI builds asked
        for them (monotonic: eviction does not subtract).

    Incremental repair counters (filled by
    :class:`~repro.core.dynamic.IncrementalMatcher` when a prepared
    query is synchronized against a mutated
    :class:`~repro.graph.dynamic.DynamicGraph`):

    ``cpi_repairs``
        deltas absorbed by locally repairing the CPI (including the
        label-disjoint fast path that proves the CPI unchanged).
    ``cpi_rebuilds``
        deltas that forced a full re-preparation (dirty region over the
        threshold, root change, vertex renumbering, or a mutation-log
        gap).
    ``dirty_region_size``
        cumulative number of query vertices inside repaired dirty
        regions (0 for label-disjoint no-op repairs).
    """

    # -- enumeration ---------------------------------------------------
    nodes: int = 0
    embeddings: int = 0
    core_expansions: int = 0
    forest_expansions: int = 0
    leaf_expansions: int = 0
    backtracks: int = 0
    injectivity_conflicts: int = 0
    edge_check_failures: int = 0
    backjumps: int = 0
    nec_groups: int = 0
    nec_permutations_skipped: int = 0
    leaf_shortcircuits: int = 0
    # -- CPI construction ----------------------------------------------
    filter_degree_pruned: int = 0
    filter_mnd_pruned: int = 0
    filter_nlf_pruned: int = 0
    filter_other_pruned: int = 0
    filter_snte_pruned: int = 0
    cpi_candidates_structural: int = 0
    cpi_candidates_topdown: int = 0
    refine_candidates_pruned: int = 0
    refine_adjacency_pruned: int = 0
    refine_passes: int = 0
    cpi_candidates_final: int = 0
    cpi_edges_final: int = 0
    # -- batch auxiliary adjacency -------------------------------------
    aux_adj_hits: int = 0
    aux_adj_misses: int = 0
    aux_adj_bytes: int = 0
    # -- incremental repair --------------------------------------------
    cpi_repairs: int = 0
    cpi_rebuilds: int = 0
    dirty_region_size: int = 0

    # ------------------------------------------------------------------
    def merge(self, other: "SearchStats") -> "SearchStats":
        """Add ``other``'s counters into ``self`` (worker aggregation)."""
        mine, theirs = vars(self), vars(other)
        for name in _COUNTER_NAMES:
            mine[name] += theirs[name]
        return self

    def merged_with(self, other: "SearchStats") -> "SearchStats":
        """A new stats object holding the element-wise sum."""
        return SearchStats().merge(self).merge(other)

    def to_dict(self) -> Dict[str, int]:
        """Every counter by name (stable key order, JSON-ready)."""
        return {name: getattr(self, name) for name in _COUNTER_NAMES}

    @classmethod
    def from_dict(cls, payload: Mapping[str, int]) -> "SearchStats":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        unknown = set(payload).difference(_COUNTER_NAMES)
        if unknown:
            raise ValueError(f"unknown SearchStats counters: {sorted(unknown)}")
        return cls(**dict(payload))

    @classmethod
    def counter_names(cls) -> List[str]:
        return list(_COUNTER_NAMES)

    @property
    def expansions(self) -> int:
        """Alias for ``nodes``: total partial-match expansions."""
        return self.nodes


#: Every counter's name in declaration order, read once: ``merge`` runs
#: for each stage of every run, and ``dataclasses.fields`` rebuilds its
#: answer on each call.
_COUNTER_NAMES = tuple(f.name for f in dataclasses.fields(SearchStats))


def aggregate_stage_stats(
    stage_stats: Mapping[str, SearchStats],
    into: Optional[SearchStats] = None,
) -> SearchStats:
    """Fold per-stage stat objects into one total.

    Sums every counter of the ``"core"``/``"forest"``/``"leaf"`` entries
    into ``into`` (a fresh object when omitted) and records each stage's
    ``nodes`` under the matching ``*_expansions`` counter so the split
    survives aggregation.
    """
    total = into if into is not None else SearchStats()
    for name, stats in stage_stats.items():
        total.merge(stats)
        if name == "core":
            total.core_expansions += stats.nodes
        elif name == "forest":
            total.forest_expansions += stats.nodes
        elif name == "leaf":
            total.leaf_expansions += stats.nodes
    return total


# ----------------------------------------------------------------------
# Phase timers
# ----------------------------------------------------------------------
#: The canonical per-phase timer keys, in pipeline order.  Every
#: preparation path (fresh build, cache bypass, ``prepare_from_cpi`` in a
#: spawn-pool worker) fills all of them, so profile output is never
#: partially zeroed.  ``segment_attach`` is the shared-memory path's
#: attach-and-decode cost (zero on in-process preparations);
#: ``cpi_repair`` is the incremental path's delta-synchronization cost
#: (zero on every plan that never crossed a graph mutation).
PHASE_NAMES = (
    "decomposition", "cpi_build", "ordering", "enumeration",
    "segment_attach", "cpi_repair",
)


def empty_phase_times() -> Dict[str, float]:
    """All phases present, all zero."""
    return {name: 0.0 for name in PHASE_NAMES}


def merge_phase_times(
    into: Dict[str, float], other: Mapping[str, float]
) -> Dict[str, float]:
    """Element-wise sum of phase timers (missing keys count as zero)."""
    for name, value in other.items():
        into[name] = into.get(name, 0.0) + value
    return into


def cpi_level_totals(cpi: "CPI") -> Dict[str, List[int]]:
    """Per-BFS-level CPI totals: candidate entries and adjacency edges.

    The per-level view of Figure 16(d)'s index size — how much of the
    CPI sits at each level of the BFS tree (level 1 = the root).
    """
    levels: Iterable[List[int]] = cpi.tree.levels
    candidates = [
        sum(len(cpi.candidates[u]) for u in level_vertices)
        for level_vertices in levels
    ]
    edges = [
        sum(
            sum(len(row) for row in cpi.adjacency[u].values())
            for u in level_vertices
        )
        for level_vertices in levels
    ]
    return {"candidates": candidates, "adjacency_edges": edges}
