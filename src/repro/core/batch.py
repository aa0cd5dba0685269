"""Batch query engine: shared auxiliary adjacency across one workload.

A single :class:`~repro.core.matcher.CFLMatch` amortizes nothing *across*
queries: every CPI construction re-scans the data graph's adjacency,
re-applying the same label and degree filters query after query, even
when the workload's queries share label pairs (they nearly always do —
a workload over a fixed label alphabet keeps asking for the same
``(label(u'), label(u))`` transitions).  Following GraphMini's lazily
built auxiliary adjacency (see PAPERS.md), this module factors that
repeated work into one batch-scoped cache:

* :class:`AuxAdjacencyCache` — pre-intersected label-pair adjacency
  rows, keyed by ``(parent_label, child_label, degree_bucket)``.  A row
  holds, for one data vertex of ``parent_label``, its sorted neighbors
  with ``child_label`` and degree at least the bucket (the largest power
  of two not exceeding the query vertex's degree — an NLF-style
  bucketing that lets one entry serve every query degree in
  ``[bucket, 2*bucket)``).  A lookup scans nothing: an entry stores a
  row the first time a CPI build asks for it, so only the rows of
  actual candidates are ever built.  A row is stored whole, so a
  truncated query can never publish a partial one.  Entries are
  LRU-evicted under a byte budget.  Hits, misses and bytes are counted
  through :class:`~repro.core.stats.SearchStats`
  (``aux_adj_hits``/``aux_adj_misses``/``aux_adj_bytes``).
* :class:`BatchMatcher` — accepts a list of queries against one data
  graph, groups them by label signature (so aux-cache locality lines
  up), runs them through one matcher whose plan cache is bounded only
  by the bytes its plans hold (enumerating on a
  :class:`~repro.core.parallel.MatcherPool` when ``workers > 1``) and
  returns per-query reports in input order.  Results, enumeration order
  and per-query counters are bit-identical to one-at-a-time serving;
  only the shared build work is amortized.

The cache's correctness argument: a cached row is the label-matching,
degree-bucket-filtered *subsequence* of the raw sorted adjacency row.
Everywhere the builder consumes it, the exact degree condition is either
re-applied (the first reach of candidate generation keeps only vertices
of degree at least the query degree) or implied by membership in an
already-filtered candidate set (every later intersection, and adjacency
construction), so the built CPI is identical with or without the cache.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from .core_match import SearchTimeout
from .matcher import CFLMatch, MatchReport
from .stats import SearchStats, monotonic_now

if TYPE_CHECKING:  # pragma: no cover - types only
    from .parallel import MatcherPool

__all__ = [
    "AuxAdjacencyCache",
    "AuxEntry",
    "BatchMatcher",
    "BatchQueryResult",
    "BatchReport",
    "batch_execution_order",
    "degree_bucket",
    "label_signature",
]

#: Default auxiliary-adjacency byte budget (stored rows only).
DEFAULT_AUX_BYTES = 32 * 1024 * 1024

#: One cache key: (parent label, child label, degree bucket).
AuxKey = Tuple[int, int, int]

#: Structural grouping key for a query: sorted label multiset plus the
#: sorted multiset of label pairs its edges connect.
LabelSignature = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]


def degree_bucket(degree: int) -> int:
    """Largest power of two not exceeding ``degree`` (0 for degree 0).

    Bucketing the degree filter lets one cached entry serve every query
    vertex whose degree falls in ``[bucket, 2*bucket)``; consumers
    re-check the exact degree when it exceeds the bucket.
    """
    if degree <= 0:
        return 0
    return 1 << (degree.bit_length() - 1)


class AuxEntry(Dict[int, Tuple[int, ...]]):
    """One ``(parent_label, child_label, bucket)`` entry: a row memo.

    ``row(v)`` is the sorted tuple of ``v``'s neighbors whose label is
    ``child_label`` and whose degree is at least ``bucket``.  The first
    call for ``v`` filters ``data.adj[v]`` and stores the row whole;
    every later call returns the stored tuple.  ``nbytes`` sums the
    stored rows' sizes, which the owning cache also charges to its
    budget; an entry the cache has dropped is charged to nothing.
    """

    __slots__ = ("bucket", "child_label", "nbytes", "_data", "_cache")

    def __init__(
        self, cache: "AuxAdjacencyCache", child_label: int, bucket: int
    ) -> None:
        super().__init__()
        self.bucket = bucket
        self.child_label = child_label
        self.nbytes = 0
        self._data = cache.data
        self._cache: Optional[AuxAdjacencyCache] = cache

    def __missing__(self, vertex: int) -> Tuple[int, ...]:
        adj = self._data.adj
        labels = self._data.labels
        child_label = self.child_label
        bucket = self.bucket
        row = tuple([
            w for w in adj[vertex]
            if labels[w] == child_label and len(adj[w]) >= bucket
        ])
        self[vertex] = row
        size = sys.getsizeof(row)
        self.nbytes += size
        if self._cache is not None:
            self._cache._charge(self, size)
        return row

    #: the stored row of ``vertex``, filtered and stored on first call
    #: (a C-level subscript: ``dict.__getitem__`` calls ``__missing__``)
    row = dict.__getitem__


class AuxAdjacencyCache:
    """LRU cache of pre-intersected label-pair adjacency over one graph.

    ``stats`` (shared by every query in the batch) receives the
    ``aux_adj_hits``/``aux_adj_misses``/``aux_adj_bytes`` counters; they
    are deliberately *not* charged to per-query build stats so a batch
    run's per-query counters stay bit-identical to one-at-a-time runs.

    Entries belong to the ``data.version`` they were created at: a
    lookup at any other version (the graph is a mutated
    :class:`~repro.graph.dynamic.DynamicGraph`) drops every entry first.
    """

    def __init__(
        self,
        data: Graph,
        max_bytes: int = DEFAULT_AUX_BYTES,
        stats: Optional[SearchStats] = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        self.data = data
        self.max_bytes = max_bytes
        self.stats = stats if stats is not None else SearchStats()
        self._entries: "OrderedDict[AuxKey, AuxEntry]" = OrderedDict()
        self._version = data.version
        self.bytes_in_use = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, parent_label: int, child_label: int, degree: int) -> AuxEntry:
        """The entry serving ``(parent_label, child_label, degree)``; a
        miss creates an empty one, which builds rows as they are asked
        for."""
        if self.data.version != self._version:
            self.clear()
            self._version = self.data.version
        key = (parent_label, child_label, degree_bucket(degree))
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.aux_adj_hits += 1
            return entry
        entry = AuxEntry(self, child_label, key[2])
        self.stats.aux_adj_misses += 1
        self._entries[key] = entry
        return entry

    def _charge(self, filling: AuxEntry, size: int) -> None:
        """Account one stored row of ``filling``, then evict LRU entries
        while over budget — never ``filling`` itself."""
        self.stats.aux_adj_bytes += size
        self.bytes_in_use += size
        entries = self._entries
        while self.bytes_in_use > self.max_bytes:
            key, oldest = next(iter(entries.items()))
            if oldest is filling:
                break
            del entries[key]
            oldest._cache = None
            self.bytes_in_use -= oldest.nbytes
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (byte accounting reset; counters keep)."""
        for entry in self._entries.values():
            entry._cache = None
        self._entries.clear()
        self.bytes_in_use = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.stats.aux_adj_hits + self.stats.aux_adj_misses
        return self.stats.aux_adj_hits / total if total else 0.0


# ----------------------------------------------------------------------
# Batch grouping
# ----------------------------------------------------------------------
def label_signature(query: Graph) -> LabelSignature:
    """Label-structure key: queries sharing it ask for the same label
    pairs, so running them back-to-back maximizes aux locality."""
    labels = tuple(sorted(query.labels))
    pairs: List[Tuple[int, int]] = []
    for a, b in query.edges():
        la, lb = query.label(a), query.label(b)
        pairs.append((la, lb) if la <= lb else (lb, la))
    return labels, tuple(sorted(pairs))


def batch_execution_order(queries: Sequence[Graph]) -> List[int]:
    """Query indices grouped by label signature.

    Groups keep first-appearance order and input order within a group,
    so the schedule is deterministic and results can be reported back in
    input order regardless.
    """
    groups: "OrderedDict[LabelSignature, List[int]]" = OrderedDict()
    for index, query in enumerate(queries):
        groups.setdefault(label_signature(query), []).append(index)
    order: List[int] = []
    for members in groups.values():
        order.extend(members)
    return order


# ----------------------------------------------------------------------
# Batch reports
# ----------------------------------------------------------------------
@dataclass
class BatchQueryResult:
    """One query's outcome inside a batch (mirrors
    :class:`~repro.core.matcher.MatchReport`'s measured quantities)."""

    index: int
    embeddings: int
    status: str
    stats: SearchStats
    build_stats: SearchStats
    ordering_time: float
    enumeration_time: float
    results: Optional[List[Tuple[int, ...]]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "embeddings": self.embeddings,
            "status": self.status,
            "ordering_time_s": self.ordering_time,
            "enumeration_time_s": self.enumeration_time,
            "counters": self.stats.merged_with(self.build_stats).to_dict(),
        }


@dataclass
class BatchReport:
    """Everything one :meth:`BatchMatcher.run` measured."""

    results: List[BatchQueryResult]
    #: batch-scoped counters: the aux cache's hits/misses/bytes during
    #: this run (zero when the cache is disabled)
    aux_stats: SearchStats
    wall_time_s: float
    groups: int
    plan_cache_hits: int
    aux_hit_rate: float = 0.0
    aux_bytes_in_use: int = 0
    workers: int = 1
    #: bytes the matcher's cached plans held when the run ended
    plan_bytes_in_use: int = 0

    @property
    def embeddings(self) -> int:
        return sum(result.embeddings for result in self.results)

    @property
    def queries_per_s(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return len(self.results) / self.wall_time_s

    def totals(self) -> SearchStats:
        """Every counter summed: per-query stats plus the aux counters."""
        total = SearchStats()
        for result in self.results:
            total.merge(result.stats)
            total.merge(result.build_stats)
        total.merge(self.aux_stats)
        return total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "queries": len(self.results),
            "embeddings": self.embeddings,
            "wall_time_s": self.wall_time_s,
            "queries_per_s": self.queries_per_s,
            "groups": self.groups,
            "workers": self.workers,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_bytes_in_use": self.plan_bytes_in_use,
            "aux": {
                "hits": self.aux_stats.aux_adj_hits,
                "misses": self.aux_stats.aux_adj_misses,
                "bytes": self.aux_stats.aux_adj_bytes,
                "bytes_in_use": self.aux_bytes_in_use,
                "hit_rate": self.aux_hit_rate,
            },
            "totals": self.totals().to_dict(),
            "results": [result.to_dict() for result in self.results],
        }


# ----------------------------------------------------------------------
# Batch matcher
# ----------------------------------------------------------------------
class BatchMatcher:
    """Serve a list of queries over one data graph with shared caches.

    Parameters mirror :class:`~repro.core.matcher.CFLMatch` (anything in
    ``matcher_kwargs`` is forwarded); on top of them:

    ``workers``
        ``> 1`` routes enumeration through one
        :class:`~repro.core.parallel.MatcherPool`, built by the first
        run and kept until :meth:`close` (or the end of a ``with``
        block).  :attr:`matcher` still prepares every query, so plans
        survive from run to run; the aux cache stays parent-side —
        workers only enumerate prebuilt plans.
    ``use_aux`` / ``aux_max_bytes``
        enable (default) and bound the shared auxiliary adjacency.

    The matcher's plan cache has no entry cap (``plan_cache_size=None``):
    it keeps every plan that fits in
    :data:`~repro.core.matcher.PLAN_CACHE_BYTES`, so a workload's
    templates are prepared once however they are interleaved.

    Per-query embeddings, enumeration order and ``SearchStats`` are
    bit-identical to running each query through a fresh matcher; the
    batch only removes *repeated* work (plan-cache hits for structurally
    identical queries, aux-cache hits for shared label pairs).
    """

    def __init__(
        self,
        data: Graph,
        workers: int = 1,
        use_aux: bool = True,
        aux_max_bytes: int = DEFAULT_AUX_BYTES,
        **matcher_kwargs: Any,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.data = data
        self.workers = workers
        self.aux: Optional[AuxAdjacencyCache] = (
            AuxAdjacencyCache(data, max_bytes=aux_max_bytes)
            if use_aux
            else None
        )
        self._matcher_kwargs = dict(matcher_kwargs)
        #: prepares every query, inline and pooled alike
        self.matcher = CFLMatch(
            data,
            plan_cache_size=None,
            aux_cache=self.aux,
            **matcher_kwargs,
        )
        #: the worker pool (``workers > 1``), built by the first run and
        #: rebuilt by the first run after ``data.version`` moves
        self._pool: Optional["MatcherPool"] = None

    def __enter__(self) -> "BatchMatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Release the worker pool, if a run built one (idempotent; a
        later run builds a fresh pool).  A batch dropped without it
        releases the pool when it is garbage collected or the
        interpreter exits."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _worker_pool(self) -> "MatcherPool":
        """The pool serving ``workers > 1`` runs, over the graph's current
        version: a pool whose copy of the graph went stale is replaced."""
        if self._pool is not None and self._pool._version != self.data.version:
            self.close()
        if self._pool is None:
            from .parallel import MatcherPool

            pool = MatcherPool(
                self.data, workers=self.workers, plan_cache_size=None,
                aux_cache=self.aux, **self._matcher_kwargs
            )
            pool.matcher = self.matcher
            self._pool = pool
        return self._pool

    def run(
        self,
        queries: Sequence[Graph],
        limit: Optional[int] = None,
        count_only: bool = True,
        collect: bool = False,
        max_expansions: Optional[int] = None,
        time_limit_s: Optional[float] = None,
    ) -> BatchReport:
        """Run every query; results come back in input order.

        ``limit``/``max_expansions``/``time_limit_s`` apply *per query*
        (a truncated query cannot poison the shared caches: plans enter
        the plan cache only when preparation completed, and an aux row
        is stored only once it is whole).  ``collect`` materializes
        embeddings (ignored under ``count_only``, the default).  With
        ``workers > 1`` enumeration runs on the batch's worker pool
        (release it with :meth:`close`); embeddings then arrive in chunk
        completion order.
        """
        pool: Optional["MatcherPool"] = None
        if self.workers > 1:
            if time_limit_s is not None or max_expansions is not None:
                raise ValueError(
                    "per-query budgets (time_limit_s/max_expansions) "
                    "require workers=1"
                )
            pool = self._worker_pool()
        matcher = self.matcher
        started = monotonic_now()
        aux_before = self._aux_counters()
        hits_before = matcher.plan_cache_hits
        outcomes: List[Optional[BatchQueryResult]] = [None] * len(queries)
        order = batch_execution_order(queries)
        for index in order:
            query = queries[index]
            deadline = (
                monotonic_now() + time_limit_s
                if time_limit_s is not None
                else None
            )
            try:
                plan = matcher.prepare(query, deadline=deadline)
            except SearchTimeout:
                outcomes[index] = BatchQueryResult(
                    index=index,
                    embeddings=0,
                    status="timed_out",
                    stats=SearchStats(),
                    build_stats=SearchStats(),
                    ordering_time=0.0,
                    enumeration_time=0.0,
                )
                continue
            if pool is None:
                report = matcher.run(
                    query,
                    limit=limit,
                    collect=collect,
                    count_only=count_only,
                    max_expansions=max_expansions,
                    deadline=deadline,
                    prepared=plan,
                )
            else:
                report = pool.run(
                    query,
                    limit=limit,
                    collect=collect,
                    count_only=count_only,
                    prepared=plan,
                )
            outcomes[index] = self._result_from_report(index, report)
        wall = monotonic_now() - started
        return self._finish(
            outcomes, wall, aux_before,
            groups=_group_count(queries),
            plan_cache_hits=matcher.plan_cache_hits - hits_before,
            plan_bytes=matcher.plan_cache_bytes,
        )

    def _result_from_report(
        self, index: int, report: MatchReport
    ) -> BatchQueryResult:
        return BatchQueryResult(
            index=index,
            embeddings=report.embeddings,
            status=report.status,
            stats=report.stats,
            build_stats=report.build_stats,
            ordering_time=report.ordering_time,
            enumeration_time=report.enumeration_time,
            results=report.results,
        )

    def _aux_counters(self) -> Dict[str, int]:
        return self.aux.stats.to_dict() if self.aux is not None else {}

    def _finish(
        self,
        outcomes: List[Optional[BatchQueryResult]],
        wall: float,
        aux_before: Dict[str, int],
        groups: int,
        plan_cache_hits: int,
        plan_bytes: int,
    ) -> BatchReport:
        results = [outcome for outcome in outcomes if outcome is not None]
        # This run's own share of the cache's lifetime counters: a
        # report must not change when a later run moves them.
        aux_stats = SearchStats.from_dict({
            name: value - aux_before.get(name, 0)
            for name, value in self._aux_counters().items()
        })
        lookups = aux_stats.aux_adj_hits + aux_stats.aux_adj_misses
        return BatchReport(
            results=results,
            aux_stats=aux_stats,
            wall_time_s=wall,
            groups=groups,
            plan_cache_hits=plan_cache_hits,
            aux_hit_rate=aux_stats.aux_adj_hits / lookups if lookups else 0.0,
            aux_bytes_in_use=(
                self.aux.bytes_in_use if self.aux is not None else 0
            ),
            workers=self.workers,
            plan_bytes_in_use=plan_bytes,
        )


def _group_count(queries: Sequence[Graph]) -> int:
    return len({label_signature(query) for query in queries})
