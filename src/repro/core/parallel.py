"""Shared-plan parallel subgraph matching over root-candidate partitions.

Backtracking search parallelizes naturally at the top of the tree: each
embedding maps the matching order's first vertex (the BFS root) to
exactly one of its candidates, so partitioning the root candidate set
partitions the embedding set.

:class:`MatcherPool` is the one parallel engine.  It prepares each query
**once** in the parent — the paper's whole point is that CPI
construction is cheap-and-polynomial while enumeration is the expensive
part, so enumeration is what gets parallelized — on ``data`` itself,
and publishes the plan as a :class:`~repro.core.shm.PlanSegment`: the
compiled kernel stages as contiguous int32 sections the workers consume
as ``memoryview`` slices without reconstruction.  How the workers see
the data graph depends on the start method:

* **fork** (the default where available): workers inherit ``data``
  copy-on-write, together with everything the parent built before they
  started (the kernel's data CSR included); nothing graph-sized is
  copied or pickled.
* **spawn**: the graph lives in a
  :class:`~repro.core.shm.SharedGraphStore` (one shared-memory segment
  per host, reused as-is when ``data`` already is a
  :class:`~repro.core.shm.SharedGraph`, e.g. a ``cfl-match ingest``
  file); workers attach it by name, zero copies.

Workers start with the first query that splits across them, so a pool
whose queries all run inline (``workers=1``, a single root candidate,
an empty CPI) never starts a process.  They restrict the shared plan
through the O(|V(q)|)-cheap ``with_root_candidates`` path instead of
rebuilding the CPI per chunk.  Chunks are *cost-weighted*: per-root work
estimates from the Algorithm 2 cardinality DP
(:func:`~repro.core.cost_model.estimate_root_costs`) are balanced across
``workers * TASKS_PER_WORKER`` buckets by LPT greedy packing.  Dispatch
is wave-based with a shrinking remaining-``limit`` budget per submitted
chunk, and a shared cancellation event stops in-flight workers between
root candidates once a global ``limit`` has been reached.

A serving deployment keeps one pool per data graph (repeated queries hit
the parent-side LRU plan cache and skip ``prepare()`` entirely); the
one-shot entry points :func:`parallel_count`,
:func:`parallel_search_iter`/:func:`parallel_search` and
:func:`parallel_run` are short-lived pools.  Segment lifecycle
(create/attach/close/unlink) is threaded through dispatcher
cancellation and pool shutdown so no ``/dev/shm`` entry outlives its
pool.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue_mod
import weakref
from collections import OrderedDict
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..graph.graph import Graph
from .cost_model import estimate_root_costs
from .matcher import CFLMatch, MatchReport, PreparedQuery
from .shm import (
    GraphHandle,
    PlanSegment,
    SharedGraph,
    SharedGraphStore,
    attach_graph_store,
    attach_plan_segment,
)
from .stats import SearchStats, aggregate_stage_stats, monotonic_now

__all__ = [
    "MatcherPool",
    "parallel_count",
    "parallel_run",
    "parallel_search",
    "parallel_search_iter",
]

#: chunks per worker: enough slack for LPT packing to absorb a
#: mis-estimated root without a long tail on one worker
TASKS_PER_WORKER = 4


def _default_start_method() -> str:
    """``fork`` where the platform offers it (copy-on-write graph
    sharing), ``spawn`` otherwise (macOS default / Windows)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
def _cost_weighted_chunks(
    roots: Sequence[int], costs: Dict[int, int], pieces: int
) -> List[List[int]]:
    """Pack roots into ``pieces`` chunks balancing estimated work.

    Classic LPT greedy: roots sorted by descending cost, each assigned
    to the currently lightest bucket.  Buckets come back heaviest-first
    so the scheduler dispatches the long poles early.  Roots missing
    from ``costs`` (subtree count zero — they prune immediately) get
    unit weight, so uniform costs deal the roots out round-robin.
    """
    pieces = max(1, min(pieces, len(roots)))
    weighted = sorted(
        ((costs.get(v, 0) + 1, v) for v in roots),
        key=lambda pair: (-pair[0], pair[1]),
    )
    heap: List[Tuple[int, int]] = [(0, i) for i in range(pieces)]
    heapify(heap)
    buckets: List[List[int]] = [[] for _ in range(pieces)]
    totals = [0] * pieces
    for weight, root in weighted:
        load, index = heappop(heap)
        buckets[index].append(root)
        totals[index] = load + weight
        heappush(heap, (load + weight, index))
    order = sorted(range(pieces), key=lambda i: (-totals[i], i))
    return [buckets[i] for i in order if buckets[i]]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
# Globals installed by the pool initializer, once per worker process.
_WORKER: Dict[str, Any] = {}

#: per-worker decoded-plan LRU (plan key -> plan)
_PLAN_CACHE_CAPACITY = 8


def _init_pool_worker(
    graph: Union[Graph, GraphHandle], matcher_kwargs: dict, cancel
) -> None:
    """The pool initializer.  ``graph`` is the data graph itself under
    fork (inherited copy-on-write, never pickled) or, under spawn, the
    shared-memory (or mmap-file) handle it is attached through.  Plans
    arrive later, per task, as named segments resolved by
    :func:`_resolve_pool_plan`."""
    store = None
    if not isinstance(graph, Graph):
        store = attach_graph_store(graph)
        graph = store.graph
    _WORKER.clear()
    _WORKER.update(
        matcher=CFLMatch(graph, **matcher_kwargs),
        cancel=cancel,
        store=store,
        plans=OrderedDict(),
    )


def _resolve_pool_plan(key: int, name: str) -> Optional[PreparedQuery]:
    """Attach and decode (at most once per worker per plan epoch) the
    plan segment named in a task; cache keyed by the pool's plan epoch
    so a re-prepared query gets a fresh attach.

    Returns ``None`` when the segment is already unlinked *and* the
    cluster is cancelling — the pool-shutdown race, not an error; the
    task then reports an empty result instead of crashing the worker."""
    plans: "OrderedDict[int, Tuple[PreparedQuery, PlanSegment]]" = _WORKER["plans"]
    entry = plans.get(key)
    if entry is not None:
        plans.move_to_end(key)
        return entry[0]
    try:
        plan, segment = attach_plan_segment(_WORKER["matcher"], name)
    except FileNotFoundError:
        cancel = _WORKER["cancel"]
        if cancel is not None and cancel.is_set():
            return None
        raise
    plans[key] = (plan, segment)
    while len(plans) > _PLAN_CACHE_CAPACITY:
        _, evicted = plans.popitem(last=False)
        evicted[1].close()
    return plan


def _count_roots(
    matcher: CFLMatch, plan: PreparedQuery, roots: List[int], budget: Optional[int], cancel
) -> Tuple[int, Dict[str, int]]:
    """Count the chunk's partition, honoring budget and cancellation.

    Without a budget there is nothing to cancel for, so the whole chunk
    runs in one restriction; with one, restricting per root candidate
    (cheap — see ``CPI.with_root_candidates``) lets the worker notice a
    cluster-wide stop between roots instead of only between chunks.

    Returns ``(count, counters)`` — the chunk's enumeration counters
    travel back with the result so the parent can aggregate pool totals.
    """
    stats = SearchStats()
    stage_stats: dict = {}
    if cancel is not None and cancel.is_set():
        return 0, stats.to_dict()
    if budget is None:
        total = matcher.count(
            plan.query, prepared=plan, root_candidates=roots,
            stats=stats, stage_stats=stage_stats,
        )
    else:
        total = 0
        for root in roots:
            if total >= budget or (cancel is not None and cancel.is_set()):
                break
            total += matcher.count(
                plan.query, limit=budget - total, prepared=plan,
                root_candidates=(root,), stats=stats, stage_stats=stage_stats,
            )
    aggregate_stage_stats(stage_stats, into=stats)
    return total, stats.to_dict()


def _search_roots(
    matcher: CFLMatch, plan: PreparedQuery, roots: List[int], budget: Optional[int], cancel
) -> Tuple[List[Tuple[int, ...]], Dict[str, int]]:
    stats = SearchStats()
    stage_stats: dict = {}
    results: List[Tuple[int, ...]] = []
    if cancel is not None and cancel.is_set():
        return results, stats.to_dict()
    if budget is None:
        results = list(
            matcher.search(
                plan.query, prepared=plan, root_candidates=roots,
                stats=stats, stage_stats=stage_stats,
            )
        )
    else:
        for root in roots:
            if len(results) >= budget or (cancel is not None and cancel.is_set()):
                break
            results.extend(
                matcher.search(
                    plan.query,
                    limit=budget - len(results),
                    prepared=plan,
                    root_candidates=(root,),
                    stats=stats,
                    stage_stats=stage_stats,
                )
            )
    aggregate_stage_stats(stage_stats, into=stats)
    return results, stats.to_dict()

def _pool_count_task(
    args: Tuple[int, str, List[int], Optional[int]]
) -> Tuple[int, Dict[str, int]]:
    key, name, roots, budget = args
    plan = _resolve_pool_plan(key, name)
    if plan is None:
        return 0, SearchStats().to_dict()
    return _count_roots(_WORKER["matcher"], plan, roots, budget, _WORKER["cancel"])


def _pool_search_task(
    args: Tuple[int, str, List[int], Optional[int]]
) -> Tuple[List[Tuple[int, ...]], Dict[str, int]]:
    key, name, roots, budget = args
    plan = _resolve_pool_plan(key, name)
    if plan is None:
        return [], SearchStats().to_dict()
    return _search_roots(_WORKER["matcher"], plan, roots, budget, _WORKER["cancel"])


# ----------------------------------------------------------------------
# Parent-side dispatcher
# ----------------------------------------------------------------------
def _dispatch(
    pool,
    task: Callable[[tuple], Any],
    make_args: Callable[[List[int], Optional[int]], tuple],
    chunks: List[List[int]],
    limit: Optional[int],
    cancel,
    measure: Callable[[Any], int],
    max_inflight: int,
) -> Iterator[Any]:
    """Submit chunks in waves, yielding raw results as they complete.

    Each submission captures the *current* remaining budget, so later
    chunks are dispatched with shrunken limits; once the measured
    results saturate ``limit`` the shared ``cancel`` event is set, the
    backlog is dropped, and only the (budget-bounded) in-flight tasks
    drain.  Uses ``apply_async`` + a local queue rather than
    ``pool.map`` precisely to avoid the full-barrier semantics.
    """
    results: "_queue_mod.Queue" = _queue_mod.Queue()
    state = {"remaining": limit, "next": 0, "inflight": 0}

    def submit_more() -> None:
        while (
            state["next"] < len(chunks)
            and state["inflight"] < max_inflight
            and (state["remaining"] is None or state["remaining"] > 0)
        ):
            chunk = chunks[state["next"]]
            state["next"] += 1
            state["inflight"] += 1
            pool.apply_async(
                task,
                (make_args(chunk, state["remaining"]),),
                callback=lambda value: results.put(("ok", value)),
                error_callback=lambda exc: results.put(("error", exc)),
            )

    submit_more()
    while state["inflight"]:
        kind, payload = results.get()
        state["inflight"] -= 1
        if kind == "error":
            cancel.set()
            raise payload
        if state["remaining"] is not None:
            state["remaining"] -= measure(payload)
            if state["remaining"] <= 0:
                cancel.set()
        yield payload
        submit_more()



def _shared_store(
    data: Graph,
) -> Tuple[GraphHandle, Optional[SharedGraphStore]]:
    """A handle spawn workers can attach ``data`` through.  Creates a
    segment only when the graph is not already shared; a created store
    is the caller's to unlink (the second element, ``None`` when
    reused)."""
    if isinstance(data, SharedGraph):
        return data.worker_handle(), None
    store = SharedGraphStore.create(data)
    try:
        return store.worker_handle(), store
    except BaseException:
        # the caller never received the store, so nobody else can unlink
        # the freshly created segment name
        store.unlink()
        store.close()
        raise


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class _PoolResources:
    """What a :class:`MatcherPool` must release: its worker processes,
    its plan segments and the graph store it made for spawn workers.

    Kept apart from the pool so that a ``weakref.finalize`` on the pool
    can release them when it is dropped (or the interpreter exits)
    without :meth:`MatcherPool.close`.  The segments are never
    registered with the ``resource_tracker`` (see
    :class:`~repro.core.shm._Segment`), so nothing else unlinks their
    names."""

    def __init__(self, cancel) -> None:
        self.cancel = cancel
        #: the worker processes, started by the first query that splits
        self.workers = None
        #: the store created for spawn workers (``None`` under fork or
        #: when ``data`` was already shared)
        self.store: Optional[SharedGraphStore] = None
        #: query signature -> (plan epoch key, shared plan segment)
        self.segments: Dict[tuple, Tuple[int, PlanSegment]] = {}
        self._owner_pid = os.getpid()

    def release(self) -> None:
        # A forked worker inherits a copy of this object; the names it
        # holds belong to the process that created them.
        if os.getpid() != self._owner_pid:
            return
        self.cancel.set()
        if self.workers is not None:
            self.workers.terminate()
            self.workers.join()
            self.workers = None
        while self.segments:
            _, (_, segment) = self.segments.popitem()
            segment.unlink()
            segment.close()
        if self.store is not None:
            self.store.unlink()
            self.store.close()
            self.store = None


class MatcherPool:
    """A worker pool serving queries over one data graph.

    A serving deployment keeps one ``MatcherPool`` per data graph and
    pushes every query through it::

        with MatcherPool(data, workers=4) as pool:
            n = pool.count(query_a)
            for embedding in pool.search_iter(query_b, limit=100):
                ...

    Per query, :attr:`matcher` prepares the plan once on ``data``
    (repeated queries hit its LRU plan cache and skip even that); the
    pool encodes it into a shared :class:`~repro.core.shm.PlanSegment`
    a single time and ships only ``(epoch key, segment name)`` alongside
    each chunk.  Workers attach and decode it at most once each and keep
    a small plan LRU, so a hot query costs the workers no preparation at
    all.  They see ``data`` copy-on-write under fork, or through a
    :class:`~repro.core.shm.SharedGraphStore` under spawn, and start
    with the first query that splits across them (see the module docs).
    :meth:`close` terminates them and unlinks every segment the pool
    created; a pool dropped without it does the same when it is garbage
    collected or the interpreter exits.  Not thread-safe: run one query
    at a time per pool.  The workers hold ``data`` as it was at
    construction, so once a
    :class:`~repro.graph.dynamic.DynamicGraph` moves to a new version
    every query method raises instead of answering from a stale copy.
    """

    def __init__(
        self,
        data: Graph,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        plan_cache_size: Optional[int] = 16,
        aux_cache=None,
        **matcher_kwargs,
    ):
        self.data = data
        #: the graph version the workers' copy holds (see _require_open)
        self._version = data.version
        self.workers = workers if workers is not None else _default_workers()
        #: the parent-side matcher that prepares every query on ``data``.
        #: A caller may install its own matcher over ``data`` built with
        #: the same keyword arguments; BatchMatcher does, so one plan
        #: cache serves its inline and its pooled runs.  ``aux_cache``
        #: stays strictly parent-side: workers only enumerate prebuilt
        #: plans, so it is not part of the worker initargs.
        self.matcher = CFLMatch(
            data, plan_cache_size=plan_cache_size, aux_cache=aux_cache,
            **matcher_kwargs,
        )
        self._matcher_kwargs = matcher_kwargs
        self.start_method = start_method or _default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._cancel = self._ctx.Event()
        self._resources = _PoolResources(self._cancel)
        self._release = weakref.finalize(self, self._resources.release)
        self._next_key = 0
        #: enumeration counters aggregated over every query this pool has
        #: served (worker chunks and inline runs alike)
        self.total_stats = SearchStats()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "MatcherPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Terminate the workers and unlink every shared segment this
        pool created; the pool cannot be used afterwards."""
        self._release()

    # -- internals -----------------------------------------------------
    def _require_open(self) -> None:
        if not self._release.alive:
            raise RuntimeError("MatcherPool is closed")
        if self.data.version != self._version:
            raise RuntimeError(
                f"MatcherPool's data graph moved from version {self._version} "
                f"to {self.data.version} after the pool copied it; "
                f"build a new pool"
            )

    def _worker_pool(self):
        """The worker processes, started on first use.  Under fork they
        inherit ``data`` and whatever the parent has built on it so far;
        under spawn they attach a shared store of it."""
        resources = self._resources
        if resources.workers is None:
            graph: Union[Graph, GraphHandle] = self.data
            if self.start_method != "fork":
                graph, resources.store = _shared_store(self.data)
            resources.workers = self._ctx.Pool(
                self.workers,
                initializer=_init_pool_worker,
                initargs=(graph, self._matcher_kwargs, self._cancel),
            )
        return resources.workers

    def _plan_segment(self, query: Graph, plan: PreparedQuery) -> Tuple[int, str]:
        """Encode the plan into a shared segment once per distinct query.

        A segment lives as long as the matcher's plan cache holds its
        plan (the one being served excepted): before creating a segment,
        unlink those whose plans the cache has dropped since — attached
        workers keep their live mappings, POSIX semantics."""
        signature = query.signature()
        segments = self._resources.segments
        entry = segments.get(signature)
        if entry is not None:
            return entry[0], entry[1].name
        for old in [
            old for old in segments if not self.matcher.has_cached_plan(old)
        ]:
            _, dropped = segments.pop(old)
            dropped.unlink()
            dropped.close()
        key = self._next_key
        self._next_key += 1
        segment = PlanSegment.create(plan)
        segments[signature] = (key, segment)
        return key, segment.name

    def _chunks(self, plan: PreparedQuery) -> Optional[List[List[int]]]:
        """The plan's root candidates as cost-weighted chunks, or
        ``None`` when the query runs inline (one worker, one root)."""
        roots = plan.cpi.candidates[plan.root]
        if self.workers <= 1 or len(roots) <= 1:
            return None
        return _cost_weighted_chunks(
            roots, estimate_root_costs(plan.cpi), self.workers * TASKS_PER_WORKER
        )

    def _run_chunks(
        self,
        query: Graph,
        plan: PreparedQuery,
        chunks: List[List[int]],
        task: Callable[[tuple], Any],
        limit: Optional[int],
        measure: Callable[[Any], int],
    ) -> Iterator[Any]:
        """Publish the plan, start the workers if this is the first
        split query, and stream the chunks' raw results."""
        key, name = self._plan_segment(query, plan)
        self._cancel.clear()
        return _dispatch(
            self._worker_pool(), task, lambda c, b: (key, name, c, b),
            chunks, limit, self._cancel, measure,
            self.workers if limit is not None else len(chunks),
        )

    def _absorb(self, chunk: SearchStats, stats: Optional[SearchStats]) -> None:
        self.total_stats.merge(chunk)
        if stats is not None:
            stats.merge(chunk)

    def _count(
        self,
        query: Graph,
        plan: PreparedQuery,
        limit: Optional[int],
        stats: Optional[SearchStats],
    ) -> int:
        if plan.cpi.is_empty() or (limit is not None and limit <= 0):
            return 0
        chunks = self._chunks(plan)
        if chunks is None:
            local = SearchStats()
            stage_stats: dict = {}
            total = self.matcher.count(
                query, limit=limit, prepared=plan, stats=local,
                stage_stats=stage_stats,
            )
            aggregate_stage_stats(stage_stats, into=local)
            self._absorb(local, stats)
            return total
        total = 0
        for part, chunk_stats in self._run_chunks(
            query, plan, chunks, _pool_count_task, limit,
            lambda value: value[0],
        ):
            total += part
            self._absorb(SearchStats.from_dict(chunk_stats), stats)
        return total if limit is None else min(total, limit)

    def _search_iter(
        self,
        query: Graph,
        plan: PreparedQuery,
        limit: Optional[int],
        stats: Optional[SearchStats],
    ) -> Iterator[Tuple[int, ...]]:
        if plan.cpi.is_empty() or (limit is not None and limit <= 0):
            return
        chunks = self._chunks(plan)
        if chunks is None:
            local = SearchStats()
            stage_stats: dict = {}
            yield from self.matcher.search(
                query, limit=limit, prepared=plan, stats=local,
                stage_stats=stage_stats,
            )
            aggregate_stage_stats(stage_stats, into=local)
            self._absorb(local, stats)
            return
        emitted = 0
        try:
            for part, chunk_stats in self._run_chunks(
                query, plan, chunks, _pool_search_task, limit,
                lambda value: len(value[0]),
            ):
                self._absorb(SearchStats.from_dict(chunk_stats), stats)
                for embedding in part:
                    yield embedding
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        return
        finally:
            # Abandoned mid-stream: stop in-flight work so the pool is
            # immediately reusable; the next query clears the event.
            self._cancel.set()

    # -- query API -----------------------------------------------------
    def count(
        self,
        query: Graph,
        limit: Optional[int] = None,
        stats: Optional[SearchStats] = None,
    ) -> int:
        """Parallel :meth:`CFLMatch.count` through the pool.

        ``stats`` accumulates this call's worker-aggregated enumeration
        counters; :attr:`total_stats` always accumulates them."""
        if limit is not None and limit <= 0:
            return 0
        self._require_open()
        return self._count(query, self.matcher.prepare(query), limit, stats)

    def search_iter(
        self,
        query: Graph,
        limit: Optional[int] = None,
        stats: Optional[SearchStats] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Stream embeddings through the pool.

        The embedding *set* equals the sequential one; arrival order
        follows chunk completion.  Abandoning the iterator early cancels
        in-flight workers."""
        if limit is not None and limit <= 0:
            return
        self._require_open()
        yield from self._search_iter(
            query, self.matcher.prepare(query), limit, stats
        )

    def search(
        self,
        query: Graph,
        limit: Optional[int] = None,
        stats: Optional[SearchStats] = None,
    ) -> List[Tuple[int, ...]]:
        """All (or first ``limit``) embeddings via :meth:`search_iter`."""
        return list(self.search_iter(query, limit=limit, stats=stats))

    def run(
        self,
        query: Graph,
        limit: Optional[int] = None,
        collect: bool = False,
        count_only: bool = False,
        prepared: Optional[PreparedQuery] = None,
    ) -> MatchReport:
        """Parallel analogue of :meth:`CFLMatch.run`: prepare afresh in
        the parent (honestly timed; ``prepared`` reuses an existing plan
        and its timers instead), enumerate across the workers, and
        return a :class:`MatchReport` whose enumeration counters are the
        aggregate of every worker chunk.

        Build counters and phase timers come from the single prepare;
        without a ``limit`` the aggregated enumeration counters equal a
        sequential :meth:`CFLMatch.run`'s exactly (the root-candidate
        partition is also a partition of the search work).
        ``count_only`` routes through the NEC-combination counting path;
        ``collect`` is then ignored.
        """
        self._require_open()
        plan = prepared
        if plan is None:
            plan = self.matcher.prepare(query, use_cache=False)
        stats = SearchStats()
        results: Optional[List[Tuple[int, ...]]] = (
            [] if collect and not count_only else None
        )
        started = monotonic_now()
        if count_only:
            found = self._count(query, plan, limit, stats)
        else:
            found = 0
            for embedding in self._search_iter(query, plan, limit, stats):
                found += 1
                if results is not None:
                    results.append(embedding)
        enumeration_time = monotonic_now() - started
        phase_times = dict(plan.phase_times)
        phase_times["enumeration"] = enumeration_time
        cpi_size, candidate_counts = plan.cpi_totals
        return MatchReport(
            embeddings=found,
            ordering_time=plan.ordering_time,
            enumeration_time=enumeration_time,
            cpi_size=cpi_size,
            candidate_counts=candidate_counts,
            stats=stats,
            results=results,
            stage_nodes={
                "core": stats.core_expansions,
                "forest": stats.forest_expansions,
                "leaf": stats.leaf_expansions,
            },
            phase_times=phase_times,
            build_stats=plan.build_stats,
        )


# ----------------------------------------------------------------------
# One-shot entry points: a short-lived pool per call
# ----------------------------------------------------------------------
def parallel_count(
    data: Graph,
    query: Graph,
    workers: int = 2,
    limit: Optional[int] = None,
    start_method: Optional[str] = None,
    stats: Optional[SearchStats] = None,
    **matcher_kwargs,
) -> int:
    """Count embeddings of ``query`` in ``data`` across ``workers``
    processes.  Equals ``CFLMatch(data).count(query)`` (without ``limit``;
    with a limit the result saturates at it).  ``prepare()`` runs exactly
    once, in the parent; workers share the plan (see module docs).

    ``stats`` (when given) accumulates the enumeration counters
    aggregated across every worker chunk; without a ``limit`` they equal
    the sequential counters exactly (root-partition invariance)."""
    with MatcherPool(
        data, workers=workers, start_method=start_method, **matcher_kwargs
    ) as pool:
        return pool.count(query, limit=limit, stats=stats)


def parallel_search_iter(
    data: Graph,
    query: Graph,
    workers: int = 2,
    limit: Optional[int] = None,
    start_method: Optional[str] = None,
    stats: Optional[SearchStats] = None,
    **matcher_kwargs,
) -> Iterator[Tuple[int, ...]]:
    """Stream embeddings as worker chunks complete (unordered).

    The embedding *set* equals the sequential one; arrival order follows
    chunk completion.  Abandoning the iterator early cancels in-flight
    workers and tears the pool down.  ``stats`` accumulates worker
    counters chunk-by-chunk as their results arrive.
    """
    with MatcherPool(
        data, workers=workers, start_method=start_method, **matcher_kwargs
    ) as pool:
        yield from pool.search_iter(query, limit=limit, stats=stats)


def parallel_search(
    data: Graph,
    query: Graph,
    workers: int = 2,
    limit: Optional[int] = None,
    start_method: Optional[str] = None,
    stats: Optional[SearchStats] = None,
    **matcher_kwargs,
) -> List[Tuple[int, ...]]:
    """All (or first ``limit``) embeddings, computed in parallel.

    Materialized form of :func:`parallel_search_iter`."""
    return list(
        parallel_search_iter(
            data, query, workers=workers, limit=limit,
            start_method=start_method, stats=stats, **matcher_kwargs,
        )
    )


def parallel_run(
    data: Graph,
    query: Graph,
    workers: int = 2,
    limit: Optional[int] = None,
    collect: bool = False,
    count_only: bool = False,
    start_method: Optional[str] = None,
    **matcher_kwargs,
) -> MatchReport:
    """Parallel analogue of :meth:`CFLMatch.run` through a short-lived
    pool; see :meth:`MatcherPool.run`."""
    with MatcherPool(
        data, workers=workers, start_method=start_method, **matcher_kwargs
    ) as pool:
        return pool.run(
            query, limit=limit, collect=collect, count_only=count_only
        )
