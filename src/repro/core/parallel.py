"""Shared-plan parallel subgraph matching over root-candidate partitions.

Backtracking search parallelizes naturally at the top of the tree: each
embedding maps the matching order's first vertex (the BFS root) to
exactly one of its candidates, so partitioning the root candidate set
partitions the embedding set.

The engine prepares the query **once** in the parent — the paper's whole
point is that CPI construction is cheap-and-polynomial while enumeration
is the expensive part, so enumeration is what gets parallelized:

* **fork** start method (the default where available): workers inherit
  the parent's :class:`~repro.core.matcher.PreparedQuery` copy-on-write;
  nothing is rebuilt, pickled or shipped.
* **spawn** start method: the data graph lives in a
  :class:`~repro.core.shm.SharedGraphStore` (one shared-memory segment
  per host; workers attach by name, zero copies) and the plan travels
  as a :class:`~repro.core.shm.PlanSegment` — the compiled kernel
  stages as contiguous int32 sections the worker consumes as
  ``memoryview`` slices without reconstruction.  Only query-sized
  metadata is rebuilt worker-side; nothing graph- or plan-sized is
  pickled.  (:func:`encode_plan`/:func:`decode_plan` remain as the
  JSON-safe diagnostic wire format.)

Workers restrict the shared plan through the O(|V(q)|)-cheap
``with_root_candidates`` path instead of rebuilding the CPI per chunk.
Chunks are *cost-weighted*: per-root work estimates from the Algorithm 2
cardinality DP (:func:`~repro.core.cost_model.estimate_root_costs`) are
balanced across ``workers * tasks_per_worker`` buckets by LPT greedy
packing, replacing blind round-robin.  Dispatch is wave-based with a
shrinking remaining-``limit`` budget per submitted chunk, and a shared
cancellation event stops in-flight workers between root candidates once
a global ``limit`` has been reached.

Three entry points serve one-shot calls; :class:`MatcherPool` keeps a
persistent worker pool alive to serve many queries over one data graph
without re-forking (repeated queries additionally hit the parent-side
LRU plan cache and skip ``prepare()`` entirely).  Pool workers attach
the data graph by shared-memory handle and resolve each query's plan
segment by name; segment lifecycle (create/attach/close/unlink) is
threaded through dispatcher cancellation and pool shutdown so no
``/dev/shm`` entry outlives its pool.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue_mod
from collections import OrderedDict
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from .cost_model import estimate_root_costs
from .cpi_storage import CompiledCPI
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


def _default_start_method() -> str:
    """``fork`` where the platform offers it (copy-on-write plan sharing),
    ``spawn`` otherwise (macOS default / Windows)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


# ----------------------------------------------------------------------
# Plan wire format (spawn contexts and persistent pools)
# ----------------------------------------------------------------------
def encode_plan(plan: PreparedQuery) -> Dict[str, Any]:
    """JSON-safe wire form of a prepared plan: the compiled CPI plus the
    matching orders (so the receiver skips the ordering DP too).

    The runtime no longer ships this across process boundaries — plans
    travel as :class:`~repro.core.shm.PlanSegment` flat buffers — but it
    remains the diagnostic/serialization format (and the reference the
    differential tests compare the segment decode against).

    The flat-array kernel compilation is deliberately *not* shipped: it
    is a pure function of the CPI + orders, so :func:`decode_plan`'s
    ``prepare_from_cpi`` recompiles it worker-side (once per worker, the
    data-graph CSR cached on the worker's matcher) rather than paying to
    pickle megabytes of redundant arrays.  Fork-start workers never hit
    this path at all — they inherit the parent plan's compiled kernel
    copy-on-write."""
    return {
        "cpi": CompiledCPI.from_cpi(plan.cpi).to_dict(),
        "core_order": list(plan.core_order),
        "forest_order": list(plan.forest_order),
    }


def decode_plan(
    matcher: CFLMatch, query: Graph, wire: Dict[str, Any]
) -> PreparedQuery:
    """Rebuild a :class:`PreparedQuery` from :func:`encode_plan` output.

    Only query-sized metadata (decomposition, slots, leaf plan) is
    recomputed; the CPI and the orders come off the wire."""
    compiled = CompiledCPI.from_dict(wire["cpi"])
    cpi = compiled.to_cpi(query, matcher.data)
    return matcher.prepare_from_cpi(
        query,
        cpi,
        core_order=list(wire["core_order"]),
        forest_order=list(wire["forest_order"]),
    )


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
def _chunks(items: List[int], pieces: int) -> List[List[int]]:
    """Split ``items`` into at most ``pieces`` round-robin chunks (the
    cost-blind fallback, kept for tests and as a baseline)."""
    pieces = max(1, min(pieces, len(items)))
    buckets: List[List[int]] = [[] for _ in range(pieces)]
    for index, item in enumerate(items):
        buckets[index % pieces].append(item)
    return [bucket for bucket in buckets if bucket]


def _cost_weighted_chunks(
    roots: Sequence[int], costs: Dict[int, int], pieces: int
) -> List[List[int]]:
    """Pack roots into ``pieces`` chunks balancing estimated work.

    Classic LPT greedy: roots sorted by descending cost, each assigned
    to the currently lightest bucket.  Buckets come back heaviest-first
    so the scheduler dispatches the long poles early.  Roots missing
    from ``costs`` (subtree count zero — they prune immediately) get
    unit weight.
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


def _plan_chunks(plan: PreparedQuery, pieces: int) -> List[List[int]]:
    roots = list(plan.cpi.candidates[plan.root])
    return _cost_weighted_chunks(roots, estimate_root_costs(plan.cpi), pieces)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
# Globals installed by the pool initializers.  Under fork they alias the
# parent's objects copy-on-write; under spawn they are rebuilt once per
# worker process.
_WORKER: Dict[str, Any] = {}

#: per-worker decoded-plan LRU for persistent pools (plan key -> plan)
_PLAN_CACHE_CAPACITY = 8


def _init_oneshot_fork(matcher: CFLMatch, plan: PreparedQuery, cancel) -> None:
    _WORKER.clear()
    _WORKER.update(matcher=matcher, plan=plan, cancel=cancel)


def _init_oneshot_shared(
    handle: GraphHandle, matcher_kwargs: dict, plan_name: str, cancel
) -> None:
    """Spawn-context one-shot initializer: attach the shared graph store
    and the plan segment *by name* — nothing graph- or plan-sized is
    pickled into the worker.  The store and segment objects are parked
    in ``_WORKER`` so their mappings outlive the initializer (the plan's
    memoryview sections point straight into them)."""
    store = attach_graph_store(handle)
    matcher = CFLMatch(store.graph, **matcher_kwargs)
    plan, segment = attach_plan_segment(matcher, plan_name)
    _WORKER.clear()
    _WORKER.update(
        matcher=matcher, plan=plan, cancel=cancel, store=store, segment=segment
    )


def _init_pool_worker(handle: GraphHandle, matcher_kwargs: dict, cancel) -> None:
    """Persistent-pool initializer: attach the data graph through its
    shared-memory (or mmap-file) handle; plans arrive later, per task,
    as named segments resolved by :func:`_resolve_pool_plan`."""
    store = attach_graph_store(handle)
    _WORKER.clear()
    _WORKER.update(
        matcher=CFLMatch(store.graph, **matcher_kwargs),
        cancel=cancel,
        store=store,
        plans=OrderedDict(),
    )


def _resolve_pool_plan(key: int, name: str) -> Optional[PreparedQuery]:
    """Attach and decode (at most once per worker per plan epoch) the
    plan segment named in a persistent-pool task; cache keyed by the
    pool's plan epoch so a re-prepared query gets a fresh attach.

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


def _oneshot_count_task(
    args: Tuple[List[int], Optional[int]]
) -> Tuple[int, Dict[str, int]]:
    roots, budget = args
    return _count_roots(
        _WORKER["matcher"], _WORKER["plan"], roots, budget, _WORKER["cancel"]
    )


def _oneshot_search_task(
    args: Tuple[List[int], Optional[int]]
) -> Tuple[List[Tuple[int, ...]], Dict[str, int]]:
    roots, budget = args
    return _search_roots(
        _WORKER["matcher"], _WORKER["plan"], roots, budget, _WORKER["cancel"]
    )


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


# ----------------------------------------------------------------------
# One-shot entry points
# ----------------------------------------------------------------------
def _oneshot_setup(
    data: Graph,
    query: Graph,
    workers: int,
    matcher_kwargs: dict,
):
    """Prepare once in the parent; classify sequential-fallback cases."""
    matcher = CFLMatch(data, **matcher_kwargs)
    plan = matcher.prepare(query)
    if plan.cpi.is_empty():
        return matcher, plan, None
    roots = list(plan.cpi.candidates[plan.root])
    if workers <= 1 or len(roots) <= 1:
        return matcher, plan, None
    return matcher, plan, roots


def _shared_store(
    data: Graph,
) -> Tuple[GraphHandle, Optional[SharedGraphStore]]:
    """A handle workers can attach ``data`` through.  Creates a segment
    only when the graph is not already shared; a created store is the
    caller's to unlink (the second element, ``None`` when reused)."""
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


def _oneshot_pool(
    ctx,
    method: str,
    workers: int,
    matcher: CFLMatch,
    plan: PreparedQuery,
    matcher_kwargs: dict,
    cancel,
):
    """Build the one-shot worker pool; returns ``(pool, release)``.

    ``release()`` unlinks every shared segment the pool was built on —
    call it after the pool has been terminated and joined, on every
    exit path (the dispatchers run it in ``finally``).  The fork path
    shares the parent's plan copy-on-write and has nothing to release.
    """
    if method == "fork":
        pool = ctx.Pool(
            workers, initializer=_init_oneshot_fork,
            initargs=(matcher, plan, cancel),
        )
        return pool, (lambda: None)
    handle, store = _shared_store(matcher.data)
    segment: Optional[PlanSegment] = None

    def release() -> None:
        if segment is not None:
            segment.unlink()
            segment.close()
        if store is not None:
            store.unlink()
            store.close()

    try:
        segment = PlanSegment.create(plan)
        pool = ctx.Pool(
            workers, initializer=_init_oneshot_shared,
            initargs=(handle, matcher_kwargs, segment.name, cancel),
        )
    except BaseException:
        release()
        raise
    return pool, release


def _sequential_count(
    matcher: CFLMatch,
    query: Graph,
    plan: PreparedQuery,
    limit: Optional[int],
    stats: Optional[SearchStats],
) -> int:
    """Single-process fallback with the same counter discipline as the
    workers (per-stage split folded through ``aggregate_stage_stats``)."""
    if stats is None:
        return matcher.count(query, limit=limit, prepared=plan)
    stage_stats: dict = {}
    total = matcher.count(
        query, limit=limit, prepared=plan, stats=stats, stage_stats=stage_stats
    )
    aggregate_stage_stats(stage_stats, into=stats)
    return total


def parallel_count(
    data: Graph,
    query: Graph,
    workers: int = 2,
    limit: Optional[int] = None,
    tasks_per_worker: int = 4,
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
    if limit is not None and limit <= 0:
        return 0
    matcher, plan, roots = _oneshot_setup(data, query, workers, matcher_kwargs)
    if roots is None:
        if plan.cpi.is_empty():
            return 0
        return _sequential_count(matcher, query, plan, limit, stats)
    chunks = _cost_weighted_chunks(
        roots, estimate_root_costs(plan.cpi), workers * tasks_per_worker
    )
    method = start_method or _default_start_method()
    ctx = multiprocessing.get_context(method)
    cancel = ctx.Event()
    pool, release = _oneshot_pool(
        ctx, method, workers, matcher, plan, matcher_kwargs, cancel
    )
    try:
        with pool:
            total = 0
            max_inflight = workers if limit is not None else len(chunks)
            for part, chunk_stats in _dispatch(
                pool, _oneshot_count_task, lambda c, b: (c, b), chunks,
                limit, cancel, lambda value: value[0], max_inflight,
            ):
                total += part
                if stats is not None:
                    stats.merge(SearchStats.from_dict(chunk_stats))
        pool.join()
    finally:
        release()
    if limit is not None:
        return min(total, limit)
    return total


def parallel_search_iter(
    data: Graph,
    query: Graph,
    workers: int = 2,
    limit: Optional[int] = None,
    tasks_per_worker: int = 4,
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
    if limit is not None and limit <= 0:
        return
    matcher, plan, roots = _oneshot_setup(data, query, workers, matcher_kwargs)
    if roots is None:
        if plan.cpi.is_empty():
            return
        if stats is None:
            yield from matcher.search(query, limit=limit, prepared=plan)
            return
        stage_stats: dict = {}
        yield from matcher.search(
            query, limit=limit, prepared=plan, stats=stats,
            stage_stats=stage_stats,
        )
        aggregate_stage_stats(stage_stats, into=stats)
        return
    chunks = _cost_weighted_chunks(
        roots, estimate_root_costs(plan.cpi), workers * tasks_per_worker
    )
    method = start_method or _default_start_method()
    ctx = multiprocessing.get_context(method)
    cancel = ctx.Event()
    pool, release = _oneshot_pool(
        ctx, method, workers, matcher, plan, matcher_kwargs, cancel
    )
    try:
        emitted = 0
        max_inflight = workers if limit is not None else len(chunks)
        for part, chunk_stats in _dispatch(
            pool, _oneshot_search_task, lambda c, b: (c, b), chunks,
            limit, cancel, lambda value: len(value[0]), max_inflight,
        ):
            if stats is not None:
                stats.merge(SearchStats.from_dict(chunk_stats))
            for embedding in part:
                yield embedding
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
    finally:
        cancel.set()
        pool.terminate()
        pool.join()
        release()


def parallel_search(
    data: Graph,
    query: Graph,
    workers: int = 2,
    limit: Optional[int] = None,
    tasks_per_worker: int = 4,
    start_method: Optional[str] = None,
    stats: Optional[SearchStats] = None,
    **matcher_kwargs,
) -> List[Tuple[int, ...]]:
    """All (or first ``limit``) embeddings, computed in parallel.

    Materialized form of :func:`parallel_search_iter`."""
    return list(
        parallel_search_iter(
            data, query, workers=workers, limit=limit,
            tasks_per_worker=tasks_per_worker, start_method=start_method,
            stats=stats, **matcher_kwargs,
        )
    )


def parallel_run(
    data: Graph,
    query: Graph,
    workers: int = 2,
    limit: Optional[int] = None,
    collect: bool = False,
    count_only: bool = False,
    tasks_per_worker: int = 4,
    start_method: Optional[str] = None,
    **matcher_kwargs,
) -> MatchReport:
    """Parallel analogue of :meth:`CFLMatch.run`: prepare once in the
    parent (fresh, honestly timed), enumerate across ``workers``, and
    return a :class:`MatchReport` whose enumeration counters are the
    aggregate of every worker chunk.

    Build counters and phase timers come from the parent's single
    ``prepare``; without a ``limit`` the aggregated enumeration counters
    equal a sequential :meth:`CFLMatch.run`'s exactly (the root-candidate
    partition is also a partition of the search work).  ``count_only``
    routes through the NEC-combination counting path; ``collect`` is then
    ignored.
    """
    matcher = CFLMatch(data, **matcher_kwargs)
    build_stats = SearchStats()
    plan = matcher.prepare(query, use_cache=False, build_stats=build_stats)
    stats = SearchStats()
    results: Optional[List[Tuple[int, ...]]] = (
        [] if collect and not count_only else None
    )
    found = 0
    started = monotonic_now()
    roots: Optional[List[int]] = None
    if not plan.cpi.is_empty():
        roots = list(plan.cpi.candidates[plan.root])
        if workers <= 1 or len(roots) <= 1:
            roots = None
    if roots is None:
        if not plan.cpi.is_empty():
            stage_stats: dict = {}
            if count_only:
                found = matcher.count(
                    query, limit=limit, prepared=plan, stats=stats,
                    stage_stats=stage_stats,
                )
            else:
                for embedding in matcher.search(
                    query, limit=limit, prepared=plan, stats=stats,
                    stage_stats=stage_stats,
                ):
                    found += 1
                    if results is not None:
                        results.append(embedding)
            aggregate_stage_stats(stage_stats, into=stats)
    else:
        chunks = _cost_weighted_chunks(
            roots, estimate_root_costs(plan.cpi), workers * tasks_per_worker
        )
        method = start_method or _default_start_method()
        ctx = multiprocessing.get_context(method)
        cancel = ctx.Event()
        task = _oneshot_count_task if count_only else _oneshot_search_task
        measure = (
            (lambda value: value[0]) if count_only
            else (lambda value: len(value[0]))
        )
        pool, release = _oneshot_pool(
            ctx, method, workers, matcher, plan, matcher_kwargs, cancel
        )
        try:
            with pool:
                max_inflight = workers if limit is not None else len(chunks)
                for part, chunk_stats in _dispatch(
                    pool, task, lambda c, b: (c, b), chunks,
                    limit, cancel, measure, max_inflight,
                ):
                    stats.merge(SearchStats.from_dict(chunk_stats))
                    if count_only:
                        found += part
                    else:
                        for embedding in part:
                            if limit is not None and found >= limit:
                                break
                            found += 1
                            if results is not None:
                                results.append(embedding)
            pool.join()
        finally:
            release()
        if limit is not None:
            found = min(found, limit)
    enumeration_time = monotonic_now() - started
    phase_times = dict(plan.phase_times)
    phase_times["enumeration"] = enumeration_time
    return MatchReport(
        embeddings=found,
        ordering_time=plan.ordering_time,
        enumeration_time=enumeration_time,
        cpi_size=plan.cpi.size(),
        candidate_counts=plan.cpi.candidate_counts(),
        stats=stats,
        results=results,
        stage_nodes={
            "core": stats.core_expansions,
            "forest": stats.forest_expansions,
            "leaf": stats.leaf_expansions,
        },
        phase_times=phase_times,
        build_stats=build_stats,
    )


# ----------------------------------------------------------------------
# Persistent pool
# ----------------------------------------------------------------------
class MatcherPool:
    """A reusable worker pool serving many queries over one data graph.

    Forking (or spawning) a pool per query wastes the data-graph setup;
    a serving deployment keeps one ``MatcherPool`` per data graph and
    pushes every query through it::

        with MatcherPool(data, workers=4) as pool:
            n = pool.count(query_a)
            for embedding in pool.search_iter(query_b, limit=100):
                ...

    The data graph is laid into a :class:`~repro.core.shm.SharedGraphStore`
    once per pool (reused as-is when ``data`` is already a
    :class:`~repro.core.shm.SharedGraph`, e.g. loaded from a
    ``cfl-match ingest`` file); every worker attaches it by handle, so
    the graph is materialized once per host no matter the start method.
    Per query, the parent prepares the plan once (repeated queries hit
    the :class:`CFLMatch` LRU plan cache and skip even that), encodes it
    into a shared :class:`~repro.core.shm.PlanSegment` a single time,
    and ships only ``(epoch key, segment name)`` alongside each chunk;
    workers attach and decode it at most once each and keep a small
    plan LRU, so a hot query costs the workers no preparation at all.
    :meth:`close` unlinks every segment the pool created.  Not
    thread-safe: run one query at a time per pool.  The workers hold a
    copy of ``data`` as it was at construction, so once a
    :class:`~repro.graph.dynamic.DynamicGraph` moves to a new version
    every query method raises instead of answering from the stale copy.
    """

    def __init__(
        self,
        data: Graph,
        workers: Optional[int] = None,
        tasks_per_worker: int = 4,
        start_method: Optional[str] = None,
        plan_cache_size: Optional[int] = 16,
        aux_cache=None,
        **matcher_kwargs,
    ):
        self.data = data
        #: the graph version the shared copy holds (see _require_open)
        self._version = data.version
        self.workers = workers if workers is not None else _default_workers()
        self.tasks_per_worker = tasks_per_worker
        handle, store = _shared_store(data)
        #: the pool-created store (``None`` when ``data`` was already
        #: shared); unlinked by :meth:`close`
        self._store = store
        # ``aux_cache`` (a batch-shared AuxAdjacencyCache) stays strictly
        # parent-side: preparation happens in the parent, workers only
        # enumerate prebuilt plans, so it is deliberately NOT part of the
        # worker initargs below.
        self.matcher = CFLMatch(
            store.graph if store is not None else data,
            plan_cache_size=plan_cache_size, aux_cache=aux_cache,
            **matcher_kwargs,
        )
        self.start_method = start_method or _default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._cancel = self._ctx.Event()
        try:
            self._pool = self._ctx.Pool(
                max(self.workers, 1),
                initializer=_init_pool_worker,
                initargs=(handle, matcher_kwargs, self._cancel),
            )
        except BaseException:
            if store is not None:
                store.unlink()
                store.close()
            raise
        self._closed = False
        # plan epoch bookkeeping: signature -> (key, shared plan segment)
        self._plan_segments: Dict[tuple, Tuple[int, PlanSegment]] = {}
        self._next_key = 0
        #: enumeration counters aggregated over every query this pool has
        #: served (worker chunks and sequential fallbacks alike)
        self.total_stats = SearchStats()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "MatcherPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Terminate the workers and unlink every shared segment this
        pool created; the pool cannot be used afterwards."""
        if not self._closed:
            self._closed = True
            self._cancel.set()
            self._pool.terminate()
            self._pool.join()
            self._release_segments()

    def _release_segments(self) -> None:
        while self._plan_segments:
            _, (_, segment) = self._plan_segments.popitem()
            segment.unlink()
            segment.close()
        if self._store is not None:
            self._store.unlink()
            self._store.close()
            self._store = None

    # -- internals -----------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("MatcherPool is closed")
        if self.data.version != self._version:
            raise RuntimeError(
                f"MatcherPool's data graph moved from version {self._version} "
                f"to {self.data.version} after the pool copied it; "
                f"build a new pool"
            )

    def _plan_segment(self, query: Graph, plan: PreparedQuery) -> Tuple[int, str]:
        """Encode the plan into a shared segment once per distinct query.

        A segment lives as long as the matcher's plan cache holds its
        plan (the one being served excepted): before creating a segment,
        unlink those whose plans the cache has dropped since — attached
        workers keep their live mappings, POSIX semantics."""
        signature = query.signature()
        entry = self._plan_segments.get(signature)
        if entry is not None:
            return entry[0], entry[1].name
        segments = self._plan_segments
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

    def _start_query(self, query: Graph):
        """Shared per-query setup; returns (plan, chunks-or-None)."""
        self._require_open()
        plan = self.matcher.prepare(query)
        if plan.cpi.is_empty():
            return plan, None
        roots = list(plan.cpi.candidates[plan.root])
        if self.workers <= 1 or len(roots) <= 1:
            return plan, None
        self._cancel.clear()
        chunks = _cost_weighted_chunks(
            roots,
            estimate_root_costs(plan.cpi),
            self.workers * self.tasks_per_worker,
        )
        return plan, chunks

    def _absorb(
        self, chunk_stats: Dict[str, int], stats: Optional[SearchStats]
    ) -> None:
        decoded = SearchStats.from_dict(chunk_stats)
        self.total_stats.merge(decoded)
        if stats is not None:
            stats.merge(decoded)

    # -- query API -----------------------------------------------------
    def count(
        self,
        query: Graph,
        limit: Optional[int] = None,
        stats: Optional[SearchStats] = None,
    ) -> int:
        """Parallel :meth:`CFLMatch.count` through the persistent pool.

        ``stats`` accumulates this call's worker-aggregated enumeration
        counters; :attr:`total_stats` always accumulates them."""
        if limit is not None and limit <= 0:
            return 0
        plan, chunks = self._start_query(query)
        if chunks is None:
            if plan.cpi.is_empty():
                return 0
            local = SearchStats()
            stage_stats: dict = {}
            total = self.matcher.count(
                query, limit=limit, prepared=plan, stats=local,
                stage_stats=stage_stats,
            )
            aggregate_stage_stats(stage_stats, into=local)
            self._absorb(local.to_dict(), stats)
            return total
        key, name = self._plan_segment(query, plan)
        total = 0
        max_inflight = self.workers if limit is not None else len(chunks)
        for part, chunk_stats in _dispatch(
            self._pool, _pool_count_task, lambda c, b: (key, name, c, b),
            chunks, limit, self._cancel, lambda value: value[0], max_inflight,
        ):
            total += part
            self._absorb(chunk_stats, stats)
        if limit is not None:
            return min(total, limit)
        return total

    def search_iter(
        self,
        query: Graph,
        limit: Optional[int] = None,
        stats: Optional[SearchStats] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Stream embeddings (unordered) through the persistent pool."""
        if limit is not None and limit <= 0:
            return
        plan, chunks = self._start_query(query)
        if chunks is None:
            if plan.cpi.is_empty():
                return
            local = SearchStats()
            stage_stats: dict = {}
            yield from self.matcher.search(
                query, limit=limit, prepared=plan, stats=local,
                stage_stats=stage_stats,
            )
            aggregate_stage_stats(stage_stats, into=local)
            self._absorb(local.to_dict(), stats)
            return
        key, name = self._plan_segment(query, plan)
        emitted = 0
        max_inflight = self.workers if limit is not None else len(chunks)
        try:
            for part, chunk_stats in _dispatch(
                self._pool, _pool_search_task, lambda c, b: (key, name, c, b),
                chunks, limit, self._cancel, lambda value: len(value[0]),
                max_inflight,
            ):
                self._absorb(chunk_stats, stats)
                for embedding in part:
                    yield embedding
                    emitted += 1
                    if limit is not None and emitted >= limit:
                        return
        finally:
            # Abandoned mid-stream: stop in-flight work so the pool is
            # immediately reusable; the next query clears the event.
            self._cancel.set()

    def search(
        self,
        query: Graph,
        limit: Optional[int] = None,
        stats: Optional[SearchStats] = None,
    ) -> List[Tuple[int, ...]]:
        """All (or first ``limit``) embeddings via :meth:`search_iter`."""
        return list(self.search_iter(query, limit=limit, stats=stats))

    def run_batch(
        self,
        queries: Sequence[Graph],
        limit: Optional[int] = None,
        count_only: bool = True,
    ) -> List[Tuple[Any, SearchStats, float]]:
        """Serve a whole workload through the pool, one query at a time.

        Queries execute grouped by label signature (see
        :func:`repro.core.batch.batch_execution_order`) so the plan cache
        and any attached auxiliary adjacency cache see structurally
        similar queries back to back; results come back in *input* order
        as ``(value, stats, elapsed_s)`` triples — ``value`` is the
        embedding count under ``count_only`` (the default), else the
        embedding list (unordered when chunked across workers).
        """
        from .batch import batch_execution_order

        self._require_open()
        outcomes: List[Optional[Tuple[Any, SearchStats, float]]] = (
            [None] * len(queries)
        )
        for index in batch_execution_order(queries):
            query = queries[index]
            stats = SearchStats()
            started = monotonic_now()
            if count_only:
                value: Any = self.count(query, limit=limit, stats=stats)
            else:
                value = self.search(query, limit=limit, stats=stats)
            outcomes[index] = (value, stats, monotonic_now() - started)
        return [outcome for outcome in outcomes if outcome is not None]
