"""CFL-Match and its ablation variants (Algorithm 1 and Section 6 list).

:class:`CFLMatch` is the paper's best algorithm: CFL-decompose the query,
build the CPI (top-down + bottom-up), order core paths by Algorithm 2,
then enumerate Core-Match -> Forest-Match -> Leaf-Match.  The evaluated
variants map to constructor flags:

================  =========================================
Paper name        Construction
================  =========================================
CFL-Match         ``CFLMatch(data)``
CF-Match          ``CFLMatch(data, mode="cf")``
Match             ``CFLMatch(data, mode="match")``
CFL-Match-TD      ``CFLMatch(data, cpi_mode="td")``
CFL-Match-Naive   ``CFLMatch(data, cpi_mode="naive")``
================  =========================================

(The boosted variant lives in :mod:`repro.baselines.compression`.)
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import compress, count, islice
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from .batch import AuxAdjacencyCache

from ..graph.graph import Graph, GraphError
from .core_match import (
    CPIBacktracker,
    OrderedVertex,
    SearchStats,
    SearchTimeout,
    build_ordered_vertices,
)
from .cpi import CPI
from .cpi_builder import _record_build_totals, build_cpi, build_naive_cpi
from .decomposition import CFLDecomposition, cfl_decompose
from .filters import VerifiedCandidates
from .kernel import KernelBacktracker, KernelPlan, compile_kernel_plan
from .leaf_match import (
    BLOCK_NODE_CAP,
    LeafPlan,
    build_leaf_block,
    build_leaf_plan,
    count_leaf_matches,
    enumerate_leaf_matches,
)
from .ordering import estimate_tree_embeddings, order_structure
from .root_selection import select_root
from .shm import adjacency_csr
from .stats import (
    BudgetExhausted,
    WorkBudget,
    aggregate_stage_stats,
    empty_phase_times,
)

MODES = ("cfl", "cf", "match")
CPI_MODES = ("full", "td", "naive")
CORE_STRATEGIES = ("paths", "hierarchical")
#: Enumeration engines: ``"kernel"`` runs the compiled flat-array loop of
#: :mod:`repro.core.kernel`; ``"reference"`` runs the readable
#: :class:`~repro.core.core_match.CPIBacktracker`, kept as the
#: differential oracle.  Embeddings, enumeration order and the
#: ``nodes``/``backtracks`` counters are identical between the two (see
#: the kernel module docstring for the one attribution caveat on the
#: rejection-counter split).
ENGINES = ("kernel", "reference")

#: Byte bound of every matcher's plan cache (the sum of the cached
#: plans' :attr:`PreparedQuery.nbytes`): plans range from tens of KB on
#: sparse graphs to several MB on dense ones, so an entry count alone
#: bounds neither the memory nor the hit rate.  The newest plan is kept
#: even when it alone exceeds the bound.
PLAN_CACHE_BYTES = 32 * 1024 * 1024

# Sizes the plan estimate below is built from (CPython, 64-bit): empty
# containers, and what one more entry adds to each.
_POINTER = sys.getsizeof([None]) - sys.getsizeof([])
_LIST = sys.getsizeof([])
_SET = sys.getsizeof(set())
_DICT = sys.getsizeof({})
_ARRAY = sys.getsizeof(array("i"))
_INT32 = array("i").itemsize
#: a set slot holds a hash and a key, and a set grown by adding runs
#: 15-60% full
_SET_ENTRY = 6 * _POINTER
#: a dict entry holds a hash, a key and a value, plus its index slot, in
#: a table kept at most two-thirds full
_DICT_ENTRY = 5 * _POINTER
#: a cross row: one tuple of two int32 arrays
_CROSS_ROW = sys.getsizeof((0, 0)) + 2 * _ARRAY
#: the query-sized rest of a plan (BFS tree, decomposition, slots, leaf
#: plan, per-stage tuples, counters) per query vertex, measured on
#: 4- to 9-vertex plans
_PER_QUERY_VERTEX = 1536


def plan_nbytes(
    query: Graph, cpi: CPI, kernel: Optional[KernelPlan] = None
) -> int:
    """Estimated bytes a plan holds, from lengths it already has.

    Every container is charged its empty size plus a fixed amount per
    entry, so the estimate costs a few ``len`` calls per query vertex
    and one per adjacency row (dense plans hold ~18k rows).  The int
    objects in the rows are not counted (an in-memory data graph shares
    them), nor are the data-graph arrays a kernel borrows.
    """
    entries = [sum(map(len, table.values())) for table in cpi.adjacency]
    n = query.num_vertices
    total = (
        n * (_PER_QUERY_VERTEX + _LIST + _SET + _DICT)
        + sum(map(len, cpi.candidates)) * (_POINTER + _SET_ENTRY)
        + sum(map(len, cpi.adjacency)) * (_DICT_ENTRY + _LIST)
        + sum(entries) * _POINTER
    )
    if kernel is None:
        return total
    for stage in (kernel.core, kernel.forest):
        arrays = (
            *stage.base_v, *stage.base_r, *stage.indptrs, *stage.flat_v,
            *stage.flat_r,
        )
        total += len(arrays) * _ARRAY + sum(map(len, arrays)) * _INT32
        total += (
            len(stage.rank_of) * _DICT
            + sum(map(len, stage.rank_of)) * _DICT_ENTRY
        )
        for u, sets, cross in zip(
            stage.slot_vertices, stage.set_rows, stage.cross_rows
        ):
            if sets:
                total += (
                    _DICT + len(sets) * (_DICT_ENTRY + _SET)
                    + sum(map(len, sets.values())) * _SET_ENTRY
                )
            if cross:
                total += (
                    _DICT + len(cross) * (_DICT_ENTRY + _CROSS_ROW)
                    + entries[u] * 2 * _INT32
                )
    return total


@dataclass
class PreparedQuery:
    """Everything computed before enumeration starts (the paper's
    "query vertex ordering" phase: decomposition + CPI + matching order)."""

    query: Graph
    decomposition: CFLDecomposition
    root: int
    cpi: CPI
    core_order: List[int]
    forest_order: List[int]
    core_slots: List[OrderedVertex]
    forest_slots: List[OrderedVertex]
    leaf_plan: LeafPlan
    ordering_time: float
    #: per-phase split of ``ordering_time`` (decomposition / cpi_build /
    #: ordering); every preparation path fills the same keys.
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: CandVerify / CPI-construction counters recorded while building.
    build_stats: SearchStats = field(default_factory=SearchStats)
    #: flat-array compilation of the stages (``engine="kernel"`` plans;
    #: compiled when a plan built elsewhere reaches a kernel matcher,
    #: e.g. a reference-engine plan read from a shared plan segment).
    kernel: Optional[KernelPlan] = None
    _nbytes: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _cpi_totals: Optional[Tuple[int, List[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def matching_order(self) -> List[int]:
        """Core then forest order (leaves are matched per label class)."""
        return self.core_order + self.forest_order

    @property
    def nbytes(self) -> int:
        """Estimated bytes the plan holds (:func:`plan_nbytes`), which the
        plan cache's byte bound charges; computed once, on first use, so
        plans that are never cached (e.g. ``IncrementalMatcher``'s) never
        pay for it."""
        if self._nbytes is None:
            self._nbytes = plan_nbytes(self.query, self.cpi, self.kernel)
        return self._nbytes

    @property
    def cpi_totals(self) -> Tuple[int, List[int]]:
        """The CPI's size and per-vertex candidate counts, which every
        :class:`MatchReport` of the plan carries; computed once, on
        first use (the list is the caller's own copy)."""
        if self._cpi_totals is None:
            self._cpi_totals = (self.cpi.size(), self.cpi.candidate_counts())
        size, counts = self._cpi_totals
        return size, list(counts)


@dataclass
class MatchReport:
    """Measured outcome of one ``run`` (the quantities Figures 8-16 plot)."""

    embeddings: int
    ordering_time: float
    enumeration_time: float
    cpi_size: int
    candidate_counts: List[int]
    stats: SearchStats = field(default_factory=SearchStats)
    timed_out: bool = False
    results: Optional[List[Tuple[int, ...]]] = None
    # per-stage search-node counters (core/forest/leaf), for analysis
    stage_nodes: Optional[dict] = None
    #: the run stopped because its expansion budget ran out
    budget_exhausted: bool = False
    #: per-phase wall-clock split (decomposition/cpi_build/ordering/enumeration)
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: CandVerify / CPI-construction counters (separate from ``stats`` so
    #: cached-plan reuse never double-counts build work)
    build_stats: SearchStats = field(default_factory=SearchStats)

    @property
    def total_time(self) -> float:
        return self.ordering_time + self.enumeration_time

    @property
    def status(self) -> str:
        """``"ok"``, ``"timed_out"`` or ``"budget_exhausted"``."""
        if self.timed_out:
            return "timed_out"
        if self.budget_exhausted:
            return "budget_exhausted"
        return "ok"

    def counters(self) -> Dict[str, int]:
        """Build + enumeration counters merged into one flat dict."""
        return self.stats.merged_with(self.build_stats).to_dict()

    def to_dict(self) -> Dict:
        """JSON-ready form (embeddings, timers, flat counters)."""
        return {
            "embeddings": self.embeddings,
            "status": self.status,
            "ordering_time_s": self.ordering_time,
            "enumeration_time_s": self.enumeration_time,
            "total_time_s": self.total_time,
            "phase_times_s": dict(self.phase_times),
            "cpi_size": self.cpi_size,
            "candidate_counts": list(self.candidate_counts),
            "counters": self.counters(),
            "stage_nodes": dict(self.stage_nodes) if self.stage_nodes else {},
        }


class CFLMatch:
    """Subgraph matching over a fixed data graph.

    Parameters
    ----------
    data:
        the data graph G.
    mode:
        ``"cfl"`` (core/forest/leaf), ``"cf"`` (no leaf split) or
        ``"match"`` (no decomposition at all).
    cpi_mode:
        ``"full"`` (Algorithms 3+4), ``"td"`` (Algorithm 3 only) or
        ``"naive"`` (label-only candidate sets, Section 4.1).
    core_strategy:
        ``"paths"`` (Algorithm 2, the paper's ordering) or
        ``"hierarchical"`` (the Section 7 future-work extension: match
        deeper k-core shells of the core first).
    engine:
        ``"kernel"`` (default) enumerates with the compiled flat-array
        loop of :mod:`repro.core.kernel`; ``"reference"`` keeps the
        readable iterator-stack backtracker.  Same embeddings, same
        order, same ``nodes``/``backtracks`` counters either way.
    plan_cache_size:
        entry cap of the per-matcher LRU plan cache.  Repeated calls of
        :meth:`search`/:meth:`count` (or :meth:`prepare`) with a
        structurally identical query reuse the cached
        :class:`PreparedQuery` and skip the whole ordering phase —
        the serving-workload fast path.  The cache is also bounded by
        the bytes its plans hold (:data:`PLAN_CACHE_BYTES`); ``None``
        leaves that the only bound, ``0`` disables caching.
    aux_cache:
        a batch-shared :class:`~repro.core.batch.AuxAdjacencyCache`
        serving pre-intersected label-pair adjacency rows to CPI
        construction (``None`` — the default — builds from the raw
        graph).  The built CPI is identical either way.
    """

    name = "CFL-Match"

    def __init__(
        self,
        data: Graph,
        mode: str = "cfl",
        cpi_mode: str = "full",
        core_strategy: str = "paths",
        engine: str = "kernel",
        plan_cache_size: Optional[int] = 16,
        aux_cache: Optional["AuxAdjacencyCache"] = None,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if cpi_mode not in CPI_MODES:
            raise ValueError(f"cpi_mode must be one of {CPI_MODES}")
        if core_strategy not in CORE_STRATEGIES:
            raise ValueError(f"core_strategy must be one of {CORE_STRATEGIES}")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if plan_cache_size is not None and plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0 or None")
        self.data = data
        self.mode = mode
        self.cpi_mode = cpi_mode
        self.core_strategy = core_strategy
        self.engine = engine
        self.plan_cache_size = plan_cache_size
        self.aux_cache = aux_cache
        #: signature -> plan, all built at ``_plan_version`` of the graph
        self._plan_cache: "OrderedDict[tuple, PreparedQuery]" = OrderedDict()
        self._plan_version = data.version
        self._plan_bytes = 0
        #: number of full (uncached) ordering-phase runs; tests and the
        #: parallel engine assert "prepare ran exactly once" against it.
        self.prepare_count = 0
        self.plan_cache_hits = 0

    # ------------------------------------------------------------------
    # Preparation (ordering phase)
    # ------------------------------------------------------------------
    def prepare(
        self,
        query: Graph,
        use_cache: bool = True,
        deadline: Optional[float] = None,
        build_stats: Optional[SearchStats] = None,
    ) -> PreparedQuery:
        """Decompose, build the CPI and compute the matching order.

        With ``use_cache`` (the default) a structurally identical query
        against the same data-graph version returns the LRU-cached plan
        without re-running any of it (a mutation of a
        :class:`~repro.graph.dynamic.DynamicGraph` bumps the version,
        and the first call after that drops every cached plan, so a plan
        never outlives the graph it was built on); pass
        ``use_cache=False`` for a fresh, honestly timed plan (what
        :meth:`run` does for benchmarking).

        ``deadline`` aborts CPI construction with :class:`SearchTimeout`
        when crossed.  ``build_stats`` receives the build counters as
        they accrue — pass it to keep partial counts when the deadline
        fires mid-build (a cache hit records nothing, by design: the
        cached plan's own ``build_stats`` already holds its build cost).
        """
        if self.data.version != self._plan_version:
            self.clear_plan_cache()
            self._plan_version = self.data.version
        caching = use_cache and self.plan_cache_size != 0
        if caching:
            key = query.signature()
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.move_to_end(key)
                self.plan_cache_hits += 1
                return cached
        # Keyword args are forwarded only when set: test/benchmark
        # instrumentation wraps _prepare_fresh with (self, query).
        kwargs: Dict = {}
        if deadline is not None:
            kwargs["deadline"] = deadline
        if build_stats is not None:
            kwargs["build_stats"] = build_stats
        plan = self._prepare_fresh(query, **kwargs)
        if caching:
            self._cache_plan(key, plan)
        return plan

    def _cache_plan(self, key: tuple, plan: PreparedQuery) -> None:
        """Insert ``plan``, then evict least recently used plans while
        over the entry cap or :data:`PLAN_CACHE_BYTES` — never ``plan``."""
        cache = self._plan_cache
        cache[key] = plan
        self._plan_bytes += plan.nbytes
        cap = self.plan_cache_size
        while len(cache) > 1 and (
            (cap is not None and len(cache) > cap)
            or self._plan_bytes > PLAN_CACHE_BYTES
        ):
            _, evicted = cache.popitem(last=False)
            self._plan_bytes -= evicted.nbytes

    def clear_plan_cache(self) -> None:
        """Drop every cached plan (e.g. after swapping workloads)."""
        self._plan_cache.clear()
        self._plan_bytes = 0

    @property
    def plan_cache_bytes(self) -> int:
        """Bytes the cached plans hold (the sum of their ``nbytes``)."""
        return self._plan_bytes

    def has_cached_plan(self, signature: tuple) -> bool:
        """Whether the plan cache holds a plan for a query with this
        :meth:`~repro.graph.graph.Graph.signature`."""
        return signature in self._plan_cache

    def _prepare_fresh(
        self,
        query: Graph,
        deadline: Optional[float] = None,
        build_stats: Optional[SearchStats] = None,
    ) -> PreparedQuery:
        if query.num_vertices == 0:
            raise GraphError("empty query")
        self.prepare_count += 1
        if build_stats is None:
            build_stats = SearchStats()
        phase_times = empty_phase_times()
        started = time.perf_counter()
        verified: Dict[int, VerifiedCandidates] = {}
        decomposition = cfl_decompose(
            query,
            root_chooser=lambda q: select_root(q, self.data, verified=verified),
        )
        if decomposition.is_tree_query:
            # The chooser above ranked every query vertex, which is the
            # pool "match" mode uses too, so its pick is the root.
            root = decomposition.core[0]
        else:
            # "match" mode matches the whole query like a core.
            eligible = None if self.mode == "match" else decomposition.core
            root = select_root(query, self.data, eligible, verified=verified)
        phase_times["decomposition"] = time.perf_counter() - started
        cpi_started = time.perf_counter()
        cpi = self._build_cpi(
            query, root, stats=build_stats, deadline=deadline,
            root_verified=verified.get(root),
        )
        phase_times["cpi_build"] = time.perf_counter() - cpi_started
        return self._assemble_plan(
            query, decomposition, root, cpi, started,
            phase_times=phase_times, build_stats=build_stats,
        )

    def prepare_from_cpi(
        self,
        query: Graph,
        cpi: CPI,
        core_order: Optional[List[int]] = None,
        forest_order: Optional[List[int]] = None,
        kernel_plan: Optional[KernelPlan] = None,
        segment_attach: float = 0.0,
    ) -> PreparedQuery:
        """Rebuild a :class:`PreparedQuery` around a prebuilt CPI.

        This is the cheap re-preparation path for plans shipped across
        process boundaries (a :mod:`repro.core.shm` plan segment read
        in a pool worker): Algorithms 3+4 are *not* re-run, and when the parent
        also ships its ``core_order``/``forest_order`` the Algorithm 2
        DP is skipped too — only query-sized metadata (decomposition,
        slots, leaf plan) is recomputed.  ``kernel_plan`` injects an
        already-compiled kernel (views over a shared plan segment) so
        the flat-array compilation is skipped as well; ``segment_attach``
        records the wall time the caller spent attaching + decoding the
        segment into the plan's phase timers.
        """
        if query.num_vertices == 0:
            raise GraphError("empty query")
        phase_times = empty_phase_times()
        phase_times["segment_attach"] = segment_attach
        started = time.perf_counter()
        decomposition = cfl_decompose(query, tree_root=cpi.root)
        phase_times["decomposition"] = time.perf_counter() - started
        # The CPI arrived prebuilt (cpi_build stays 0.0) but its size
        # counters are still recorded so worker-side profiles are never
        # partially zeroed.
        build_stats = SearchStats()
        _record_build_totals(cpi, build_stats)
        return self._assemble_plan(
            query, decomposition, cpi.root, cpi, started,
            core_order=core_order, forest_order=forest_order,
            phase_times=phase_times, build_stats=build_stats,
            kernel_plan=kernel_plan,
        )

    def _assemble_plan(
        self,
        query: Graph,
        decomposition: CFLDecomposition,
        root: int,
        cpi: CPI,
        started: float,
        core_order: Optional[List[int]] = None,
        forest_order: Optional[List[int]] = None,
        phase_times: Optional[Dict[str, float]] = None,
        build_stats: Optional[SearchStats] = None,
        kernel_plan: Optional[KernelPlan] = None,
    ) -> PreparedQuery:
        if phase_times is None:
            phase_times = empty_phase_times()
        if build_stats is None:
            build_stats = SearchStats()
        ordering_started = time.perf_counter()
        core_set: Set[int]
        if self.mode == "match":
            core_set = set(query.vertices())
        else:
            core_set = decomposition.core_set
        if core_order is None:
            if self.core_strategy == "hierarchical" and self.mode != "match":
                from .hierarchy import hierarchical_core_order

                core_order = hierarchical_core_order(cpi, sorted(core_set), root)
            else:
                core_order = order_structure(
                    cpi, root, core_set, use_non_tree_discount=True
                )

        leaf_vertices: List[int] = []
        if self.mode != "match":
            leaf_vertices = decomposition.leaves if self.mode == "cfl" else []
            if forest_order is None:
                forest_order = self._forest_order(
                    cpi, decomposition, set(leaf_vertices)
                )
        if forest_order is None:
            forest_order = []

        core_slots = build_ordered_vertices(cpi, core_order, check_non_tree=True)
        forest_slots = build_ordered_vertices(
            cpi, forest_order, already_mapped=core_order, check_non_tree=False
        )
        leaf_plan = build_leaf_plan(cpi, leaf_vertices)
        kernel: Optional[KernelPlan] = kernel_plan
        if kernel is None and self.engine == "kernel":
            # Compile inside the ordering timer: lowering the plan to
            # flat arrays is part of the preparation cost being measured.
            # (A kernel decoded from a shared plan segment arrives via
            # ``kernel_plan`` and skips this entirely.)
            kernel = compile_kernel_plan(cpi, core_slots, forest_slots)
        now = time.perf_counter()
        phase_times["ordering"] = now - ordering_started
        ordering_time = now - started
        return PreparedQuery(
            query=query,
            decomposition=decomposition,
            root=root,
            cpi=cpi,
            core_order=core_order,
            forest_order=forest_order,
            core_slots=core_slots,
            forest_slots=forest_slots,
            leaf_plan=leaf_plan,
            ordering_time=ordering_time,
            phase_times=phase_times,
            build_stats=build_stats,
            kernel=kernel,
        )

    def _ensure_kernel(self, plan: PreparedQuery) -> KernelPlan:
        """The plan's compiled form, compiling on first use.

        Plans assembled by this matcher under ``engine="kernel"`` arrive
        precompiled; plans built elsewhere (by a reference-engine
        matcher, then searched with this one) are compiled here once and the result is
        memoized on the plan.
        """
        kernel = plan.kernel
        if kernel is None:
            kernel = compile_kernel_plan(
                plan.cpi, plan.core_slots, plan.forest_slots
            )
            plan.kernel = kernel
        return kernel

    def _backtrackers(
        self,
        plan: PreparedQuery,
        core_stats: SearchStats,
        forest_stats: SearchStats,
        deadline: Optional[float],
        budget: Optional[WorkBudget],
    ) -> tuple:
        """Core and forest backtrackers for the configured engine."""
        if self.engine == "kernel":
            compiled = self._ensure_kernel(plan)
            return (
                KernelBacktracker(
                    compiled, compiled.core, core_stats,
                    deadline=deadline, budget=budget,
                ),
                KernelBacktracker(
                    compiled, compiled.forest, forest_stats,
                    deadline=deadline, budget=budget,
                ),
            )
        return (
            CPIBacktracker(
                plan.cpi, plan.core_slots, core_stats,
                deadline=deadline, budget=budget,
            ),
            CPIBacktracker(
                plan.cpi, plan.forest_slots, forest_stats,
                deadline=deadline, budget=budget,
            ),
        )

    def _build_cpi(
        self,
        query: Graph,
        root: int,
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
        root_verified: Optional[VerifiedCandidates] = None,
    ) -> CPI:
        if self.cpi_mode == "naive":
            return build_naive_cpi(
                query, self.data, root, stats=stats, deadline=deadline
            )
        refine = self.cpi_mode == "full"
        return build_cpi(
            query, self.data, root, refine=refine, stats=stats,
            deadline=deadline, aux=self.aux_cache, root_verified=root_verified,
        )

    def _forest_order(
        self,
        cpi: CPI,
        decomposition: CFLDecomposition,
        leaf_set: Set[int],
    ) -> List[int]:
        """Order the forest trees by estimated embeddings, then order each
        tree's paths with Algorithm 2 (Section 4.3)."""
        plans = []
        for tree in decomposition.trees:
            allowed = {tree.connection} | {
                v for v in tree.vertices if v not in leaf_set
            }
            if len(allowed) == 1:
                continue  # the tree is all leaves; Leaf-Match covers it
            estimate = estimate_tree_embeddings(cpi, tree.connection, allowed)
            plans.append((estimate, tree.connection, allowed))
        plans.sort(key=lambda item: (item[0], item[1]))
        order: List[int] = []
        for _, connection, allowed in plans:
            tree_order = order_structure(
                cpi, connection, allowed, use_non_tree_discount=False
            )
            order.extend(tree_order[1:])  # drop the connection vertex
        return order

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def search(
        self,
        query: Graph,
        limit: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
        stage_stats: Optional[dict] = None,
        root_candidates: Optional[List[int]] = None,
        budget: Optional[WorkBudget] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily yield embeddings (tuples mapping query vertex -> data
        vertex) until exhaustion or ``limit``.

        ``deadline`` (absolute ``perf_counter`` time) raises
        :class:`SearchTimeout` mid-search when crossed; ``budget`` is the
        work analogue — all three stages draw from it and raise
        :class:`BudgetExhausted` when it runs out.  Passing a dict
        as ``stage_stats`` fills it with per-stage ``SearchStats`` under
        the keys ``"core"``, ``"forest"`` and ``"leaf"``.
        ``root_candidates`` restricts the first matching-order vertex to
        that candidate subset — the partitioning hook used by
        :mod:`repro.core.parallel` (each embedding maps the root to
        exactly one candidate, so restrictions partition the result set).

        The kernel engine emits Leaf-Match in blocks: all embeddings that
        share one core+forest mapping come from one C-level iterator
        (:meth:`~repro.core.leaf_match.LeafBlock.stream`).  A block is
        built only when a bound on its leaf nodes, known from the
        candidate counts, fits in the remaining ``limit``, the remaining
        budget and :data:`~repro.core.leaf_match.BLOCK_NODE_CAP`; any
        other block streams through the reference path, so neither
        ``limit`` nor ``budget`` lets a block cost more than the
        reference path would.  Embeddings, their order and every counter
        equal the reference engine's once the search is exhausted,
        stopped by ``limit``, closed, or stopped by an exception (a
        budget that would run out inside a block sends that block
        through the reference path, so the truncation point is exact).
        Between two yields inside a block, ``embeddings`` and the leaf
        ``nodes`` lag: they are added when the block ends or the
        generator closes.
        """
        if limit is not None and limit <= 0:
            return
        plan = prepared if prepared is not None else self.prepare(query)
        if plan.cpi.is_empty():
            return
        if root_candidates is not None:
            allowed = plan.cpi.cand_sets[plan.root]
            roots = [v for v in root_candidates if v in allowed]
            if not roots:
                return
            plan = self._with_root_candidates(plan, roots)
        stats = stats if stats is not None else SearchStats()
        if stage_stats is not None:
            core_stats = stage_stats.setdefault("core", SearchStats())
            forest_stats = stage_stats.setdefault("forest", SearchStats())
            leaf_stats = stage_stats.setdefault("leaf", SearchStats())
        else:
            core_stats = forest_stats = leaf_stats = stats
        mapping = [-1] * query.num_vertices
        used = bytearray(self.data.num_vertices)
        emitted = 0
        blocks = self.engine == "kernel"
        core_bt, forest_bt = self._backtrackers(
            plan, core_stats, forest_stats, deadline, budget
        )
        cpi = plan.cpi
        leaf_plan = plan.leaf_plan
        for _ in core_bt.extend(mapping, used):
            for _ in forest_bt.extend(mapping, used):
                block = None
                if blocks and leaf_plan.classes:
                    # Build no more than the consumer may take: the
                    # oracle expands at least one leaf node per
                    # embedding, so the remaining ``limit`` and
                    # budget bound the build's cost too.
                    allowance = BLOCK_NODE_CAP
                    if limit is not None:
                        allowance = min(allowance, limit - emitted)
                    if budget is not None:
                        allowance = min(allowance, budget.remaining)
                    block = build_leaf_block(cpi, leaf_plan, mapping, used, allowance)
                    if block is not None and budget is not None:
                        if budget.remaining < block.nodes:
                            # The budget runs out inside this block:
                            # the oracle finds the exact point.
                            block = None
                        else:
                            budget.charge(block.nodes)
                if block is None:
                    for _ in enumerate_leaf_matches(
                        cpi, leaf_plan, mapping, used,
                        leaf_stats, budget=budget,
                    ):
                        stats.embeddings += 1
                        emitted += 1
                        yield tuple(mapping)
                        if limit is not None and emitted >= limit:
                            return
                    continue
                if not block.size:
                    leaf_stats.nodes += block.nodes
                    continue
                stream = block.stream(tuple(mapping), leaf_plan.getter)
                if limit is not None:
                    stream = islice(stream, limit - emitted)
                # compress() passes every item and advances the
                # counter once per item consumed, never past it.
                consumed = count(1)
                exhausted = False
                try:
                    yield from compress(stream, consumed)
                    exhausted = True
                finally:
                    taken = next(consumed) - 1
                    stats.embeddings += taken
                    emitted += taken
                    # A block cut by ``limit`` ends where the oracle
                    # stops: at its last yield, before trailing dead
                    # ends.
                    if exhausted and (limit is None or emitted < limit):
                        leaf_nodes = block.nodes
                    else:
                        leaf_nodes = block.nodes_through(taken) if taken else 0
                        if budget is not None:
                            budget.remaining += block.nodes - leaf_nodes
                    leaf_stats.nodes += leaf_nodes
                if limit is not None and emitted >= limit:
                    return

    def _with_root_candidates(
        self, plan: PreparedQuery, filtered: List[int]
    ) -> PreparedQuery:
        """Shallow plan copy whose root candidate set is ``filtered``.

        Adjacency lists, candidate sets of the other vertices and the
        matching orders are all shared (the root has no incoming tree
        edge and the orders do not depend on the root's candidate list
        contents), so a restriction costs O(|V(q)| + |filtered|) — cheap
        enough that the parallel engine restricts per root candidate.
        """
        restricted = plan.cpi.with_root_candidates(filtered)
        kernel: Optional[KernelPlan] = None
        if self.engine == "kernel":
            # Restrict the compiled form too (compiling first if the plan
            # arrived without one); ranks stay keyed to the original
            # candidate list so shared CSR rows remain valid.
            kernel = self._ensure_kernel(plan).with_root_candidates(filtered)
        return PreparedQuery(
            query=plan.query,
            decomposition=plan.decomposition,
            root=plan.root,
            cpi=restricted,
            core_order=plan.core_order,
            forest_order=plan.forest_order,
            core_slots=plan.core_slots,
            forest_slots=plan.forest_slots,
            leaf_plan=plan.leaf_plan,
            ordering_time=plan.ordering_time,
            phase_times=plan.phase_times,
            build_stats=plan.build_stats,
            kernel=kernel,
        )

    def count(
        self,
        query: Graph,
        limit: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        root_candidates: Optional[List[int]] = None,
        stats: Optional[SearchStats] = None,
        stage_stats: Optional[dict] = None,
        deadline: Optional[float] = None,
        budget: Optional[WorkBudget] = None,
    ) -> int:
        """Count embeddings without expanding leaf NEC permutations.

        With ``limit`` the count stops growing once it reaches the limit
        (mirroring "report the first k embeddings"); the exact total may
        be larger.  ``root_candidates`` restricts the root as in
        :meth:`search`; ``stats``/``stage_stats``/``deadline``/``budget``
        mirror :meth:`search` (leaf expansions here count NEC
        *combinations*, each worth its ``m`` member assignments).  A
        ``limit`` of 0 or less counts 0 without preparing, as
        :meth:`search` yields nothing.  The kernel engine takes each
        mapping's leaf count in closed form (``closed_form`` of
        :func:`~repro.core.leaf_match.count_leaf_matches`); the
        reference engine explores the combinations.
        """
        if limit is not None and limit <= 0:
            return 0
        plan = prepared if prepared is not None else self.prepare(query)
        if plan.cpi.is_empty():
            return 0
        if root_candidates is not None:
            allowed = plan.cpi.cand_sets[plan.root]
            roots = [v for v in root_candidates if v in allowed]
            if not roots:
                return 0
            plan = self._with_root_candidates(plan, roots)
        stats = stats if stats is not None else SearchStats()
        if stage_stats is not None:
            core_stats = stage_stats.setdefault("core", SearchStats())
            forest_stats = stage_stats.setdefault("forest", SearchStats())
            leaf_stats = stage_stats.setdefault("leaf", SearchStats())
        else:
            core_stats = forest_stats = leaf_stats = stats
        mapping = [-1] * query.num_vertices
        used = bytearray(self.data.num_vertices)
        total = 0
        closed_form = self.engine == "kernel"
        core_bt, forest_bt = self._backtrackers(
            plan, core_stats, forest_stats, deadline, budget
        )
        for _ in core_bt.extend(mapping, used):
            for _ in forest_bt.extend(mapping, used):
                cap = None if limit is None else limit - total
                total += count_leaf_matches(
                    plan.cpi, plan.leaf_plan, mapping, used,
                    cap=cap, stats=leaf_stats, budget=budget,
                    closed_form=closed_form,
                )
                if limit is not None and total >= limit:
                    stats.embeddings += limit
                    return limit
        stats.embeddings += total
        return total

    def run(
        self,
        query: Graph,
        limit: Optional[int] = None,
        collect: bool = False,
        deadline: Optional[float] = None,
        max_expansions: Optional[int] = None,
        count_only: bool = False,
        prepared: Optional[PreparedQuery] = None,
    ) -> MatchReport:
        """Prepare + enumerate with timing, the benchmark entry point.

        ``deadline`` is an absolute ``time.perf_counter()`` timestamp; the
        run stops (``timed_out=True``) when enumeration — or CPI
        construction itself — crosses it.  ``max_expansions`` bounds the
        partial-match expansions the same way (``budget_exhausted=True``).
        Truncated runs return normally with partial counters intact.
        ``count_only`` counts through the NEC-combination path instead of
        materializing embeddings (``collect`` is then ignored).
        ``run`` always prepares afresh (bypassing the plan cache) so its
        ``ordering_time`` is an honest measurement; ``prepared`` skips
        that and reuses an existing plan's timers and build counters.
        """
        budget = WorkBudget(max_expansions) if max_expansions is not None else None
        stats = SearchStats()
        stage_stats: dict = {}
        results: Optional[List[Tuple[int, ...]]] = (
            [] if collect and not count_only else None
        )
        if prepared is None:
            build_stats = SearchStats()
            prepare_started = time.perf_counter()
            try:
                prepared = self.prepare(
                    query, use_cache=False, deadline=deadline,
                    build_stats=build_stats,
                )
            except SearchTimeout:
                # Deadline fired during CPI construction: flag the run and
                # keep the partial build counters accrued so far.
                return MatchReport(
                    embeddings=0,
                    ordering_time=time.perf_counter() - prepare_started,
                    enumeration_time=0.0,
                    cpi_size=0,
                    candidate_counts=[],
                    stats=stats,
                    timed_out=True,
                    results=results,
                    stage_nodes={},
                    phase_times=empty_phase_times(),
                    build_stats=build_stats,
                )
        timed_out = False
        budget_exhausted = False
        started = time.perf_counter()
        found = 0
        try:
            if count_only:
                found = self.count(
                    query, limit=limit, prepared=prepared, stats=stats,
                    stage_stats=stage_stats, deadline=deadline, budget=budget,
                )
            else:
                for embedding in self.search(
                    query, limit=limit, prepared=prepared, stats=stats,
                    deadline=deadline, stage_stats=stage_stats, budget=budget,
                ):
                    found += 1
                    if collect and results is not None:
                        results.append(embedding)
                    if deadline is not None and found % 256 == 0:
                        if time.perf_counter() > deadline:
                            timed_out = True
                            break
        except SearchTimeout:
            timed_out = True
        except BudgetExhausted:
            budget_exhausted = True
        enumeration_time = time.perf_counter() - started
        aggregate_stage_stats(stage_stats, into=stats)
        phase_times = dict(prepared.phase_times)
        phase_times["enumeration"] = enumeration_time
        cpi_size, candidate_counts = prepared.cpi_totals
        return MatchReport(
            embeddings=found,
            ordering_time=prepared.ordering_time,
            enumeration_time=enumeration_time,
            cpi_size=cpi_size,
            candidate_counts=candidate_counts,
            stats=stats,
            timed_out=timed_out,
            budget_exhausted=budget_exhausted,
            results=results,
            stage_nodes={name: s.nodes for name, s in stage_stats.items()},
            phase_times=phase_times,
            build_stats=prepared.build_stats,
        )


def build_data_csr(data: Graph) -> Tuple["array[int]", "array[int]"]:
    """``data``'s adjacency as an int32 CSR pair (:func:`~repro.core.shm.adjacency_csr`).

    No engine calls this: the kernel bisects ``data.adj`` itself.  The
    name stays because ``perfbench/tracing.py`` wraps it (its
    ``core.kernel.data_csr`` span, which now reads 0).
    """
    return adjacency_csr(data)


def find_embeddings(
    query: Graph, data: Graph, limit: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """One-shot convenience: all (or first ``limit``) embeddings of q in G."""
    return list(CFLMatch(data).search(query, limit=limit))


def count_embeddings(query: Graph, data: Graph, limit: Optional[int] = None) -> int:
    """One-shot convenience: number of embeddings of q in G."""
    return CFLMatch(data).count(query, limit=limit)
