"""Tests for the shared-plan parallel matching engine."""

import multiprocessing
from collections import Counter

import pytest

from repro.core import CFLMatch, estimate_root_costs
from repro.core.parallel import (
    MatcherPool,
    _cost_weighted_chunks,
    _dispatch,
    parallel_count,
    parallel_search,
    parallel_search_iter,
)
from repro.core.shm import PlanSegment, attach_plan_segment
from repro.graph import Graph, random_connected_graph
from repro.testing.workloads import CONNECTED_QUERY_SCENARIOS, WorkloadSpec, generate_case
from repro.workloads.paper_graphs import figure1_example

FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK, reason="fork start method unavailable")


class TestChunks:
    """Without cost estimates every root weighs the same."""

    def test_round_robin(self):
        assert _cost_weighted_chunks([1, 2, 3, 4, 5], {}, 2) == [[1, 3, 5], [2, 4]]

    def test_more_pieces_than_items(self):
        assert _cost_weighted_chunks([1, 2], {}, 5) == [[1], [2]]

    def test_single_piece(self):
        assert _cost_weighted_chunks([1, 2, 3], {}, 1) == [[1, 2, 3]]


class TestCostWeightedChunks:
    def test_partitions_all_roots(self):
        roots = list(range(10))
        costs = {v: v * v for v in roots}
        buckets = _cost_weighted_chunks(roots, costs, 3)
        flattened = sorted(v for bucket in buckets for v in bucket)
        assert flattened == roots
        assert len(buckets) == 3

    def test_isolates_the_heavy_root(self):
        """One dominant root must not share its bucket under LPT."""
        roots = list(range(9))
        costs = {0: 1000}
        buckets = _cost_weighted_chunks(roots, costs, 4)
        heavy = [bucket for bucket in buckets if 0 in bucket]
        assert heavy == [[0]]
        # heaviest bucket is dispatched first
        assert buckets[0] == [0]

    def test_balances_uniform_weights(self):
        buckets = _cost_weighted_chunks(list(range(12)), {}, 4)
        assert sorted(len(b) for b in buckets) == [3, 3, 3, 3]

    def test_deterministic(self):
        roots = list(range(20))
        costs = {v: (v * 7) % 5 for v in roots}
        assert _cost_weighted_chunks(roots, costs, 6) == _cost_weighted_chunks(
            roots, costs, 6
        )

    def test_estimate_root_costs_matches_tree_estimate(self):
        from repro.core.ordering import estimate_tree_embeddings

        ex = figure1_example(10, 10)
        matcher = CFLMatch(ex.data)
        plan = matcher.prepare(ex.query)
        costs = estimate_root_costs(plan.cpi)
        assert set(costs) <= set(plan.cpi.candidates[plan.cpi.root])
        allowed = set(ex.query.vertices())
        assert sum(costs.values()) == estimate_tree_embeddings(
            plan.cpi, plan.cpi.root, allowed
        )


class _FakePool:
    """Synchronous stand-in for multiprocessing.Pool.apply_async."""

    def __init__(self, task):
        self.task = task
        self.submitted = []

    def apply_async(self, func, args, callback, error_callback):
        self.submitted.append(args[0])
        try:
            callback(self.task(args[0]))
        except Exception as exc:  # pragma: no cover - error-path test only
            error_callback(exc)


class TestDispatcher:
    """The wave scheduler must shrink budgets and stop early."""

    def test_budgets_shrink_per_dispatched_chunk(self):
        chunks = [[1, 2, 3], [4, 5], [6], [7], [8]]
        # each chunk "finds" 4 embeddings (capped by its budget)
        task = lambda args: min(4, args[1])
        pool = _FakePool(task)
        cancel = multiprocessing.get_context("spawn").Event()
        results = list(
            _dispatch(
                pool, task, lambda c, b: (c, b), chunks,
                limit=10, cancel=cancel, measure=lambda v: v, max_inflight=1,
            )
        )
        budgets = [budget for _, budget in pool.submitted]
        assert budgets == [10, 6, 2]       # shrinking remaining budget
        assert results == [4, 4, 2]
        assert cancel.is_set()             # global limit reached -> cancel
        assert len(pool.submitted) == 3    # backlog chunks never dispatched

    def test_no_limit_submits_everything(self):
        chunks = [[1], [2], [3]]
        task = lambda args: 1
        pool = _FakePool(task)
        cancel = multiprocessing.get_context("spawn").Event()
        total = sum(
            _dispatch(
                pool, task, lambda c, b: (c, b), chunks,
                limit=None, cancel=cancel, measure=lambda v: v,
                max_inflight=len(chunks),
            )
        )
        assert total == 3
        assert [budget for _, budget in pool.submitted] == [None, None, None]
        assert not cancel.is_set()

    def test_error_sets_cancel_and_raises(self):
        def task(args):
            raise RuntimeError("worker exploded")

        pool = _FakePool(task)
        cancel = multiprocessing.get_context("spawn").Event()
        with pytest.raises(RuntimeError, match="worker exploded"):
            list(
                _dispatch(
                    pool, task, lambda c, b: (c, b), [[1]],
                    limit=None, cancel=cancel, measure=lambda v: v, max_inflight=1,
                )
            )
        assert cancel.is_set()


class TestRootRestriction:
    """The partitioning hook on CFLMatch itself."""

    def test_restrictions_partition_results(self, rng):
        for _ in range(10):
            data = random_connected_graph(rng.randrange(8, 20), rng.randrange(0, 15), 3, rng)
            query = random_connected_graph(rng.randrange(2, 6), rng.randrange(0, 3), 2, rng)
            matcher = CFLMatch(data)
            prepared = matcher.prepare(query)
            roots = list(prepared.cpi.candidates[prepared.root])
            full = set(matcher.search(query))
            pieces = [
                set(matcher.search(query, root_candidates=chunk))
                for chunk in _cost_weighted_chunks(
                    roots, estimate_root_costs(prepared.cpi), 3
                )
            ]
            combined = set().union(*pieces) if pieces else set()
            assert combined == full
            # disjointness
            assert sum(len(p) for p in pieces) == len(full)

    def test_empty_restriction(self):
        data = Graph([0, 1], [(0, 1)])
        query = Graph([0, 1], [(0, 1)])
        matcher = CFLMatch(data)
        assert list(matcher.search(query, root_candidates=[])) == []
        assert matcher.count(query, root_candidates=[999]) == 0

    def test_count_restriction(self):
        ex = figure1_example(10, 10)
        matcher = CFLMatch(ex.data)
        prepared = matcher.prepare(ex.query)
        roots = prepared.cpi.candidates[prepared.root]
        total = sum(
            matcher.count(ex.query, root_candidates=[v]) for v in roots
        )
        assert total == 10

    def test_restriction_shares_structure(self):
        """with_root_candidates must not copy non-root candidate sets."""
        ex = figure1_example(10, 10)
        matcher = CFLMatch(ex.data)
        plan = matcher.prepare(ex.query)
        roots = plan.cpi.candidates[plan.root]
        restricted = plan.cpi.with_root_candidates(roots[:1])
        assert restricted.adjacency is plan.cpi.adjacency
        for u in ex.query.vertices():
            if u == plan.root:
                continue
            assert restricted.candidates[u] is plan.cpi.candidates[u]
            assert restricted.cand_sets[u] is plan.cpi.cand_sets[u]
        assert restricted.candidates[plan.root] == sorted(roots[:1])


class TestParallel:
    def test_parallel_count_matches_sequential(self):
        ex = figure1_example(20, 30)
        sequential = CFLMatch(ex.data).count(ex.query)
        assert parallel_count(ex.data, ex.query, workers=2) == sequential

    def test_parallel_search_matches_sequential(self, rng):
        data = random_connected_graph(20, 15, 2, rng)
        query = random_connected_graph(4, 1, 2, rng)
        sequential = set(CFLMatch(data).search(query))
        parallel = set(parallel_search(data, query, workers=2))
        assert parallel == sequential

    def test_workers_one_falls_back_inline(self):
        ex = figure1_example(5, 5)
        assert parallel_count(ex.data, ex.query, workers=1) == 5

    def test_single_candidate_root_falls_back_inline(self):
        ex = figure1_example(1, 3)
        matcher = CFLMatch(ex.data)
        plan = matcher.prepare(ex.query)
        expected = matcher.count(ex.query)
        if len(plan.cpi.candidates[plan.root]) == 1:
            assert parallel_count(ex.data, ex.query, workers=4) == expected
        assert parallel_count(ex.data, ex.query, workers=4) == expected

    def test_limit_saturates(self):
        ex = figure1_example(30, 30)
        assert parallel_count(ex.data, ex.query, workers=2, limit=7) == 7
        assert len(parallel_search(ex.data, ex.query, workers=2, limit=7)) == 7

    def test_limit_zero_and_one(self):
        ex = figure1_example(10, 10)
        assert parallel_count(ex.data, ex.query, workers=2, limit=0) == 0
        assert parallel_search(ex.data, ex.query, workers=2, limit=0) == []
        assert parallel_count(ex.data, ex.query, workers=2, limit=1) == 1
        assert len(parallel_search(ex.data, ex.query, workers=2, limit=1)) == 1

    def test_no_candidates(self):
        data = Graph([0], [])
        query = Graph([9], [])
        assert parallel_count(data, query, workers=2) == 0
        assert parallel_search(data, query, workers=2) == []

    def test_matcher_kwargs_forwarded(self):
        ex = figure1_example(8, 8)
        count = parallel_count(ex.data, ex.query, workers=2, cpi_mode="td")
        assert count == 8

    def test_streaming_iterator_respects_limit(self):
        ex = figure1_example(30, 30)
        stream = parallel_search_iter(ex.data, ex.query, workers=2, limit=5)
        first = next(stream)
        assert isinstance(first, tuple)
        rest = list(stream)
        assert len(rest) == 4

    def test_spawn_context_matches_fork(self):
        """Spawn workers attach a shared graph store instead of
        inheriting ``data``; the answers must not change."""
        ex = figure1_example(12, 12)
        expected = CFLMatch(ex.data).count(ex.query)
        assert (
            parallel_count(ex.data, ex.query, workers=2, start_method="spawn")
            == expected
        )
        assert Counter(
            parallel_search(ex.data, ex.query, workers=2, start_method="spawn")
        ) == Counter(CFLMatch(ex.data).search(ex.query))


class TestPrepareOnce:
    """The tentpole invariant: one prepare() per query across the whole
    parallel execution, asserted by a fork-shared counter."""

    @needs_fork
    def test_prepare_runs_exactly_once_across_workers(self, monkeypatch):
        ex = figure1_example(20, 20)
        ctx = multiprocessing.get_context("fork")
        counter = ctx.Value("i", 0)
        original = CFLMatch._prepare_fresh

        def counted(self, query):
            with counter.get_lock():
                counter.value += 1
            return original(self, query)

        monkeypatch.setattr(CFLMatch, "_prepare_fresh", counted)
        assert (
            parallel_count(ex.data, ex.query, workers=2, start_method="fork") == 20
        )
        assert counter.value == 1

    @needs_fork
    def test_sequential_fallback_prepares_once(self, monkeypatch):
        """workers=1 used to prepare twice (root scan + count)."""
        ex = figure1_example(6, 6)
        ctx = multiprocessing.get_context("fork")
        counter = ctx.Value("i", 0)
        original = CFLMatch._prepare_fresh

        def counted(self, query):
            with counter.get_lock():
                counter.value += 1
            return original(self, query)

        monkeypatch.setattr(CFLMatch, "_prepare_fresh", counted)
        assert parallel_count(ex.data, ex.query, workers=1) == 6
        assert counter.value == 1

    @needs_fork
    def test_search_prepares_exactly_once_across_workers(self, monkeypatch):
        ex = figure1_example(10, 10)
        ctx = multiprocessing.get_context("fork")
        counter = ctx.Value("i", 0)
        original = CFLMatch._prepare_fresh

        def counted(self, query):
            with counter.get_lock():
                counter.value += 1
            return original(self, query)

        monkeypatch.setattr(CFLMatch, "_prepare_fresh", counted)
        assert len(parallel_search(ex.data, ex.query, workers=2, start_method="fork")) == 10
        assert counter.value == 1


class TestPlanWire:
    """Plan segments: the one form in which a plan crosses a process
    boundary."""

    @staticmethod
    def _attached(receiver, plan):
        segment = PlanSegment.create(plan)
        try:
            return attach_plan_segment(receiver, segment.name)
        finally:
            segment.unlink()
            segment.close()

    def test_round_trip_reproduces_results(self):
        spec = WorkloadSpec(scenarios=("dense", "nec-heavy", "twins"))
        for index in range(6):
            case = generate_case(9000, index, spec)
            matcher = CFLMatch(case.data)
            plan = matcher.prepare(case.query)
            rebuilt, attached = self._attached(matcher, plan)
            assert rebuilt.root == plan.root
            assert rebuilt.core_order == plan.core_order
            assert rebuilt.forest_order == plan.forest_order
            assert Counter(
                matcher.search(case.query, prepared=rebuilt)
            ) == Counter(matcher.search(case.query, prepared=plan))
            attached.close()

    def test_decode_skips_cpi_build(self, monkeypatch):
        ex = figure1_example(8, 8)
        matcher = CFLMatch(ex.data)
        plan = matcher.prepare(ex.query)

        def boom(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("CPI build must not run on decode")

        monkeypatch.setattr(CFLMatch, "_build_cpi", boom)
        rebuilt, attached = self._attached(matcher, plan)
        assert matcher.count(ex.query, prepared=rebuilt) == 8
        attached.close()


class TestMatcherPool:
    def test_serves_multiple_queries_without_reforking(self):
        ex = figure1_example(15, 15)
        other = figure1_example(4, 9)
        with MatcherPool(ex.data, workers=2) as pool:
            assert pool.count(ex.query) == 15
            assert pool.count(other.query) == CFLMatch(ex.data).count(other.query)
            assert Counter(pool.search(ex.query)) == Counter(
                CFLMatch(ex.data).search(ex.query)
            )

    def test_repeated_query_hits_plan_cache(self):
        ex = figure1_example(12, 12)
        with MatcherPool(ex.data, workers=2) as pool:
            for _ in range(3):
                assert pool.count(ex.query) == 12
            assert pool.matcher.prepare_count == 1
            assert pool.matcher.plan_cache_hits == 2

    def test_search_iter_streams_with_limit(self):
        ex = figure1_example(25, 25)
        with MatcherPool(ex.data, workers=2) as pool:
            got = list(pool.search_iter(ex.query, limit=6))
            assert len(got) == 6
            # the pool is immediately reusable after an early stop
            assert pool.count(ex.query) == 25

    def test_limit_edge_cases(self):
        ex = figure1_example(9, 9)
        with MatcherPool(ex.data, workers=2) as pool:
            assert pool.count(ex.query, limit=0) == 0
            assert pool.search(ex.query, limit=0) == []
            assert pool.count(ex.query, limit=1) == 1
            assert len(pool.search(ex.query, limit=1)) == 1

    def test_empty_result_query(self):
        ex = figure1_example(5, 5)
        missing = Graph([max(ex.data.labels) + 7], [])
        with MatcherPool(ex.data, workers=2) as pool:
            assert pool.count(missing) == 0
            assert pool.search(missing) == []

    def test_spawn_pool(self):
        ex = figure1_example(8, 8)
        with MatcherPool(ex.data, workers=2, start_method="spawn") as pool:
            assert pool.count(ex.query) == 8
            assert pool.count(ex.query) == 8  # worker-side plan LRU hit

    def test_closed_pool_rejects_queries(self):
        ex = figure1_example(3, 3)
        pool = MatcherPool(ex.data, workers=2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.count(ex.query)

    def test_mutated_graph_rejects_queries(self):
        """The pool's workers hold a copy of the graph from construction;
        after a mutation it must raise, never answer from that copy."""
        from repro.graph.dynamic import DynamicGraph

        data = DynamicGraph.from_graph(Graph([0, 1, 0, 1], [(0, 1), (1, 2)]))
        query = Graph([0, 1], [(0, 1)])
        with MatcherPool(data, workers=2) as pool:
            assert pool.count(query) == 2
            data.add_edge(2, 3)
            assert CFLMatch(data).count(query) == 3
            with pytest.raises(RuntimeError, match="version"):
                pool.count(query)
            with pytest.raises(RuntimeError, match="version"):
                list(pool.search_iter(query))
            with pytest.raises(RuntimeError, match="version"):
                pool.run(query)

    def test_workers_one_runs_inline(self):
        ex = figure1_example(7, 7)
        with MatcherPool(ex.data, workers=1) as pool:
            assert pool.count(ex.query) == 7


class TestPlanCache:
    """The CFLMatch LRU plan cache the pools and serving paths lean on."""

    def test_hit_and_counterattribution(self):
        ex = figure1_example(6, 6)
        matcher = CFLMatch(ex.data)
        assert matcher.count(ex.query) == 6
        assert matcher.count(ex.query) == 6
        assert list(matcher.search(ex.query))
        assert matcher.prepare_count == 1
        assert matcher.plan_cache_hits == 2

    def test_distinct_queries_miss(self):
        ex = figure1_example(6, 6)
        matcher = CFLMatch(ex.data)
        matcher.count(ex.query)
        shifted = Graph(
            [lab + 1 for lab in ex.query.labels], list(ex.query.edges())
        )
        matcher.count(shifted)
        assert matcher.prepare_count == 2

    def test_lru_eviction(self):
        ex = figure1_example(6, 6)
        matcher = CFLMatch(ex.data, plan_cache_size=1)
        other = Graph([lab + 1 for lab in ex.query.labels], list(ex.query.edges()))
        matcher.count(ex.query)
        matcher.count(other)      # evicts ex.query's plan
        matcher.count(ex.query)   # must re-prepare
        assert matcher.prepare_count == 3
        assert matcher.plan_cache_hits == 0

    def test_cache_disabled(self):
        ex = figure1_example(6, 6)
        matcher = CFLMatch(ex.data, plan_cache_size=0)
        matcher.count(ex.query)
        matcher.count(ex.query)
        assert matcher.prepare_count == 2
        assert matcher.plan_cache_hits == 0

    def test_clear_plan_cache(self):
        ex = figure1_example(6, 6)
        matcher = CFLMatch(ex.data)
        matcher.count(ex.query)
        matcher.clear_plan_cache()
        matcher.count(ex.query)
        assert matcher.prepare_count == 2

    def test_run_bypasses_cache_for_honest_timing(self):
        ex = figure1_example(6, 6)
        matcher = CFLMatch(ex.data)
        matcher.count(ex.query)
        report = matcher.run(ex.query)
        assert report.embeddings == 6
        assert matcher.prepare_count == 2

    def test_cached_plan_not_corrupted_by_restrictions(self):
        """Root-restricted searches must not mutate the cached plan."""
        ex = figure1_example(10, 10)
        matcher = CFLMatch(ex.data)
        plan = matcher.prepare(ex.query)
        roots = list(plan.cpi.candidates[plan.root])
        matcher.count(ex.query, root_candidates=roots[:1])
        assert matcher.count(ex.query) == 10
        assert plan.cpi.candidates[plan.root] == roots


class TestParallelDifferential:
    """Differential coverage: the parallel matcher must return the exact
    sequential embedding multiset on a broad seeded workload sweep."""

    def test_matches_sequential_on_fuzz_workloads(self):
        spec = WorkloadSpec(scenarios=CONNECTED_QUERY_SCENARIOS)
        checked = 0
        scenarios_seen = set()
        empties = 0
        index = 0
        while checked < 20:
            case = generate_case(8128, index, spec)
            index += 1
            sequential = Counter(CFLMatch(case.data).search(case.query))
            parallel = Counter(
                parallel_search(case.data, case.query, workers=2)
            )
            assert parallel == sequential, case.describe()
            assert parallel_count(case.data, case.query, workers=2) == sum(
                sequential.values()
            ), case.describe()
            checked += 1
            scenarios_seen.add(case.scenario)
            if not sequential:
                empties += 1
        # The sweep must include the tricky regimes, not just easy cases.
        assert "nec-heavy" in scenarios_seen
        assert "empty-result" in scenarios_seen
        assert empties >= 1

    def test_pool_matches_sequential_on_fuzz_workloads(self):
        """One persistent pool across a stream of distinct queries."""
        spec = WorkloadSpec(scenarios=("dense", "nec-heavy", "twins", "uniform"))
        cases = [generate_case(4242, index, spec) for index in range(4)]
        for case in cases:
            with MatcherPool(case.data, workers=2) as pool:
                sequential = Counter(CFLMatch(case.data).search(case.query))
                assert Counter(pool.search(case.query)) == sequential, case.describe()
                assert pool.count(case.query) == sum(sequential.values())
