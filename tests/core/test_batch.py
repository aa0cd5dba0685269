"""Batch-engine suite: shared caches must not change any observable.

The contract under test (see ``repro/core/batch.py``):

* every query in a batch returns bit-identical embeddings, enumeration
  order and per-query ``SearchStats``/``build_stats`` to a fresh
  one-at-a-time matcher, on every fuzz scenario;
* the auxiliary adjacency cache builds only the rows a CPI build asks
  for, stores each once, and respects its byte budget (LRU eviction,
  never of the entry being filled) without changing results;
* a budget-truncated query cannot poison the shared caches for later
  queries (a row is stored only once it is whole);
* a batch report keeps its own run's aux counters.
"""

import glob
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import CFLMatch
from repro.core.batch import (
    AuxAdjacencyCache,
    BatchMatcher,
    batch_execution_order,
    degree_bucket,
    label_signature,
)
from repro.core.shm import SEGMENT_PREFIX
from repro.graph import Graph
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import random_walk_query
from repro.testing.workloads import (
    CONNECTED_QUERY_SCENARIOS,
    WorkloadSpec,
    generate_case,
    generate_delta_stream,
)
from repro.workloads import load_dataset, mixed_batch_workload

#: Dense enough that core slots carry backward non-tree edges, so the
#: eager intersection actually runs.
DENSE_SPEC = WorkloadSpec(
    scenarios=("dense",), data_vertices=(60, 60), query_vertices=(7, 7)
)


def shm_segments():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def batch_for(case, seed, extras=2):
    """A small batch over ``case.data``: the case query, a duplicate of
    it (plan-cache hit), and a few random-walk queries."""
    queries = [case.query, case.query]
    rng = random.Random(seed * 1000 + 17)
    for _ in range(extras):
        size = min(4 + rng.randrange(3), case.data.num_vertices)
        try:
            queries.append(random_walk_query(case.data, size, rng))
        except Exception:
            queries.append(case.query)
    return queries


def one_at_a_time(data, queries, **matcher_kwargs):
    """The serving baseline: a fresh matcher (fresh caches) per query."""
    reports = []
    for query in queries:
        matcher = CFLMatch(data, **matcher_kwargs)
        reports.append(matcher.run(query, collect=True))
    return reports


class TestBatchDifferential:
    @pytest.mark.parametrize("scenario", CONNECTED_QUERY_SCENARIOS)
    def test_batch_matches_one_at_a_time(self, scenario):
        spec = WorkloadSpec(scenarios=(scenario,))
        for seed in range(3):
            case = generate_case(seed, 0, spec)
            queries = batch_for(case, seed)
            baseline = one_at_a_time(case.data, queries)
            report = BatchMatcher(case.data).run(
                queries, count_only=False, collect=True
            )
            assert len(report.results) == len(queries)
            for index, result in enumerate(report.results):
                expected = baseline[index]
                assert result.index == index
                assert result.embeddings == expected.embeddings, case.describe()
                # Same embeddings in the same order (not just the same set).
                assert result.results == expected.results, case.describe()
                # Bit-identical per-query counters: enumeration AND build.
                assert (
                    result.stats.to_dict() == expected.stats.to_dict()
                ), case.describe()
                assert (
                    result.build_stats.to_dict()
                    == expected.build_stats.to_dict()
                ), case.describe()

    def test_duplicate_queries_hit_the_plan_cache(self):
        case = generate_case(0, 0, DENSE_SPEC)
        report = BatchMatcher(case.data).run([case.query] * 4)
        assert report.plan_cache_hits == 3
        counts = {result.embeddings for result in report.results}
        assert len(counts) == 1

    def test_aux_counters_flow_to_the_report(self):
        case = generate_case(0, 0, DENSE_SPEC)
        report = BatchMatcher(case.data).run(batch_for(case, 0))
        assert report.aux_stats.aux_adj_misses > 0
        assert report.aux_stats.aux_adj_bytes > 0
        assert 0.0 <= report.aux_hit_rate <= 1.0
        payload = report.to_dict()
        assert payload["aux"]["misses"] == report.aux_stats.aux_adj_misses
        # aux counters live batch-side only: per-query counters must not
        # carry them, or batch runs would diverge from one-at-a-time.
        for result in report.results:
            assert result.stats.aux_adj_hits == 0
            assert result.build_stats.aux_adj_hits == 0
            assert result.build_stats.aux_adj_misses == 0

    def test_report_keeps_its_own_run_counters(self):
        # A report snapshots its run's share of the cache's counters: a
        # later run on the same matcher must not change it.
        case = generate_case(0, 0, DENSE_SPEC)
        batch = BatchMatcher(case.data)
        other = random_walk_query(case.data, 5, random.Random(3))
        first = batch.run([case.query])
        frozen = first.to_dict()
        second = batch.run([other, case.query])
        assert first.to_dict() == frozen
        lifetime = batch.aux.stats
        for name in ("aux_adj_hits", "aux_adj_misses", "aux_adj_bytes"):
            assert (
                getattr(first.aux_stats, name) + getattr(second.aux_stats, name)
                == getattr(lifetime, name)
            )
        assert second.aux_stats.aux_adj_hits > 0
        hits, misses = second.aux_stats.aux_adj_hits, second.aux_stats.aux_adj_misses
        assert second.aux_hit_rate == hits / (hits + misses)

    def test_disabled_aux_matches_too(self):
        case = generate_case(2, 0, DENSE_SPEC)
        queries = batch_for(case, 2)
        with_aux = BatchMatcher(case.data).run(
            queries, count_only=False, collect=True
        )
        without = BatchMatcher(case.data, use_aux=False).run(
            queries, count_only=False, collect=True
        )
        assert without.aux_stats.aux_adj_misses == 0
        for a, b in zip(with_aux.results, without.results):
            assert a.results == b.results
            assert a.stats.to_dict() == b.stats.to_dict()


class TestAuxCache:
    def test_degree_bucket(self):
        assert degree_bucket(0) == 0
        assert degree_bucket(-3) == 0
        assert degree_bucket(1) == 1
        assert degree_bucket(2) == 2
        assert degree_bucket(3) == 2
        assert degree_bucket(8) == 8
        assert degree_bucket(9) == 8

    def test_rows_are_filtered_subsequences(self):
        case = generate_case(0, 0, DENSE_SPEC)
        data = case.data
        cache = AuxAdjacencyCache(data)
        parent_label = data.label(0)
        child_label = data.label(data.adj[0][0]) if data.adj[0] else 0
        entry = cache.lookup(parent_label, child_label, 2)
        for v in data.vertices_with_label(parent_label):
            row = list(entry.row(v))
            expected = [
                w for w in data.adj[v]
                if data.label(w) == child_label
                and len(data.adj[w]) >= entry.bucket
            ]
            assert row == expected

    def test_miss_builds_no_row(self):
        case = generate_case(0, 0, DENSE_SPEC)
        cache = AuxAdjacencyCache(case.data)
        entry = cache.lookup(0, 0, 2)
        assert cache.stats.aux_adj_misses == 1
        assert len(entry) == 0
        assert entry.nbytes == cache.bytes_in_use == 0
        assert cache.stats.aux_adj_bytes == 0

    def test_row_is_stored_once(self):
        case = generate_case(0, 0, DENSE_SPEC)
        data = case.data
        cache = AuxAdjacencyCache(data)
        v = next(v for v in data.vertices() if data.adj[v])
        entry = cache.lookup(data.label(v), data.label(data.adj[v][0]), 1)
        row = entry.row(v)
        assert isinstance(row, tuple)
        assert data.adj[v][0] in row
        bytes_after_first = cache.stats.aux_adj_bytes
        assert entry.row(v) is row
        assert cache.stats.aux_adj_bytes == bytes_after_first
        assert list(entry) == [v]

    def test_rows_nobody_asked_for_are_never_built(self):
        case = generate_case(0, 0, DENSE_SPEC)
        data = case.data
        batch = BatchMatcher(data)
        batch.run(batch_for(case, 0))
        built = eager = 0
        for (parent_label, _, _), entry in batch.aux._entries.items():
            members = data.vertices_with_label(parent_label)
            assert set(entry) <= set(members)
            built += len(entry)
            eager += len(members)
        # only the rows of candidates a CPI build expanded exist
        assert 0 < built < eager

    def test_bytes_grow_per_stored_row(self):
        case = generate_case(0, 0, DENSE_SPEC)
        data = case.data
        cache = AuxAdjacencyCache(data)
        parent_label = data.label(0)
        entry = cache.lookup(parent_label, data.label(data.adj[0][0]), 1)
        total = 0
        for v in data.vertices_with_label(parent_label):
            row = entry.row(v)
            total += sys.getsizeof(row)
            assert entry.nbytes == total
            assert cache.bytes_in_use == total
            assert cache.stats.aux_adj_bytes == total

    def test_eviction_never_drops_the_entry_being_filled(self):
        case = generate_case(0, 0, DENSE_SPEC)
        data = case.data
        cache = AuxAdjacencyCache(data, max_bytes=1)
        label = data.label(0)
        first = cache.lookup(label, label, 1)
        first.row(0)
        first.row(1)
        # over budget, but the only entry is the one being filled
        assert len(cache) == 1 and cache.evictions == 0
        second = cache.lookup(label, label, 2)
        assert len(cache) == 2  # an empty entry costs nothing
        second.row(0)
        assert cache.evictions == 1
        assert list(cache._entries.values()) == [second]
        second.row(1)
        assert list(cache._entries.values()) == [second]
        assert cache.bytes_in_use == second.nbytes
        # the dropped entry still answers, charged to nothing
        lifetime = cache.stats.aux_adj_bytes
        assert first.row(2) == tuple(
            w for w in data.adj[2] if data.label(w) == label
        )
        assert cache.bytes_in_use == second.nbytes
        assert cache.stats.aux_adj_bytes == lifetime

    def test_lookup_counters_and_lru(self):
        case = generate_case(0, 0, DENSE_SPEC)
        cache = AuxAdjacencyCache(case.data)
        cache.lookup(0, 0, 2)
        assert cache.stats.aux_adj_misses == 1
        cache.lookup(0, 0, 3)  # same bucket as degree 2
        assert cache.stats.aux_adj_hits == 1
        cache.lookup(0, 0, 4)  # next bucket: a distinct entry
        assert cache.stats.aux_adj_misses == 2
        assert len(cache) == 2

    def test_eviction_respects_byte_budget(self):
        case = generate_case(0, 0, DENSE_SPEC)
        queries = batch_for(case, 0)
        tiny = BatchMatcher(case.data, aux_max_bytes=256)
        report = tiny.run(queries, count_only=False, collect=True)
        assert tiny.aux.evictions > 0
        # at most one over-budget entry may remain resident
        assert len(tiny.aux) >= 1
        # aux_adj_bytes is cumulative; bytes_in_use is the live footprint
        assert report.aux_stats.aux_adj_bytes >= tiny.aux.bytes_in_use
        baseline = one_at_a_time(case.data, queries)
        for index, result in enumerate(report.results):
            assert result.results == baseline[index].results
            assert result.stats.to_dict() == baseline[index].stats.to_dict()

    def test_truncated_query_cannot_poison_the_cache(self):
        case = generate_case(0, 0, DENSE_SPEC)
        matcher = BatchMatcher(case.data)
        hard = matcher.run([case.query], time_limit_s=0.0)
        assert hard.results[0].status == "timed_out"
        assert hard.results[0].embeddings == 0
        # The same shared matcher (plan + aux caches warm or partially
        # warm) must now serve a fresh query exactly like a no-cache run.
        probe = random_walk_query(case.data, 5, random.Random(99))
        after = matcher.run([probe], count_only=False, collect=True)
        fresh = one_at_a_time(case.data, [probe])[0]
        assert after.results[0].results == fresh.results
        assert after.results[0].stats.to_dict() == fresh.stats.to_dict()
        assert (
            after.results[0].build_stats.to_dict()
            == fresh.build_stats.to_dict()
        )

    def test_mutation_drops_stale_entries(self):
        # path 0-1-2 labelled (0, 1, 0) plus an isolated label-1 vertex 3;
        # the query is one edge between labels 0 and 1
        data = DynamicGraph.from_graph(Graph([0, 1, 0, 1], [(0, 1), (1, 2)]))
        query = Graph([0, 1], [(0, 1)])
        batch = BatchMatcher(data)
        assert batch.run([query]).results[0].embeddings == 2
        data.add_edge(2, 3)
        report = batch.run([query], count_only=False, collect=True)
        fresh = one_at_a_time(data, [query])[0]
        assert report.results[0].embeddings == 3
        assert report.results[0].results == fresh.results
        assert report.results[0].stats.to_dict() == fresh.stats.to_dict()
        assert (
            report.results[0].build_stats.to_dict()
            == fresh.build_stats.to_dict()
        )
        without = BatchMatcher(data, use_aux=False).run([query])
        assert without.results[0].embeddings == 3


class TestExecutionOrder:
    def test_grouped_by_signature_stable(self):
        case = generate_case(0, 0, DENSE_SPEC)
        other = random_walk_query(case.data, 4, random.Random(5))
        queries = [case.query, other, case.query, other, case.query]
        order = batch_execution_order(queries)
        assert sorted(order) == list(range(len(queries)))
        assert order == [0, 2, 4, 1, 3]

    def test_signature_is_label_structural(self):
        case = generate_case(0, 0, DENSE_SPEC)
        assert label_signature(case.query) == label_signature(case.query)

    def test_results_come_back_in_input_order(self):
        case = generate_case(0, 0, DENSE_SPEC)
        other = random_walk_query(case.data, 4, random.Random(5))
        queries = [other, case.query, other]
        report = BatchMatcher(case.data).run(queries)
        assert [result.index for result in report.results] == [0, 1, 2]
        assert report.results[0].embeddings == report.results[2].embeddings


class TestBatchPool:
    def test_pool_counts_match_sequential(self):
        case = generate_case(0, 0, DENSE_SPEC)
        queries = batch_for(case, 0, extras=1)
        sequential = BatchMatcher(case.data).run(queries)
        with BatchMatcher(case.data, workers=2) as matcher:
            pooled = matcher.run(queries)
        assert [r.embeddings for r in pooled.results] == [
            r.embeddings for r in sequential.results
        ]
        assert pooled.workers == 2

    def test_pool_rejects_per_query_budgets(self):
        case = generate_case(0, 0, DENSE_SPEC)
        with pytest.raises(ValueError, match="workers=1"):
            BatchMatcher(case.data, workers=2).run(
                [case.query], time_limit_s=1.0
            )

    def test_two_runs_share_one_pool_and_its_plans(self):
        """20 templates run twice at workers=2 prepare 20 plans, not 40."""
        data = load_dataset("hprd", scale="small", seed=1)
        queries = mixed_batch_workload(
            data, sizes=[4, 5], distinct=20, total=40, seed=3
        )
        assert len({query.signature() for query in queries}) == 20
        sequential = BatchMatcher(data).run(queries)
        with BatchMatcher(data, workers=2) as matcher:
            first = matcher.run(queries)
            pool = matcher._pool
            second = matcher.run(queries)
            assert matcher._pool is pool
            assert matcher.matcher.prepare_count == 20
            assert second.plan_cache_hits == len(queries)
        for report in (first, second):
            assert [r.embeddings for r in report.results] == [
                r.embeddings for r in sequential.results
            ]

    def test_mutated_graph_gets_a_fresh_pool(self):
        """A run after a DynamicGraph mutation answers from the current
        graph, as workers=1 does, instead of raising."""
        case = generate_case(11, 1, WorkloadSpec(scenarios=("dense",)))
        dynamic = DynamicGraph.from_graph(case.data)
        queries = batch_for(case, 1)
        with BatchMatcher(dynamic, workers=2) as matcher:
            before = matcher.run(queries)
            pool = matcher._pool
            for delta in generate_delta_stream(case.data, random.Random(4), length=40):
                dynamic.apply(delta)
            after = matcher.run(queries)
            assert matcher._pool is not pool
        fresh = [CFLMatch(dynamic).count(query) for query in queries]
        assert [r.embeddings for r in after.results] == fresh
        assert fresh != [r.embeddings for r in before.results]

    def test_close_leaves_no_segments(self):
        case = generate_case(11, 1, WorkloadSpec(scenarios=("dense",)))
        before = shm_segments()
        matcher = BatchMatcher(case.data, workers=2)
        matcher.run([case.query])
        assert shm_segments() - before  # the query's plan segment
        matcher.close()
        assert shm_segments() == before
        matcher.close()  # idempotent

    def test_unclosed_batch_leaves_no_segments(self):
        """A batch dropped without close(), or still alive when the
        interpreter exits, unlinks its pool's segments all the same."""
        code = (
            "import gc, glob, os\n"
            "from repro.core.batch import BatchMatcher\n"
            "from repro.core.shm import SEGMENT_PREFIX\n"
            "from repro.testing import WorkloadSpec, generate_case\n"
            "def mine():\n"
            "    return glob.glob(f'/dev/shm/{SEGMENT_PREFIX}{os.getpid():x}-*')\n"
            "case = generate_case(11, 1, WorkloadSpec(scenarios=('dense',)))\n"
            "dropped = BatchMatcher(case.data, workers=2)\n"
            "dropped.run([case.query])\n"
            "assert mine()\n"
            "del dropped\n"
            "gc.collect()\n"
            "assert not mine(), mine()\n"
            "kept = BatchMatcher(case.data, workers=2)\n"
            "kept.run([case.query])\n"
            "print(os.getpid(), len(mine()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parents[2]),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        pid, live = (int(field) for field in result.stdout.split())
        assert live == 1  # the kept batch's plan segment, until exit
        assert not glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{pid:x}-*")

    def test_one_worker_builds_no_pool(self):
        case = generate_case(11, 1, WorkloadSpec(scenarios=("dense",)))
        before = shm_segments()
        matcher = BatchMatcher(case.data)
        matcher.run(batch_for(case, 2))
        assert matcher._pool is None
        assert shm_segments() == before
