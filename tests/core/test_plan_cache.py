"""Plan cache suite: bounded by the bytes its plans hold.

The contract under test (see ``CFLMatch.prepare`` and
``repro.core.matcher.PLAN_CACHE_BYTES``):

* ``BatchMatcher`` caps no entries, so a workload's templates are
  prepared once each however the batches interleave them;
* the cache evicts least recently used plans while over its entry cap
  or its byte bound, and never the plan it just inserted;
* ``plan_cache_size=0`` disables the cache and ``1`` caps it at one plan;
* a plan's ``nbytes`` estimate is within 2x of what ``tracemalloc``
  sees the plan allocate, on a sparse and on a dense data graph;
* a mutation of the data graph drops the cached plans on the next
  ``prepare``;
* a ``MatcherPool`` unlinks a plan's shared segment once the matcher's
  cache has dropped the plan;
* cached plans never change any per-query result or counter.
"""

import gc
import glob
import tracemalloc
from pathlib import Path
from typing import Tuple

import pytest

import repro.core.matcher as matcher_module
from repro.core import CFLMatch
from repro.core.batch import BatchMatcher
from repro.core.parallel import MatcherPool
from repro.core.shm import SEGMENT_PREFIX
from repro.graph import Graph
from repro.graph.dynamic import DynamicGraph
from repro.testing.workloads import WorkloadSpec, generate_case
from repro.workloads import load_dataset, mixed_batch_workload

SHM_DIR = Path("/dev/shm")


@pytest.fixture(scope="module")
def serving():
    """Small HPRD proxy plus 500 queries drawn from 100 templates."""
    data = load_dataset("hprd", scale="small", seed=11)
    queries = mixed_batch_workload(
        data, sizes=[4, 5, 6, 8], distinct=100, total=500, seed=11
    )
    return data, queries


def rotated(query: Graph, shift: int) -> Graph:
    """``query`` with vertex ``v`` renamed ``(v + shift) % n``: the same
    embeddings up to order, but (for these queries) a new signature."""
    n = query.num_vertices
    labels = [query.label((v - shift) % n) for v in range(n)]
    edges = [((u + shift) % n, (v + shift) % n) for u, v in query.edges()]
    return Graph(labels, edges)


def shm_segments() -> set:
    return set(glob.glob(str(SHM_DIR / f"{SEGMENT_PREFIX}*")))


def traced_bytes(matcher: CFLMatch, query: Graph) -> Tuple[int, int]:
    """Bytes still allocated after a fresh ``prepare`` of ``query``,
    with the data graph's lazy indexes already built."""
    matcher.prepare(query, use_cache=False)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = matcher.prepare(query, use_cache=False)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plan.nbytes > 0
    return plan.nbytes, after - before


def result_key(result):
    """What a batch result and a fresh ``MatchReport`` must agree on."""
    return (
        result.embeddings, result.status, result.results,
        result.stats.to_dict(), result.build_stats.to_dict(),
    )


class TestBatchServing:
    def test_each_template_prepared_once(self, serving):
        data, queries = serving
        templates = len({query.signature() for query in queries})
        assert templates == 100
        batch = BatchMatcher(data)
        hits = 0
        for start in range(0, len(queries), 100):
            report = batch.run(queries[start:start + 100], limit=100)
            hits += report.plan_cache_hits
            assert report.plan_bytes_in_use == batch.matcher.plan_cache_bytes
        assert batch.matcher.prepare_count == templates
        assert hits == len(queries) - templates
        assert report.to_dict()["plan_bytes_in_use"] > 0

    def test_results_match_a_fresh_matcher(self, serving, monkeypatch):
        data, queries = serving
        chunk = queries[:60]
        # A bound of a few plans makes the batch evict and re-prepare.
        monkeypatch.setattr(matcher_module, "PLAN_CACHE_BYTES", 64 * 1024)
        batch = BatchMatcher(data)
        batch.run(chunk, limit=100, collect=True, count_only=False)
        # the second run hits some plans and re-prepares evicted ones
        report = batch.run(chunk, limit=100, collect=True, count_only=False)
        assert report.plan_cache_hits > 0
        assert batch.matcher.prepare_count > len(
            {query.signature() for query in chunk}
        )
        for query, result in zip(chunk, report.results):
            fresh = CFLMatch(data).run(
                query, limit=100, collect=True, count_only=False
            )
            assert result_key(result) == result_key(fresh)

    def test_batch_matcher_has_no_entry_cap(self, serving):
        data, _ = serving
        assert BatchMatcher(data).matcher.plan_cache_size is None
        with pytest.raises(TypeError):
            BatchMatcher(data, plan_cache_size=64)


class TestEviction:
    def test_eviction_is_by_bytes(self, serving, monkeypatch):
        data, queries = serving
        templates = list({query.signature(): query for query in queries}.values())
        matcher = CFLMatch(data, plan_cache_size=None)
        plans = [matcher.prepare(query) for query in templates[:3]]
        assert matcher.plan_cache_bytes == sum(plan.nbytes for plan in plans)
        # Room for the two newest plans only.
        bound = plans[1].nbytes + plans[2].nbytes
        monkeypatch.setattr(matcher_module, "PLAN_CACHE_BYTES", bound)
        matcher.clear_plan_cache()
        for query in templates[:3]:
            matcher.prepare(query)
        assert [matcher.has_cached_plan(q.signature()) for q in templates[:3]] == [
            False, True, True,
        ]
        assert matcher.plan_cache_bytes == bound

    def test_newest_oversize_plan_is_kept(self, serving, monkeypatch):
        data, queries = serving
        monkeypatch.setattr(matcher_module, "PLAN_CACHE_BYTES", 1)
        matcher = CFLMatch(data, plan_cache_size=None)
        first, second = list({q.signature(): q for q in queries}.values())[:2]
        matcher.prepare(first)
        plan = matcher.prepare(second)
        assert not matcher.has_cached_plan(first.signature())
        assert matcher.plan_cache_bytes == plan.nbytes > 1
        assert matcher.prepare(second) is plan
        assert matcher.prepare_count == 2

    def test_size_zero_disables_the_cache(self, serving):
        data, queries = serving
        matcher = CFLMatch(data, plan_cache_size=0)
        matcher.prepare(queries[0])
        matcher.prepare(queries[0])
        assert matcher.prepare_count == 2
        assert matcher.plan_cache_hits == 0
        assert matcher.plan_cache_bytes == 0

    def test_size_one_caps_entries(self, serving):
        data, queries = serving
        matcher = CFLMatch(data, plan_cache_size=1)
        first, second = list({q.signature(): q for q in queries}.values())[:2]
        matcher.prepare(first)
        plan = matcher.prepare(second)
        assert not matcher.has_cached_plan(first.signature())
        assert matcher.plan_cache_bytes == plan.nbytes
        matcher.prepare(first)
        assert matcher.prepare_count == 3

    def test_negative_size_is_rejected(self, serving):
        with pytest.raises(ValueError):
            CFLMatch(serving[0], plan_cache_size=-1)


class TestPlanBytes:
    def test_sparse_plan_estimate(self, serving):
        data, queries = serving
        estimate, traced = traced_bytes(CFLMatch(data), queries[0])
        assert traced / 2 <= estimate <= traced * 2

    def test_dense_plan_estimate(self):
        spec = WorkloadSpec(
            scenarios=("dense",), data_vertices=(5000, 5000),
            query_vertices=(9, 9),
        )
        case = generate_case(123, 0, spec)
        estimate, traced = traced_bytes(CFLMatch(case.data), case.query)
        assert estimate > 1_000_000
        assert traced / 2 <= estimate <= traced * 2


class TestFreshness:
    def test_mutation_drops_stale_plans(self):
        case = generate_case(3, 0, WorkloadSpec(scenarios=("dense",)))
        data = DynamicGraph.from_graph(case.data)
        matcher = CFLMatch(data)
        other = rotated(case.query, 1)
        assert other.signature() != case.query.signature()
        matcher.prepare(case.query)
        matcher.prepare(other)
        u, v = next(
            (a, b) for a in data.vertices() for b in data.vertices()
            if a < b and not data.has_edge(a, b)
        )
        data.add_edge(u, v)
        plan = matcher.prepare(case.query)
        assert matcher.has_cached_plan(case.query.signature())
        assert not matcher.has_cached_plan(other.signature())
        assert matcher.plan_cache_bytes == plan.nbytes
        assert matcher.prepare_count == 3


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="/dev/shm unavailable")
class TestPoolSegments:
    def test_segments_follow_the_plan_cache(self, monkeypatch):
        # Several root candidates, so the pool dispatches chunks and
        # publishes plan segments instead of counting inline.
        case = generate_case(11, 1, WorkloadSpec(scenarios=("dense",)))
        queries = [rotated(case.query, shift) for shift in range(3)]
        assert len({query.signature() for query in queries}) == 3
        expected = CFLMatch(case.data).count(case.query)
        before = shm_segments()
        monkeypatch.setattr(matcher_module, "PLAN_CACHE_BYTES", 1)
        with MatcherPool(case.data, workers=2, plan_cache_size=None) as pool:
            assert pool.count(queries[0]) == expected
            (_, first), = pool._plan_segments.values()
            assert SHM_DIR / first.name in {Path(p) for p in shm_segments()}
            for query in queries[1:]:
                assert pool.count(query) == expected
                # only the newest plan fits, so only its segment lives
                assert list(pool._plan_segments) == [query.signature()]
            # the store and one plan segment
            assert len(shm_segments() - before) == 2
            assert pool.count(queries[0]) == expected
        assert shm_segments() == before
