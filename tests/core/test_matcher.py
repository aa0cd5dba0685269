"""Unit tests for the CFLMatch façade and its variants."""

import time

import pytest

from repro.core import CFLMatch, count_embeddings, find_embeddings, validate_embedding
from repro.core.stats import SearchStats
from repro.graph import Graph, GraphError
from repro.workloads.paper_graphs import figure1_example, figure3_example
from tests.conftest import nx_monomorphisms, random_instance


class TestPaperExamples:
    def test_figure3_three_embeddings(self):
        ex = figure3_example()
        embeddings = set(find_embeddings(ex.query, ex.data))
        expected = {
            tuple(ex.v(n) for n in names)
            for names in (
                ("v0", "v2", "v1", "v5", "v4"),
                ("v0", "v2", "v1", "v5", "v6"),
                ("v0", "v2", "v3", "v5", "v6"),
            )
        }
        assert embeddings == expected

    def test_figure1_hundred_embeddings(self):
        ex = figure1_example(100, 1000)
        assert count_embeddings(ex.query, ex.data) == 100

    def test_figure1_macro_order(self):
        """Core first, forest second, leaves last (Section 3)."""
        ex = figure1_example(10, 10)
        matcher = CFLMatch(ex.data)
        prepared = matcher.prepare(ex.query)
        core = set(prepared.decomposition.core)
        order = prepared.matching_order
        assert set(order[: len(core)]) == core
        assert prepared.forest_order == [ex.q("u3")]
        assert set(prepared.leaf_plan.leaf_vertices) == {ex.q("u4"), ex.q("u6")}


class TestVariantsAgree:
    @pytest.mark.parametrize("mode", ["cfl", "cf", "match"])
    @pytest.mark.parametrize("cpi_mode", ["full", "td", "naive"])
    def test_all_variants_match_oracle(self, rng, mode, cpi_mode):
        for _ in range(8):
            data, query = random_instance(rng)
            got = set(CFLMatch(data, mode=mode, cpi_mode=cpi_mode).search(query))
            assert got == nx_monomorphisms(query, data)

    def test_count_matches_enumeration(self, rng):
        for _ in range(20):
            data, query = random_instance(rng)
            matcher = CFLMatch(data)
            assert matcher.count(query) == len(list(matcher.search(query)))


class TestLimits:
    def test_limit_caps_results(self):
        ex = figure1_example(50, 50)
        results = list(CFLMatch(ex.data).search(ex.query, limit=7))
        assert len(results) == 7

    def test_limit_zero(self):
        ex = figure3_example()
        assert list(CFLMatch(ex.data).search(ex.query, limit=0)) == []

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    @pytest.mark.parametrize("limit", [0, -1])
    def test_count_non_positive_limit_counts_nothing(self, engine, limit):
        """``count`` returns 0 and leaves every counter untouched, as
        ``search`` yields nothing without preparing."""
        star = Graph([0, 1, 1, 1, 1], [(0, v) for v in range(1, 5)])
        query = Graph([0, 1, 1], [(0, 1), (0, 2)])
        matcher = CFLMatch(star, engine=engine)
        stats, stage_stats = SearchStats(), {}
        assert matcher.count(
            query, limit=limit, stats=stats, stage_stats=stage_stats
        ) == 0
        assert stats == SearchStats() and stage_stats == {}
        assert matcher.prepare_count == 0
        report = matcher.run(query, limit=limit, count_only=True)
        assert report.embeddings == 0 and report.status == "ok"
        assert report.stats == SearchStats() and report.stage_nodes == {}
        assert list(matcher.search(query, limit=limit)) == []

    def test_count_with_limit_saturates(self):
        ex = figure1_example(50, 50)
        assert CFLMatch(ex.data).count(ex.query, limit=5) == 5

    def test_limited_results_are_valid(self):
        ex = figure1_example(30, 30)
        for emb in CFLMatch(ex.data).search(ex.query, limit=10):
            assert validate_embedding(ex.query, ex.data, emb)


class TestRun:
    def test_report_fields(self):
        ex = figure3_example()
        report = CFLMatch(ex.data).run(ex.query, collect=True)
        assert report.embeddings == 3
        assert report.results is not None and len(report.results) == 3
        assert report.ordering_time >= 0
        assert report.enumeration_time >= 0
        assert report.total_time == report.ordering_time + report.enumeration_time
        assert report.cpi_size > 0
        assert len(report.candidate_counts) == ex.query.num_vertices
        assert not report.timed_out

    def test_reports_of_one_plan_carry_its_totals(self):
        """Runs on one prepared plan report the CPI's size and candidate
        counts, each run its own copy of the counts."""
        ex = figure3_example()
        matcher = CFLMatch(ex.data)
        plan = matcher.prepare(ex.query)
        first = matcher.run(ex.query, prepared=plan)
        first.candidate_counts.append(-1)
        second = matcher.run(ex.query, prepared=plan)
        assert second.cpi_size == plan.cpi.size()
        assert second.candidate_counts == plan.cpi.candidate_counts()

    def test_run_without_collect(self):
        ex = figure3_example()
        report = CFLMatch(ex.data).run(ex.query)
        assert report.results is None
        assert report.embeddings == 3

    def test_run_deadline_in_past_times_out(self):
        n = 13
        data = Graph([0] * n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        query = Graph([0] * 7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
        report = CFLMatch(data).run(query, deadline=time.perf_counter())
        assert report.timed_out

    def test_stats_embeddings_counted(self):
        ex = figure3_example()
        report = CFLMatch(ex.data).run(ex.query)
        assert report.stats.embeddings == 3


class TestEdgeCases:
    def test_single_vertex_query(self):
        data = Graph([0, 0, 1], [(0, 1), (1, 2)])
        query = Graph([0], [])
        assert set(CFLMatch(data).search(query)) == {(0,), (1,)}

    def test_no_matching_labels(self):
        data = Graph([0, 0], [(0, 1)])
        query = Graph([5, 5], [(0, 1)])
        assert list(CFLMatch(data).search(query)) == []
        assert CFLMatch(data).count(query) == 0

    def test_query_larger_than_data(self):
        data = Graph([0, 0], [(0, 1)])
        query = Graph([0, 0, 0], [(0, 1), (1, 2)])
        assert list(CFLMatch(data).search(query)) == []

    def test_empty_query_rejected(self):
        data = Graph([0], [])
        with pytest.raises(GraphError):
            CFLMatch(data).prepare(Graph([], []))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CFLMatch(Graph([0], []), mode="bogus")

    def test_invalid_cpi_mode_rejected(self):
        with pytest.raises(ValueError):
            CFLMatch(Graph([0], []), cpi_mode="bogus")

    def test_prepared_query_reuse(self):
        ex = figure3_example()
        matcher = CFLMatch(ex.data)
        prepared = matcher.prepare(ex.query)
        first = set(matcher.search(ex.query, prepared=prepared))
        second = set(matcher.search(ex.query, prepared=prepared))
        assert first == second
        assert len(first) == 3

    def test_same_label_clique(self):
        """All-identical labels: permutations of a clique."""
        data = Graph([0] * 4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        query = Graph([0] * 3, [(0, 1), (1, 2), (0, 2)])
        assert CFLMatch(data).count(query) == 4 * 3 * 2
