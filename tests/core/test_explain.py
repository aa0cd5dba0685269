"""Tests for the EXPLAIN plan renderer and cardinality estimate."""

import json

from repro.core import CFLMatch
from repro.core.explain import estimate_embeddings, explain, stage_breadth
from repro.core.profile import profile_query, validate_profile
from repro.graph import Graph
from repro.workloads.paper_graphs import figure1_example, figure3_example
from tests.conftest import random_instance


class TestEstimate:
    def test_upper_bound_property(self, rng):
        """The CPI tree estimate never undercounts true embeddings."""
        for _ in range(25):
            data, query = random_instance(rng)
            matcher = CFLMatch(data)
            prepared = matcher.prepare(query)
            estimate = estimate_embeddings(prepared.cpi)
            exact = matcher.count(query)
            assert estimate >= exact

    def test_exact_on_paths_without_sharing(self):
        data = Graph([0, 1, 2], [(0, 1), (1, 2)])
        query = Graph([0, 1, 2], [(0, 1), (1, 2)])
        prepared = CFLMatch(data).prepare(query)
        assert estimate_embeddings(prepared.cpi) == 1

    def test_zero_when_no_candidates(self):
        data = Graph([0, 0], [(0, 1)])
        query = Graph([5, 5], [(0, 1)])
        prepared = CFLMatch(data).prepare(query)
        assert estimate_embeddings(prepared.cpi) == 0


class TestExplain:
    def test_mentions_every_section(self):
        ex = figure3_example()
        text = explain(CFLMatch(ex.data), ex.query)
        for keyword in (
            "CFL-Match plan", "decomposition:", "BFS root:", "CPI size:",
            "matching order:", "leaf plan", "estimated embeddings",
        ):
            assert keyword in text

    def test_stage_annotations(self):
        ex = figure1_example(5, 5)
        text = explain(CFLMatch(ex.data), ex.query)
        assert "[core]" in text
        assert "[forest]" in text
        assert "NEC(" in text

    def test_no_leaves_case(self, triangle_query):
        data = Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
        text = explain(CFLMatch(data), triangle_query)
        assert "(no leaves)" in text

    def test_variant_flags_shown(self):
        ex = figure3_example()
        text = explain(CFLMatch(ex.data, mode="cf", cpi_mode="td"), ex.query)
        assert "mode=cf" in text and "cpi=td" in text


class TestStageBreadthTruncation:
    def _truncated_report(self):
        ex = figure1_example(12, 60)
        matcher = CFLMatch(ex.data)
        prepared = matcher.prepare(ex.query)
        report = matcher.run(
            ex.query, prepared=prepared, count_only=True, max_expansions=2
        )
        return matcher, prepared, report

    def test_truncated_rows_flagged(self):
        _, prepared, report = self._truncated_report()
        assert report.status == "budget_exhausted"
        rows = stage_breadth(prepared, report)
        assert rows and all(row["truncated"] is True for row in rows)
        # Partial actuals stay coherent: never more work than the run did.
        assert sum(row["actual_expansions"] for row in rows) <= max(
            report.stats.nodes, 1
        ) + len(rows)

    def test_ok_rows_not_flagged(self):
        ex = figure3_example()
        matcher = CFLMatch(ex.data)
        prepared = matcher.prepare(ex.query)
        report = matcher.run(ex.query, prepared=prepared, count_only=True)
        assert report.status == "ok"
        for row in stage_breadth(prepared, report):
            assert "truncated" not in row

    def test_truncated_profile_validates(self):
        ex = figure1_example(12, 60)
        payload = profile_query(ex.data, ex.query, max_expansions=2)
        assert payload["status"] == "budget_exhausted"
        assert validate_profile(payload) == []
        assert any(row.get("truncated") for row in payload["stages"])

    def test_ok_profile_validates(self):
        ex = figure3_example()
        payload = profile_query(ex.data, ex.query)
        assert validate_profile(payload) == []


class TestExplainCli:
    def _write_pair(self, tmp_path):
        from repro.graph import save_graph

        ex = figure3_example()
        data_path = tmp_path / "data.graph"
        query_path = tmp_path / "query.graph"
        save_graph(ex.data, data_path)
        save_graph(ex.query, query_path)
        return data_path, query_path

    def test_json_execute(self, tmp_path, capsys):
        from repro.cli import main

        data_path, query_path = self._write_pair(tmp_path)
        code = main(
            [
                "explain", "--data", str(data_path), "--query", str(query_path),
                "--execute", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert {"estimated_embeddings", "matching_order", "root", "stages"} <= set(
            payload
        )
        for row in payload["stages"]:
            assert {"stage", "vertices", "estimated_breadth", "actual_expansions"} <= set(row)

    def test_text_breadth_table(self, tmp_path, capsys):
        from repro.cli import main

        data_path, query_path = self._write_pair(tmp_path)
        code = main(
            ["explain", "--data", str(data_path), "--query", str(query_path), "--execute"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated" in out and "actual" in out
