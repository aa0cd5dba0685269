"""Tests for the round-2 optimizer: label-pair/NLI filters and adaptive
mid-search re-planning.

Every feature must be invisible to correctness (same embeddings, same
CPI where promised, counters bit-identical except the documented
exemptions) and observable through its own counters.
"""

import json
import random

import pytest

from repro.core import CFLMatch, SearchStats
from repro.core.dynamic import IncrementalMatcher
from repro.core.explain import stage_breadth
from repro.core.filters import ExtendedCandVerify, cand_verify
from repro.core.parallel import parallel_count, parallel_search
from repro.core.profile import profile_query, validate_profile
from repro.graph.dynamic import DynamicGraph
from repro.graph.generators import random_walk_query, synthetic_graph
from repro.workloads.paper_graphs import figure1_example, figure3_example

#: Counters the optimizer features are allowed to change.
FILTER_SPLIT = {
    "filter_label_pair_pruned",
    "filter_nli_pruned",
    "filter_mnd_pruned",
    "filter_nlf_pruned",
}

AGGRESSIVE_ADAPTIVE = {"adaptive": True, "adaptive_ratio": 0.01, "adaptive_min_nodes": 0}


def _instances(trials=8, seed=500):
    rng = random.Random(seed)
    for trial in range(trials):
        data = synthetic_graph(70, 4.0, 4, seed=seed + trial)
        query = random_walk_query(data, 5, rng, keep_edge_probability=0.6)
        yield data, query


def _counters_equal_except(base, other, exempt):
    diffs = {
        name: (base[name], other[name])
        for name in base
        if name not in exempt and base[name] != other[name]
    }
    assert not diffs, f"unexpected counter drift: {diffs}"


class TestLabelPairNliFilters:
    def test_cpi_identical_with_filters_on(self):
        """The new filters prune only candidates NLF would reject, so
        the *built* CPI is bit-identical with them on or off."""
        for data, query in _instances():
            plain = CFLMatch(data).prepare(query, use_cache=False)
            filtered = CFLMatch(
                data, label_pair_filter=True, nli_filter=True
            ).prepare(query, use_cache=False)
            assert plain.cpi.candidates == filtered.cpi.candidates
            assert plain.cpi.adjacency == filtered.cpi.adjacency
            assert plain.matching_order == filtered.matching_order

    def test_rejection_total_conserved(self):
        """Filters re-attribute rejections (label-pair/NLI fire before
        MND/NLF) without changing the total number of rejections."""
        saw_early = 0
        for data, query in _instances():
            base, on = SearchStats(), SearchStats()
            CFLMatch(data).prepare(query, use_cache=False, build_stats=base)
            CFLMatch(
                data, label_pair_filter=True, nli_filter=True
            ).prepare(query, use_cache=False, build_stats=on)
            base_d, on_d = base.to_dict(), on.to_dict()
            assert sum(base_d[n] for n in FILTER_SPLIT) == sum(
                on_d[n] for n in FILTER_SPLIT
            )
            _counters_equal_except(base_d, on_d, FILTER_SPLIT)
            saw_early += on_d["filter_label_pair_pruned"] + on_d["filter_nli_pruned"]
        assert saw_early > 0, "expected the new filters to fire somewhere"

    def test_extended_verify_subset_of_cand_verify(self):
        """ExtendedCandVerify never accepts a pair cand_verify rejects."""
        for data, query in _instances(trials=4, seed=900):
            verify = ExtendedCandVerify(query, data)
            for u in query.vertices():
                for v in data.vertices():
                    if verify(query, data, u, v):
                        assert cand_verify(query, data, u, v)

    def test_embeddings_unchanged(self):
        for data, query in _instances(trials=4):
            plain = set(CFLMatch(data).search(query))
            filtered = set(
                CFLMatch(data, label_pair_filter=True, nli_filter=True).search(query)
            )
            assert plain == filtered


class TestAdaptive:
    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_sequential_equivalence(self, engine):
        replans = 0
        for data, query in _instances(trials=8, seed=808):
            plain = set(CFLMatch(data).search(query))
            stats = SearchStats()
            adaptive = set(
                CFLMatch(data, engine=engine, **AGGRESSIVE_ADAPTIVE).search(
                    query, stats=stats
                )
            )
            assert adaptive == plain
            replans += stats.adaptive_replans
        assert replans > 0, "aggressive trigger never re-planned"

    def test_untriggered_run_is_counter_identical(self):
        """With an impossible trigger the adaptive path is a pure
        pass-through: every counter matches the plain run."""
        for data, query in _instances(trials=4, seed=33):
            base, adapt = SearchStats(), SearchStats()
            n0 = CFLMatch(data).count(query, stats=base)
            n1 = CFLMatch(
                data, adaptive=True, adaptive_ratio=1e9, adaptive_min_nodes=10**9
            ).count(query, stats=adapt)
            assert n0 == n1
            assert adapt.adaptive_replans == 0
            _counters_equal_except(base.to_dict(), adapt.to_dict(), set())

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_workers4_count_and_search(self, engine):
        data = synthetic_graph(80, 4.0, 4, seed=42)
        rng = random.Random(42)
        query = random_walk_query(data, 5, rng, keep_edge_probability=0.6)
        plain = set(CFLMatch(data).search(query))
        assert parallel_count(
            data, query, workers=4, engine=engine, **AGGRESSIVE_ADAPTIVE
        ) == len(plain)
        assert set(
            parallel_search(
                data, query, workers=4, engine=engine, **AGGRESSIVE_ADAPTIVE
            )
        ) == plain

    def test_knob_validation(self):
        data = figure3_example().data
        with pytest.raises(ValueError):
            CFLMatch(data, adaptive_ratio=0.0)
        with pytest.raises(ValueError):
            CFLMatch(data, adaptive_ratio=-1.0)
        with pytest.raises(ValueError):
            CFLMatch(data, adaptive_min_nodes=-1)


class TestAllFeaturesTogether:
    def test_full_stack_matches_plain(self):
        for data, query in _instances(trials=6, seed=4242):
            plain = set(CFLMatch(data).search(query))
            optimized = set(
                CFLMatch(
                    data, label_pair_filter=True, nli_filter=True,
                    **AGGRESSIVE_ADAPTIVE,
                ).search(query)
            )
            assert optimized == plain


class TestDynamicWithFilters:
    def test_incremental_matcher_forwards_kwargs(self):
        base = synthetic_graph(60, 4.0, 4, seed=5)
        rng = random.Random(5)
        query = random_walk_query(base, 4, rng, keep_edge_probability=0.7)
        dyn = DynamicGraph.from_graph(base)
        inc = IncrementalMatcher(dyn, label_pair_filter=True, nli_filter=True)
        assert inc.count(query) == CFLMatch(base).count(query)
        # Mutate, then verify incremental repair under the filters still
        # matches a cold matcher on the final graph.
        edges = [(a, b) for a, b in base.edges()]
        removed = edges[: min(3, len(edges))]
        for a, b in removed:
            dyn.remove_edge(a, b)
        for a, b in removed[:1]:
            dyn.add_edge(a, b)
        cold = CFLMatch(dyn.to_static()).count(query)
        assert inc.count(query) == cold


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

    def test_adaptive_profile_validates(self):
        ex = figure3_example()
        payload = profile_query(ex.data, ex.query, **AGGRESSIVE_ADAPTIVE)
        assert validate_profile(payload) == []
        assert "adaptive_replans" in payload["counters"]


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
                "--execute", "--json", "--adaptive",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert {"estimated_embeddings", "matching_order", "root", "stages"} <= set(
            payload
        )
        assert payload["adaptive_replans"] >= 0
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
