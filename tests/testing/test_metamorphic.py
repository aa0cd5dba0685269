"""Each metamorphic relation: positive coverage on correct matchers
plus detection of an injected bug."""

import random

import pytest

from repro.core.matcher import CFLMatch
from repro.graph import Graph
from repro.testing.metamorphic import (
    METAMORPHIC_RELATIONS,
    disjoint_union,
    metamorphic_check,
    permute_vertices,
    relation_disjoint_union,
    relation_edge_monotonicity,
    relation_engine_identity,
    relation_filter_ablation,
    relation_label_renaming,
    relation_stats_filter_ablation,
    relation_stats_vertex_permutation,
    relation_vertex_permutation,
    rename_labels,
)
from repro.testing.workloads import WorkloadSpec, generate_case


def connected_cases(count):
    cases = []
    index = 0
    while len(cases) < count:
        case = generate_case(99, index)
        index += 1
        if case.query.is_connected():
            cases.append(case)
    return cases


class TestTransforms:
    def test_permute_vertices_preserves_structure(self):
        graph = Graph([5, 6, 7], [(0, 1), (1, 2)])
        permuted = permute_vertices(graph, [2, 0, 1])
        assert permuted.label(2) == 5 and permuted.label(0) == 6
        assert permuted.has_edge(2, 0) and permuted.has_edge(0, 1)

    def test_rename_labels(self):
        graph = Graph([1, 2], [(0, 1)])
        renamed = rename_labels(graph, {1: 9, 2: 8})
        assert renamed.labels == [9, 8]

    def test_disjoint_union_offsets(self):
        union = disjoint_union(Graph([0], []), Graph([1, 2], [(0, 1)]))
        assert union.labels == [0, 1, 2]
        assert list(union.edges()) == [(1, 2)]


class TestRelationsHoldOnCorrectMatchers:
    """One positive test per relation (the acceptance checklist)."""

    def test_vertex_permutation_invariance(self):
        rng = random.Random(1)
        for case in connected_cases(5):
            assert relation_vertex_permutation(
                case.data, case.query, "CFL-Match", rng
            ) is None

    def test_label_renaming_invariance(self):
        rng = random.Random(2)
        for case in connected_cases(5):
            assert relation_label_renaming(
                case.data, case.query, "QuickSI", rng
            ) is None

    def test_disjoint_union_multiplicativity(self):
        rng = random.Random(3)
        for case in connected_cases(5):
            assert relation_disjoint_union(
                case.data, case.query, "CFL-Match", rng
            ) is None

    def test_edge_addition_monotonicity(self):
        rng = random.Random(4)
        for case in connected_cases(5):
            assert relation_edge_monotonicity(
                case.data, case.query, "VF2", rng
            ) is None

    def test_filter_ablation_equivalence(self):
        rng = random.Random(5)
        for case in connected_cases(5):
            assert relation_filter_ablation(
                case.data, case.query, "CFL-Match", rng
            ) is None

    def test_stats_vertex_permutation_invariance(self):
        rng = random.Random(6)
        for case in connected_cases(5):
            assert relation_stats_vertex_permutation(
                case.data, case.query, "CFL-Match", rng
            ) is None

    def test_stats_filter_ablation_monotonicity(self):
        rng = random.Random(7)
        for case in connected_cases(5):
            assert relation_stats_filter_ablation(
                case.data, case.query, "CFL-Match", rng
            ) is None

    def test_engine_identity(self):
        """Searches and counts, on the default stream and on NEC-heavy
        cases whose leaves the kernel counts in closed form."""
        rng = random.Random(8)
        nec_heavy = WorkloadSpec(scenarios=("nec-heavy", "twins"))
        cases = connected_cases(8) + [
            generate_case(8, index, nec_heavy) for index in range(16)
        ]
        for case in cases:
            assert relation_engine_identity(
                case.data, case.query, "CFL-Match", rng
            ) is None


class TestDetection:
    def test_monotonicity_catches_embedding_loss(self):
        """A matcher that drops embeddings on denser graphs violates
        edge-addition monotonicity."""
        from repro.bench.harness import MATCHERS

        class DropOnDense(CFLMatch):
            def search(self, query, **kwargs):
                dense = self.data.num_edges > 2
                for i, emb in enumerate(super().search(query, **kwargs)):
                    if dense and i == 0:
                        continue  # silently drop the first embedding
                    yield emb

        MATCHERS["DropOnDense"] = lambda g: DropOnDense(g)
        try:
            data = Graph([0, 1, 0], [(0, 1), (1, 2)])
            query = Graph([0, 1], [(0, 1)])
            detail = relation_edge_monotonicity(
                data, query, "DropOnDense", random.Random(0)
            )
        finally:
            del MATCHERS["DropOnDense"]
        assert detail is not None and "lost" in detail

    def test_permutation_catches_id_dependent_bug(self):
        from repro.bench.harness import MATCHERS

        class DropVertexZero(CFLMatch):
            def search(self, query, **kwargs):
                for emb in super().search(query, **kwargs):
                    if 0 not in emb:
                        yield emb

        MATCHERS["DropVertexZero"] = lambda g: DropVertexZero(g)
        try:
            data = Graph([0, 1, 0], [(0, 1), (1, 2)])
            query = Graph([0, 1], [(0, 1)])
            detected = any(
                relation_vertex_permutation(
                    data, query, "DropVertexZero", random.Random(seed)
                )
                is not None
                for seed in range(5)
            )
        finally:
            del MATCHERS["DropVertexZero"]
        assert detected

    def test_stats_permutation_catches_id_dependent_counters(self, monkeypatch):
        """A matcher whose counters depend on data vertex ids (here: the
        label sitting at id 0, which a permutation moves) is caught."""
        import repro.testing.metamorphic as metamorphic

        class IdSkewedCounters(CFLMatch):
            def run(self, query, **kwargs):
                report = super().run(query, **kwargs)
                report.stats.backtracks += self.data.label(0)
                return report

        monkeypatch.setattr(metamorphic, "CFLMatch", IdSkewedCounters)
        data = Graph([1, 2, 3], [(0, 1), (1, 2)])
        query = Graph([1, 2], [(0, 1)])
        detected = any(
            relation_stats_vertex_permutation(data, query, "CFL-Match", random.Random(seed))
            is not None
            for seed in range(8)
        )
        assert detected


    def test_engine_identity_catches_count_counter_drift(self, monkeypatch):
        """A kernel count that charges one leaf node too many per closed
        form is caught, though every count is right."""
        import repro.core.leaf_match as leaf_match

        closed_tally = leaf_match._closed_tally

        def drifting(prepared, cap):
            tally = closed_tally(prepared, cap)
            if tally is None:
                return None
            count, nodes, groups, skipped = tally
            return count, nodes + 1, groups, skipped

        monkeypatch.setattr(leaf_match, "_closed_tally", drifting)
        query = Graph([0, 1, 1], [(0, 1), (0, 2)])
        data = Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        detail = relation_engine_identity(data, query, "CFL-Match", random.Random(0))
        assert detail is not None and detail.startswith("full count")


class TestMetamorphicCheck:
    def test_all_relations_clean_on_current_code(self):
        for case in connected_cases(6):
            rng = random.Random(case.seed)
            assert metamorphic_check(case.data, case.query, "CFL-Match", rng) == []

    def test_disconnected_query_skipped(self):
        data = Graph([0, 1], [(0, 1)])
        query = Graph([0, 1], [])
        rng = random.Random(0)
        assert metamorphic_check(data, query, "CFL-Match", rng) == []

    def test_unknown_relation_raises(self):
        data = Graph([0], [])
        with pytest.raises(KeyError):
            metamorphic_check(
                data, data, "CFL-Match", random.Random(0), relations=["bogus"]
            )

    def test_registry_has_all_relations(self):
        assert sorted(METAMORPHIC_RELATIONS) == [
            "delta-commutativity",
            "disjoint-union",
            "edge-monotonicity",
            "engine-identity",
            "filter-ablation",
            "insert-remove-inverse",
            "label-renaming",
            "stats-filter-ablation",
            "stats-vertex-permutation",
            "vertex-permutation",
        ]
