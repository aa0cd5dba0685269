"""Unit tests for candidate filters (CandVerify, Section A.6)."""

from repro.core import cand_verify, full_candidate_check, label_degree_ok, mnd_ok, nlf_ok
from repro.core.filters import has_cand_verify_verdict, record_rejections, verify_candidates
from repro.core.stats import SearchStats
from repro.graph import Graph
from repro.testing.workloads import SCENARIOS, generate_case


def counting_verify(verify, stats):
    """Per-vertex reference for the builders' rejection counters.

    ``verify`` judges as it would uncounted; each rejection is counted
    under the first check that fails, in Algorithm 6's order, and under
    ``filter_other_pruned`` for a callable without CandVerify's verdict.
    """
    def counted(query, data, u, v):
        if not has_cand_verify_verdict(verify):
            if verify(query, data, u, v):
                return True
            stats.filter_other_pruned += 1
            return False
        if not mnd_ok(query, data, u, v):
            stats.filter_mnd_pruned += 1
            return False
        if not nlf_ok(query, data, u, v):
            stats.filter_nlf_pruned += 1
            return False
        return True

    return counted


def star(center_label, leaf_labels):
    """Star graph: vertex 0 is the center."""
    labels = [center_label] + list(leaf_labels)
    return Graph(labels, [(0, i + 1) for i in range(len(leaf_labels))])


class TestLabelDegree:
    def test_label_mismatch(self):
        q = star(0, [1])
        d = star(2, [1])
        assert not label_degree_ok(q, d, 0, 0)

    def test_degree_too_small(self):
        q = star(0, [1, 1, 1])
        d = star(0, [1, 1])
        assert not label_degree_ok(q, d, 0, 0)

    def test_degree_larger_is_fine(self):
        q = star(0, [1])
        d = star(0, [1, 1, 1])
        assert label_degree_ok(q, d, 0, 0)


class TestMND:
    def test_mnd_prunes(self):
        # query center's neighbor has degree 3; data neighborhood is all degree-1
        q = Graph([0, 1, 2, 2], [(0, 1), (1, 2), (1, 3)])
        d = Graph([0, 1], [(0, 1)])
        assert q.mnd(0) == 3
        assert d.mnd(0) == 1
        assert not mnd_ok(q, d, 0, 0)
        assert not cand_verify(q, d, 0, 0)

    def test_mnd_passes_when_equal(self):
        q = Graph([0, 1], [(0, 1)])
        d = Graph([0, 1], [(0, 1)])
        assert mnd_ok(q, d, 0, 0)


class TestNLF:
    def test_nlf_counts_matter(self):
        # query center needs two label-1 neighbors
        q = star(0, [1, 1])
        d_ok = star(0, [1, 1, 2])
        d_bad = star(0, [1, 2, 2])
        assert nlf_ok(q, d_ok, 0, 0)
        assert not nlf_ok(q, d_bad, 0, 0)

    def test_extra_labels_do_not_hurt(self):
        q = star(0, [1])
        d = star(0, [1, 5, 6])
        assert nlf_ok(q, d, 0, 0)

    def test_missing_label_fails(self):
        q = star(0, [3])
        d = star(0, [1, 2])
        assert not nlf_ok(q, d, 0, 0)


class TestCandVerify:
    def test_figure7_v10_fails_nlf(self):
        """The paper's Example 5.1: v10 pruned for lacking a D neighbor."""
        from repro.workloads.paper_graphs import figure7_example

        ex = figure7_example()
        assert not cand_verify(ex.query, ex.data, ex.q("u2"), ex.v("v10"))
        assert cand_verify(ex.query, ex.data, ex.q("u2"), ex.v("v4"))

    def test_full_check_combines_all(self):
        q = star(0, [1, 1])
        d = star(0, [1, 1])
        assert full_candidate_check(q, d, 0, 0)
        assert not full_candidate_check(q, d, 0, 1)  # leaf has wrong label

    def test_soundness_on_random_instances(self, rng):
        """No true embedding image may ever be filtered out."""
        from tests.conftest import nx_monomorphisms, random_instance

        for _ in range(15):
            data, query = random_instance(rng)
            for emb in nx_monomorphisms(query, data):
                for u, v in enumerate(emb):
                    assert full_candidate_check(query, data, u, v)


class TestRecordRejections:
    """``record_rejections`` over a :func:`verify_candidates` outcome
    counts exactly what :func:`counting_verify` counts per vertex."""

    @staticmethod
    def _both_ways(query, data, u):
        vertices = [
            v for v in data.vertices_with_label(query.label(u))
            if data.degree(v) >= query.degree(u)
        ]
        per_vertex = SearchStats()
        counted = counting_verify(cand_verify, per_vertex)
        passed = [v for v in vertices if counted(query, data, u, v)]
        outcome = verify_candidates(query, data, u, vertices)
        recorded = SearchStats()
        record_rejections(recorded, outcome)
        assert outcome.passed == passed
        assert outcome.structural == len(vertices)
        return recorded.to_dict(), per_vertex.to_dict()

    def _check(self, query, data):
        assert has_cand_verify_verdict(cand_verify)
        for u in query.vertices():
            recorded, expected = self._both_ways(query, data, u)
            assert recorded == expected, u

    def test_fuzz_cases(self):
        for seed in range(3):
            for index in range(len(SCENARIOS)):
                case = generate_case(seed, index)
                self._check(case.query, case.data)

    def test_absent_labels_and_mnd_nlf_failures(self):
        """Query vertex 0 (label 0) needs neighbors labeled 1, 2 and 3.
        No data edge joins labels 0 and 2, and label 3 is absent, so NLF
        rejects every candidate of vertex 0; the data also has vertices
        failing MND and NLF together."""
        query = Graph([0, 1, 2, 3, 1], [(0, 1), (0, 2), (0, 3), (1, 4)])
        data = Graph(
            [0, 0, 0, 1, 1, 2, 1, 0],
            [(0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4),
             (2, 6), (3, 4), (5, 6), (7, 3), (7, 4), (7, 6)],
        )
        self._check(query, data)
        self._check(Graph([0, 1, 2], [(0, 1), (0, 2)]), data)
        self._check(Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)]), data)

    def test_foreign_verify_has_no_verdict_guarantee(self):
        assert not has_cand_verify_verdict(nlf_ok)
        assert not has_cand_verify_verdict(None)
