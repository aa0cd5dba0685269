"""Unit tests for BFS-root selection (Section A.6).

The degree-index implementation is checked against the linear-scan
definition it replaced (kept below as a test oracle), and the root's
verified candidates handed to the CPI builder are checked to leave every
CPI and build counter unchanged.
"""

import random

import pytest

import repro.core.cpi_builder as cpi_builder
import repro.core.matcher as matcher_module
from repro.core import CFLMatch, build_cpi, select_root
from repro.core.cpi_builder import _root_candidates
from repro.core.decomposition import cfl_decompose
from repro.core.filters import cand_verify
from repro.graph import Graph, GraphError
from repro.graph.dynamic import DynamicGraph
from repro.testing.workloads import SCENARIOS, generate_case, generate_delta_stream
from repro.workloads.paper_graphs import figure7_example


class TestSelectRoot:
    def test_figure7_picks_u0(self):
        """Section A.6's example: u0 has |C|/d = 2/2 = 1, the minimum."""
        ex = figure7_example()
        assert select_root(ex.query, ex.data) == ex.q("u0")

    def test_prefers_rare_labels(self):
        # query: edge with labels 0 (frequent in data) and 1 (rare)
        query = Graph([0, 1], [(0, 1)])
        data = Graph([0, 0, 0, 0, 1], [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert select_root(query, data) == 1

    def test_eligible_restricts_pool(self):
        query = Graph([0, 1], [(0, 1)])
        data = Graph([0, 0, 0, 0, 1], [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert select_root(query, data, eligible=[0]) == 0

    def test_empty_pool_rejected(self):
        query = Graph([0], [])
        data = Graph([0], [])
        with pytest.raises(GraphError):
            select_root(query, data, eligible=[])

    def test_degree_breaks_candidate_ties(self):
        # both labels equally frequent; vertex 1 has higher query degree
        query = Graph([0, 1, 0, 0], [(0, 1), (1, 2), (1, 3)])
        data = Graph(
            [0, 0, 0, 1],
            [(0, 3), (1, 3), (2, 3)],
        )
        assert select_root(query, data) == 1

    def test_root_is_deterministic(self):
        query = Graph([0, 0], [(0, 1)])
        data = Graph([0, 0], [(0, 1)])
        assert select_root(query, data) == select_root(query, data) == 0


# ----------------------------------------------------------------------
# The degree-index selection against the linear-scan definition
# ----------------------------------------------------------------------
def _linear_scan_select_root(query, data, eligible=None, top_k=3):
    """Section A.6 as first written here: both counts scan the whole
    label bucket and call ``degree`` per data vertex (the oracle)."""

    def light(u):
        return sum(
            1 for v in data.vertices_with_label(query.label(u))
            if data.degree(v) >= query.degree(u)
        )

    def verified(u):
        return sum(
            1 for v in data.vertices_with_label(query.label(u))
            if data.degree(v) >= query.degree(u) and cand_verify(query, data, u, v)
        )

    pool = list(eligible) if eligible is not None else list(query.vertices())
    pool.sort(key=lambda u: (light(u) / max(query.degree(u), 1), u))
    shortlist = pool[: max(top_k, 1)]
    if len(shortlist) == 1:
        return shortlist[0]
    return min(shortlist, key=lambda u: (verified(u) / max(query.degree(u), 1), u))


def _fuzz_cases(seeds=range(4)):
    for seed in seeds:
        for index in range(len(SCENARIOS)):
            yield generate_case(seed, index)


def _pools(query):
    yield None
    if query.num_vertices and query.is_connected():
        yield cfl_decompose(query).core


class TestAgainstLinearScan:
    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_same_root_on_every_fuzz_scenario(self, top_k):
        seen = set()
        for case in _fuzz_cases():
            seen.add(case.scenario)
            if case.query.num_vertices == 0:
                continue
            for pool in _pools(case.query):
                assert select_root(case.query, case.data, pool, top_k) == \
                    _linear_scan_select_root(case.query, case.data, pool, top_k), \
                    (case.seed, pool)
        assert seen == set(SCENARIOS)

    def test_same_root_after_every_delta(self):
        """The dynamic graph's per-label index entries stay current."""
        case = generate_case(5, 0)
        dynamic = DynamicGraph.from_graph(case.data)
        rng = random.Random("root-selection")
        for delta in generate_delta_stream(case.data, rng, length=30):
            dynamic.apply(delta)
            assert select_root(case.query, dynamic) == \
                _linear_scan_select_root(case.query, dynamic)

    def test_verified_handoff_is_the_builders_root_step(self):
        """The stored outcome equals the root's label+degree survivors
        split by CandVerify, in label-bucket order."""
        checked = 0
        for case in _fuzz_cases():
            if case.query.num_vertices < 2:
                continue
            verified = {}
            root = select_root(case.query, case.data, verified=verified)
            assert set(verified) == {root}
            outcome = verified[root]
            expected = _root_candidates(case.query, case.data, root, cand_verify)
            assert outcome.passed == expected
            structural = [
                v for v in case.data.vertices_with_label(case.query.label(root))
                if case.data.degree(v) >= case.query.degree(root)
            ]
            assert sorted(outcome.passed + outcome.mnd_failed + outcome.nlf_failed) \
                == structural
            assert all(case.data.mnd(v) < case.query.mnd(root) for v in outcome.mnd_failed)
            checked += 1
        assert checked

    def test_single_vertex_shortlist_verifies_nothing(self):
        ex = figure7_example()
        verified = {}
        root = select_root(ex.query, ex.data, eligible=[ex.q("u0")], verified=verified)
        assert root == ex.q("u0")
        assert verified == {}


# ----------------------------------------------------------------------
# Handing the root's candidates to the CPI builder
# ----------------------------------------------------------------------
def _without_handoff(monkeypatch):
    """Make the matcher's root selection store nothing, so the builder
    verifies the root itself as it did before the handoff."""
    original = matcher_module.select_root

    def select_root_only(query, data, eligible=None, top_k=3, verified=None):
        return original(query, data, eligible, top_k)

    monkeypatch.setattr(matcher_module, "select_root", select_root_only)


def test_build_stats_identical_with_and_without_handoff(monkeypatch):
    pairs = [
        (case.query, case.data) for case in _fuzz_cases(range(3))
        if case.query.num_vertices and case.query.is_connected()
    ]
    # The root's candidates fail the MND and NLF checks.
    pairs.append((
        Graph([0, 1, 2, 3, 1], [(0, 1), (0, 2), (0, 3), (1, 4)]),
        Graph(
            [0, 0, 0, 1, 1, 2, 1, 0],
            [(0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4),
             (2, 6), (3, 4), (5, 6), (7, 3), (7, 4), (7, 6)],
        ),
    ))
    with_handoff = []
    for query, data in pairs:
        plan = CFLMatch(data).prepare(query)
        with_handoff.append((plan.build_stats.to_dict(), plan.cpi.candidates))
    _without_handoff(monkeypatch)
    for (query, data), expected in zip(pairs, with_handoff):
        plan = CFLMatch(data).prepare(query)
        assert (plan.build_stats.to_dict(), plan.cpi.candidates) == expected


def test_handoff_skips_the_builders_root_verification(monkeypatch):
    """A query whose pool has several vertices takes its root's
    candidates from root selection; ``_root_candidates`` never runs."""
    calls = []
    original = cpi_builder._root_candidates

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(cpi_builder, "_root_candidates", counting)
    ex = figure7_example()
    plan = CFLMatch(ex.data).prepare(ex.query)
    assert calls == []
    assert plan.build_stats.cpi_candidates_structural > 0


def test_handoff_ignored_for_a_foreign_verify():
    """``build_cpi`` verifies the root itself when its ``verify`` could
    judge differently from CandVerify."""
    ex = figure7_example()
    verified = {}
    root = select_root(ex.query, ex.data, verified=verified)

    def reject_all(query, data, u, v):
        return False

    cpi = build_cpi(ex.query, ex.data, root, verify=reject_all,
                    root_verified=verified[root])
    assert cpi.candidates[root] == []
