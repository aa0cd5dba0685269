"""CPI construction as set algebra equals the paper's gated counter.

Algorithms 3 and 4 are stated with a counter: ``cnt[v]`` is bumped at
most once per query neighbor whose candidates reach ``v`` (Lemma 5.1),
and ``v`` survives when ``cnt[v]`` equals the number of neighbors.  The
builders compute the same survivors as set intersections.  This file
keeps the counter builder as a small oracle and checks that both give
the same CPI (candidates in order, adjacency rows and their key order)
and the same counters, over plain graphs, mmap'd ``.csr`` graphs and the
dynamic repair sweep, with and without the batch aux cache, for every
kind of ``verify``.
"""

from __future__ import annotations

import random
from collections.abc import Set as SetBase
from typing import Dict, List, Tuple

import pytest

from repro.core.batch import AuxAdjacencyCache
from repro.core.cpi import CPI, QueryBFSTree
from repro.core.cpi_builder import _first_reach, build_cpi, repair_cpi
from repro.core.filters import VerifiedCandidates, cand_verify
from repro.core.root_selection import select_root
from repro.core.shm import _RowSet
from repro.core.stats import SearchStats
from repro.graph import Graph, load_graph
from repro.graph.ingest import write_graph_csr
from repro.testing.workloads import (
    CONNECTED_QUERY_SCENARIOS,
    WorkloadSpec,
    generate_case,
)
from repro.workloads.paper_graphs import figure7_example
from tests.core.test_filters import counting_verify


# ----------------------------------------------------------------------
# Oracle: the gated-counter builder (Algorithms 3 and 4 as written)
# ----------------------------------------------------------------------
def _accumulate(query, data, u, parent_label, cands, cnt, touched, expected, aux):
    u_label, u_degree = query.label(u), query.degree(u)
    adj, labels = data.adj, data.labels
    if aux is not None:
        entry = aux.lookup(parent_label, u_label, u_degree)
        exact = u_degree > entry.bucket
        rows = [(v, exact) for v_p in cands for v in entry.row(v_p)]
    else:
        rows = [
            (v, True)
            for v_p in cands
            for v in adj[v_p]
            if labels[v] == u_label
        ]
    for v, check_degree in rows:
        if check_degree and len(adj[v]) < u_degree:
            continue
        if cnt[v] == expected:
            if expected == 0:
                touched.append(v)
            cnt[v] = expected + 1


def _counted_survivors(query, data, u, sources, candidates, cnt, aux):
    """Vertices reached from every source: (total, touched)."""
    total, touched = 0, []
    for u_prime in sources:
        _accumulate(query, data, u, query.label(u_prime), candidates[u_prime],
                    cnt, touched, total, aux)
        total += 1
    return total, touched


def oracle_build(query, data, root, verify, stats, aux=None, refine=True) -> CPI:
    tree = QueryBFSTree.build(query, root)
    counted = None if verify is None else counting_verify(verify, stats)
    n_q = query.num_vertices
    cnt = [0] * data.num_vertices
    candidates: List[List[int]] = [[] for _ in range(n_q)]
    adjacency: List[Dict[int, List[int]]] = [{} for _ in range(n_q)]
    for v in data.vertices_with_label(query.label(root)):
        if data.degree(v) < query.degree(root):
            stats.filter_degree_pruned += 1
            continue
        stats.cpi_candidates_structural += 1
        if counted is None or counted(query, data, root, v):
            candidates[root].append(v)
    visited = [False] * n_q
    visited[root] = True
    for level in tree.levels[1:]:
        pending: Dict[int, List[int]] = {}
        for u in level:
            sources = [x for x in query.neighbors(u) if visited[x]]
            pending[u] = [
                x for x in query.neighbors(u)
                if not visited[x] and tree.level[x] == tree.level[u]
            ]
            total, touched = _counted_survivors(
                query, data, u, sources, candidates, cnt, aux)
            kept = []
            for v in touched:
                if cnt[v] == total:
                    stats.cpi_candidates_structural += 1
                    if counted is None or counted(query, data, u, v):
                        kept.append(v)
            candidates[u] = sorted(kept)
            visited[u] = True
            for v in touched:
                cnt[v] = 0
        for u in reversed(level):
            if not pending[u]:
                continue
            total, touched = _counted_survivors(
                query, data, u, pending[u], candidates, cnt, aux)
            before = len(candidates[u])
            candidates[u] = [v for v in candidates[u] if cnt[v] == total]
            stats.filter_snte_pruned += before - len(candidates[u])
            for v in touched:
                cnt[v] = 0
        for u in level:
            parent = tree.parent[u]
            u_set = set(candidates[u])
            if aux is not None:
                entry = aux.lookup(query.label(parent), query.label(u), query.degree(u))
                rows = [(v_p, entry.row(v_p)) for v_p in candidates[parent]]
            else:
                rows = [(v_p, data.adj[v_p]) for v_p in candidates[parent]]
            for v_p, row in rows:
                kept = [v for v in row if v in u_set]
                if kept:
                    adjacency[u][v_p] = kept
    stats.cpi_candidates_topdown += sum(map(len, candidates))
    if refine:
        for level in reversed(tree.levels):
            for u in level:
                lower = [x for x in query.neighbors(u) if tree.level[x] > tree.level[u]]
                if lower:
                    total, touched = _counted_survivors(
                        query, data, u, lower, candidates, cnt, aux)
                    dropped = [v for v in candidates[u] if cnt[v] != total]
                    candidates[u] = [v for v in candidates[u] if cnt[v] == total]
                    stats.refine_candidates_pruned += len(dropped)
                    for child in tree.children[u]:
                        for v in dropped:
                            removed = adjacency[child].pop(v, None)
                            if removed is not None:
                                stats.refine_adjacency_pruned += len(removed)
                    for v in touched:
                        cnt[v] = 0
                for child in tree.children[u]:
                    child_set = set(candidates[child])
                    table = adjacency[child]
                    for v in candidates[u]:
                        row = table.get(v)
                        if row is None:
                            continue
                        pruned = [w for w in row if w in child_set]
                        stats.refine_adjacency_pruned += len(row) - len(pruned)
                        if pruned:
                            table[v] = pruned
                        else:
                            del table[v]
        stats.refine_passes += 1
    cpi = CPI(tree, data, candidates, adjacency)
    stats.cpi_candidates_final += sum(map(len, candidates))
    stats.cpi_edges_final += sum(len(r) for t in adjacency for r in t.values())
    return cpi


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _foreign_verify(query, data, u, v):
    """A CandVerify stand-in without CandVerify's verdict."""
    return cand_verify(query, data, u, v) and (u + v) % 5 != 0


class _ExtendedVerify:
    """The label-pair and NLI pre-filters in front of CandVerify, as a
    plain callable bound to one ``(query, data)`` pair.

    Both pre-filters only reject what NLF rejects, so this accepts what
    :func:`cand_verify` accepts; but it lacks CandVerify's verdict, so
    the builders judge it per vertex and ignore a root handoff.
    """

    def __init__(self, query, data):
        labels = data.labels
        pairs = {
            (labels[v], labels[w]) for v in data.vertices() for w in data.adj[v]
        }
        self.required = [
            frozenset(query.label(w) for w in query.neighbors(u))
            for u in query.vertices()
        ]
        self.pair_ok = [
            all((query.label(u), lab) in pairs for lab in self.required[u])
            for u in query.vertices()
        ]
        self.neighbor_labels: Dict[int, frozenset] = {}

    def __call__(self, query, data, u, v):
        if not self.pair_ok[u]:
            return False
        present = self.neighbor_labels.get(v)
        if present is None:
            present = frozenset(data.labels[w] for w in data.adj[v])
            self.neighbor_labels[v] = present
        if not self.required[u] <= present:
            return False
        return cand_verify(query, data, u, v)


VERIFIES = ("none", "cand_verify", "extended", "foreign")


def _verify(kind, query, data):
    if kind == "none":
        return None
    if kind == "cand_verify":
        return cand_verify
    if kind == "extended":
        return _ExtendedVerify(query, data)
    return _foreign_verify


def _cases() -> List[Tuple[str, Graph, Graph]]:
    ex = figure7_example()
    cases = [("figure7", ex.data, ex.query)]
    for name in CONNECTED_QUERY_SCENARIOS:
        spec = WorkloadSpec(scenarios=(name,))
        for seed in (3, 11, 29):
            case = generate_case(seed, 0, spec)
            cases.append((f"{name}-{seed}", case.data, case.query))
    dense = WorkloadSpec(scenarios=("dense",))
    for index in range(3):
        case = generate_case(123, index, dense)
        cases.append((f"dense-spec-{index}", case.data, case.query))
    return cases


CASES = _cases()


def _roots(query: Graph, data: Graph) -> List[int]:
    roots = [select_root(query, data)]
    if query.num_vertices > 1 and roots[0] != query.num_vertices - 1:
        roots.append(query.num_vertices - 1)
    return roots


def _shape(cpi: CPI):
    return (
        [list(c) for c in cpi.candidates],
        [[(k, list(row)) for k, row in table.items()] for table in cpi.adjacency],
        cpi.cand_sets,
    )


@pytest.fixture(scope="module")
def csr_graphs(tmp_path_factory) -> Dict[str, Graph]:
    directory = tmp_path_factory.mktemp("csr")
    graphs = {}
    for name, data, _ in CASES:
        path = directory / f"{name}.csr"
        write_graph_csr(data, path)
        graphs[name] = load_graph(path)
    return graphs


def _graph(form: str, name: str, data: Graph, csr_graphs) -> Graph:
    return csr_graphs[name] if form == "csr" else data


# ----------------------------------------------------------------------
# Equality with the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", VERIFIES)
@pytest.mark.parametrize("form", ("graph", "csr"))
@pytest.mark.parametrize("name,data,query", CASES, ids=[c[0] for c in CASES])
def test_build_cpi_equals_counter_oracle(name, data, query, form, kind, csr_graphs):
    data = _graph(form, name, data, csr_graphs)
    for root in _roots(query, data):
        for refine in (True, False):
            want_stats, got_stats = SearchStats(), SearchStats()
            want = oracle_build(query, data, root, _verify(kind, query, data),
                                want_stats, refine=refine)
            got = build_cpi(query, data, root, refine=refine,
                            verify=_verify(kind, query, data), stats=got_stats)
            assert _shape(got) == _shape(want)
            assert got_stats.to_dict() == want_stats.to_dict()
            # stats=None takes no counting path and builds the same CPI
            plain = build_cpi(query, data, root, refine=refine,
                              verify=_verify(kind, query, data))
            assert _shape(plain) == _shape(want)


@pytest.mark.parametrize("kind", VERIFIES)
@pytest.mark.parametrize("form", ("graph", "csr"))
@pytest.mark.parametrize("name,data,query", CASES, ids=[c[0] for c in CASES])
def test_aux_build_equals_counter_oracle(name, data, query, form, kind, csr_graphs):
    """With the batch aux cache the CPI, the build counters and the
    cache's own hit/miss/byte counters all match the oracle's."""
    data = _graph(form, name, data, csr_graphs)
    want_aux = AuxAdjacencyCache(data)
    got_aux = AuxAdjacencyCache(data)
    for root in _roots(query, data):
        want_stats, got_stats = SearchStats(), SearchStats()
        want = oracle_build(query, data, root, _verify(kind, query, data),
                            want_stats, aux=want_aux)
        got = build_cpi(query, data, root, verify=_verify(kind, query, data),
                        stats=got_stats, aux=got_aux)
        assert _shape(got) == _shape(want)
        assert got_stats.to_dict() == want_stats.to_dict()
    assert got_aux.stats.to_dict() == want_aux.stats.to_dict()
    assert got_aux.bytes_in_use == want_aux.bytes_in_use


@pytest.mark.parametrize("kind", ("cand_verify", "extended"))
@pytest.mark.parametrize("name,data,query", CASES, ids=[c[0] for c in CASES])
def test_root_handoff_equals_counter_oracle(name, data, query, kind):
    """The matcher's path: root selection hands its verified root over.
    A ``verify`` without CandVerify's verdict must verify the root
    itself rather than take the handoff."""
    verified: Dict[int, VerifiedCandidates] = {}
    root = select_root(query, data, verified=verified)
    want_stats, got_stats = SearchStats(), SearchStats()
    want = oracle_build(query, data, root, _verify(kind, query, data), want_stats)
    got = build_cpi(query, data, root, verify=_verify(kind, query, data),
                    stats=got_stats, root_verified=verified.get(root))
    assert _shape(got) == _shape(want)
    assert got_stats.to_dict() == want_stats.to_dict()


@pytest.mark.parametrize("kind", VERIFIES)
@pytest.mark.parametrize("form", ("graph", "csr"))
@pytest.mark.parametrize("name,data,query", CASES, ids=[c[0] for c in CASES])
def test_repair_sweep_build_equals_counter_oracle(name, data, query, form, kind, csr_graphs):
    """The dynamic sweep with no previous state is a full build."""
    data = _graph(form, name, data, csr_graphs)
    for root in _roots(query, data):
        want_stats, got_stats = SearchStats(), SearchStats()
        want = oracle_build(query, data, root, _verify(kind, query, data), want_stats)
        got, _ = repair_cpi(query, data, root, stats=got_stats,
                            verify=_verify(kind, query, data))
        assert _shape(got) == _shape(want)
        assert got_stats.to_dict() == want_stats.to_dict()


#: The totals only full builds count: they describe complete CPIs.
_BUILD_TOTALS = ("cpi_candidates_topdown", "cpi_candidates_final", "cpi_edges_final")


@pytest.mark.parametrize("kind", VERIFIES)
@pytest.mark.parametrize("name,data,query", CASES, ids=[c[0] for c in CASES])
def test_repair_with_every_label_dirty_equals_build(name, data, query, kind):
    """A repair that finds every query label dirty recomputes every
    unit: the CPI of a fresh build, in order, and its counters apart
    from the totals."""
    for root in _roots(query, data):
        _, state = repair_cpi(query, data, root, verify=_verify(kind, query, data))
        want_stats, got_stats = SearchStats(), SearchStats()
        want = build_cpi(query, data, root, verify=_verify(kind, query, data),
                         stats=want_stats)
        got, _ = repair_cpi(query, data, root, state, frozenset(query.labels),
                            verify=_verify(kind, query, data), stats=got_stats)
        assert _shape(got) == _shape(want)
        expected = want_stats.to_dict()
        expected.update(dict.fromkeys(_BUILD_TOTALS, 0))
        assert got_stats.to_dict() == expected


def test_figure7_backward_pruning_is_observed():
    """The oracle comparison covers S-NTE pruning: Example 5.1 prunes v9."""
    ex = figure7_example()
    stats = SearchStats()
    build_cpi(ex.query, ex.data, ex.q("u0"), stats=stats)
    assert stats.filter_snte_pruned == 1


# ----------------------------------------------------------------------
# The first reach's size choice
# ----------------------------------------------------------------------
def _expected_first_reach(query, data, u, rows) -> set:
    return {
        v for row in rows for v in row
        if data.label(v) == query.label(u) and data.degree(v) >= query.degree(u)
    }


def _bucket_len(query, data, u) -> int:
    return len(data.vertices_with_label(query.label(u)))


@pytest.mark.parametrize("form", ("graph", "csr"))
@pytest.mark.parametrize("name,data,query", CASES, ids=[c[0] for c in CASES])
def test_first_reach_branches_agree(name, data, query, form, csr_graphs):
    """Repeating a row leaves the union unchanged but makes the rows
    longer than the label bucket, which selects the degree suffix; a
    row no longer than the bucket (or no row) selects the filter.  Both
    branches must give the filtered union."""
    data = _graph(form, name, data, csr_graphs)
    vertices = list(data.vertices())
    random.Random(name).shuffle(vertices)
    for u in query.vertices():
        bucket = _bucket_len(query, data, u)
        for v_p in vertices[:4]:
            row = data.adj[v_p]
            short = [row] if len(row) <= bucket else []
            assert not bucket < sum(map(len, short))
            assert _first_reach(query, data, u, short) == \
                _expected_first_reach(query, data, u, short)
            if row:
                long = [row] * (bucket + 1)
                assert bucket < sum(map(len, long))
                assert _first_reach(query, data, u, long) == \
                    _expected_first_reach(query, data, u, long)


def test_first_reach_takes_both_branches_in_builds(monkeypatch):
    """Across the cases, whole builds run both branches."""
    import repro.core.cpi_builder as cpi_builder

    seen = set()
    original = cpi_builder._first_reach

    def spy(query, data, u, rows):
        rows = list(rows)
        seen.add(_bucket_len(query, data, u) < sum(map(len, rows)))
        return original(query, data, u, rows)

    monkeypatch.setattr(cpi_builder, "_first_reach", spy)
    for _, data, query in CASES:
        build_cpi(query, data, select_root(query, data))
    assert seen == {True, False}


# ----------------------------------------------------------------------
# _RowSet intersections answer like collections.abc.Set's
# ----------------------------------------------------------------------
ROWS = ([], [3], [1, 4, 9, 16, 25], list(range(0, 200, 3)))
OTHERS = (
    frozenset(),
    frozenset({4, 9, 10}),
    {1, 25, 26, 100},
    frozenset(range(0, 300, 2)),
    [4, 9, 9, 11],
    (16, 17),
    frozenset({1.0, 4, "9", None, (1,)}),
    {True, 9, 10},
    {3.0, 6, "x"},
    ["a", [4], 3],
)


def _row_set(row: List[int], backing: str) -> _RowSet:
    if backing == "memoryview":
        from array import array

        return _RowSet(memoryview(array("i", row)))
    return _RowSet(row)


@pytest.mark.parametrize("backing", ("list", "memoryview"))
@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"row{len(r)}")
@pytest.mark.parametrize("index", range(len(OTHERS)))
def test_rowset_and_matches_abc_set(row, index, backing):
    """Both operand orders, as sets and as plain iterables."""
    other = OTHERS[index]
    members = list(other)
    row_set = _row_set(row, backing)
    want = SetBase.__and__(row_set, iter(members))
    if isinstance(other, (set, frozenset)):
        operands = (other, iter(members))
    else:
        operands = (members, iter(members))
    for operand in operands:
        got = row_set & operand
        assert isinstance(got, frozenset) and got == want
    for operand in (other if isinstance(other, (set, frozenset)) else members,
                    iter(members)):
        reflected = operand & row_set
        assert isinstance(reflected, frozenset) and reflected == want


def test_rowset_and_rejects_non_iterables():
    row_set = _RowSet([1, 2, 3])
    assert row_set.__and__(5) is NotImplemented
    assert row_set.__rand__(None) is NotImplemented
    with pytest.raises(TypeError):
        row_set & 5  # noqa: B018
    with pytest.raises(TypeError):
        5 & row_set  # noqa: B018

