"""DynamicGraph suite: mutation must be invisible to every reader.

The contract under test (see ``repro/graph/dynamic.py``): after any
valid mutation stream, every accessor — adjacency, neighbor sets, the
lazily-cached label index, degree index, NLF and MND — equals a from-scratch
:class:`Graph` built from the current labels and edges, whether the
caches were materialized before the stream (incremental maintenance) or
after it (cold build).  The touch log records exactly what a plan-level
consumer must re-examine.  The kernel's adjacency CSR, patched per edge
delta, equals a full lowering at every version, and a snapshot handed
out earlier never changes.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.graph.dynamic as dynamic_module
from repro.graph.dynamic import (
    DELTA_OPS,
    Delta,
    DynamicGraph,
    parse_delta_stream,
    patch_adjacency,
)
from repro.graph.graph import Graph, GraphError
from repro.testing.workloads import (
    WorkloadSpec,
    generate_case,
    generate_delta_stream,
)


def assert_indexes_match_rebuild(dynamic: DynamicGraph) -> None:
    """Every derived structure equals a cold rebuild's."""
    rebuilt = Graph(list(dynamic.labels), dynamic.edges())
    assert dynamic.num_vertices == rebuilt.num_vertices
    assert dynamic.num_edges == rebuilt.num_edges
    assert {k: list(v) for k, v in dynamic.label_index().items()} == \
        {k: list(v) for k, v in rebuilt.label_index().items()}
    for label in set(rebuilt.labels):
        assert dynamic.degree_index(label) == rebuilt.degree_index(label)
    for v in rebuilt.vertices():
        assert list(dynamic.neighbors(v)) == list(rebuilt.neighbors(v))
        assert set(dynamic.neighbor_set(v)) == set(rebuilt.neighbor_set(v))
        assert dynamic.degree(v) == rebuilt.degree(v)
        assert dynamic.nlf(v) == rebuilt.nlf(v)
        assert dynamic.mnd(v) == rebuilt.mnd(v)


class TestDelta:
    def test_parse_format_round_trip(self):
        for line in ("ae 3 7", "re 0 1", "av 5", "rv 2"):
            assert Delta.parse(line).format() == line

    def test_ops_registry(self):
        assert set(DELTA_OPS) == {
            "add_edge", "remove_edge", "add_vertex", "remove_vertex"
        }

    @pytest.mark.parametrize("line", ["", "xx 1 2", "ae 1", "av 1 2", "ae a b"])
    def test_parse_rejects_malformed(self, line):
        with pytest.raises((GraphError, ValueError)):
            Delta.parse(line)

    def test_parse_delta_stream_skips_comments(self):
        text = "# header\n\nae 0 1\n  # indented comment\nrv 3\n"
        assert [d.format() for d in parse_delta_stream(text)] == \
            ["ae 0 1", "rv 3"]


class TestIndexMaintenance:
    @pytest.mark.parametrize("seed", range(6))
    def test_warm_caches_track_random_streams(self, seed):
        """Caches materialized *before* mutating are maintained in place
        and checked against a cold rebuild after every single delta."""
        case = generate_case(seed, seed, WorkloadSpec())
        dynamic = DynamicGraph.from_graph(case.data)
        # Materialize all lazy caches so the incremental paths run.
        dynamic.label_index()
        for label in set(dynamic.labels):
            dynamic.degree_index(label)
        if dynamic.num_vertices:
            dynamic.nlf(0)
            dynamic.mnd(0)
        rng = random.Random(f"maintenance:{seed}")
        for delta in generate_delta_stream(case.data, rng, length=14):
            dynamic.apply(delta)
            assert_indexes_match_rebuild(dynamic)

    def test_cold_caches_after_stream(self):
        """Caches first touched after the stream see the final state."""
        case = generate_case(3, 1, WorkloadSpec())
        dynamic = DynamicGraph.from_graph(case.data)
        rng = random.Random("cold")
        for delta in generate_delta_stream(case.data, rng, length=10):
            dynamic.apply(delta)
        assert_indexes_match_rebuild(dynamic)

    def test_swap_remove_renumbers_last_vertex(self):
        dynamic = DynamicGraph([0, 1, 2], [(0, 1), (1, 2)])
        dynamic.label_index()
        dynamic.remove_vertex(0)        # vertex 2 takes over id 0
        assert list(dynamic.labels) == [2, 1]
        assert dynamic.has_edge(0, 1)
        assert_indexes_match_rebuild(dynamic)

    def test_edge_delta_drops_only_endpoint_label_entries(self):
        """An edge delta re-derives the entries of its endpoints' labels
        only; a vertex delta drops the whole degree index."""
        dynamic = DynamicGraph([0, 1, 2, 3, 0], [(0, 1), (1, 2), (2, 3)])
        before = {label: dynamic.degree_index(label) for label in range(4)}
        dynamic.add_edge(0, 2)
        for label in (1, 3):
            assert dynamic.degree_index(label) is before[label]
        assert dynamic.degree_index(0) == ([4, 0], [0, 2])
        assert dynamic.degree_index(2) == ([2], [3])
        kept = dynamic.degree_index(1)
        dynamic.remove_edge(2, 3)
        assert dynamic.degree_index(1) is kept
        assert dynamic.degree_index(3) == ([3], [0])
        assert_indexes_match_rebuild(dynamic)
        dynamic.add_vertex(1)
        assert dynamic.degree_index(1) is not kept
        assert dynamic.degree_index(1) == ([5, 1], [0, 2])
        dynamic.remove_vertex(0)        # vertex 5 takes over id 0
        assert dynamic.degree_index(1) == ([0, 1], [0, 1])
        assert_indexes_match_rebuild(dynamic)

    def test_to_static_is_independent(self):
        dynamic = DynamicGraph([0, 1], [(0, 1)])
        frozen = dynamic.to_static()
        dynamic.remove_edge(0, 1)
        assert frozen.has_edge(0, 1)
        assert not dynamic.has_edge(0, 1)

    def test_mutation_errors(self):
        dynamic = DynamicGraph([0, 1], [(0, 1)])
        with pytest.raises(GraphError):
            dynamic.add_edge(0, 0)      # self-loop
        with pytest.raises(GraphError):
            dynamic.add_edge(0, 1)      # duplicate
        with pytest.raises(GraphError):
            dynamic.remove_edge(1, 0) or dynamic.remove_edge(1, 0)
        with pytest.raises(GraphError):
            dynamic.remove_edge(0, 1)   # already gone
        with pytest.raises(GraphError):
            dynamic.add_edge(0, 9)      # unknown vertex
        # Failed mutations must not bump the version.
        assert dynamic.version == 1


class TestTouchLog:
    def test_version_is_monotonic(self):
        dynamic = DynamicGraph([0, 0], [])
        assert dynamic.version == 0
        dynamic.add_edge(0, 1)
        dynamic.add_vertex(3)
        dynamic.remove_edge(0, 1)
        assert dynamic.version == 3

    def test_touches_report_labels_and_renumbering(self):
        dynamic = DynamicGraph([0, 1, 2], [(0, 1), (1, 2)])
        dynamic.add_vertex(7)
        dynamic.remove_vertex(0)        # renumbers vertex 3 into slot 0
        touches = dynamic.touches_since(0)
        assert [t.version for t in touches] == [1, 2]
        assert touches[0].labels == frozenset({7})
        assert not touches[0].renumbered
        assert 0 in touches[1].labels   # the removed vertex's label
        assert touches[1].renumbered
        assert dynamic.touches_since(dynamic.version) == []

    def test_bounded_log_reports_gap(self):
        dynamic = DynamicGraph([0, 0, 0], [], log_limit=2)
        dynamic.add_edge(0, 1)
        dynamic.add_edge(1, 2)
        assert dynamic.touches_since(0) is not None
        dynamic.add_edge(0, 2)          # evicts the version-1 entry
        assert dynamic.touches_since(0) is None
        assert dynamic.touches_since(1) is not None

    def test_apply_matches_can_apply_on_random_streams(self):
        """``can_apply`` exactly predicts whether ``apply`` succeeds."""
        rng = random.Random("agreement")
        dynamic = DynamicGraph([rng.randrange(3) for _ in range(6)], [])
        for _ in range(300):
            op = rng.choice(list(DELTA_OPS))
            n = dynamic.num_vertices
            if op == "add_edge":
                delta = Delta.add_edge(rng.randrange(n + 1), rng.randrange(n + 1))
            elif op == "remove_edge":
                delta = Delta.remove_edge(rng.randrange(n + 1), rng.randrange(n + 1))
            elif op == "add_vertex":
                delta = Delta.add_vertex(rng.randrange(4))
            else:
                delta = Delta.remove_vertex(rng.randrange(n + 1))
            if dynamic.num_vertices == 0 and op != "add_vertex":
                continue
            if dynamic.can_apply(delta):
                dynamic.apply(delta)
            else:
                before = dynamic.version
                with pytest.raises(GraphError):
                    dynamic.apply(delta)
                assert dynamic.version == before


def csr_bytes(csr):
    indptr, flat = csr
    return bytes(indptr), bytes(flat)


def delta_for(dynamic: DynamicGraph, op: str, x: int, y: int):
    """Map a drawn ``(op, x, y)`` onto a valid delta, or ``None``."""
    n = dynamic.num_vertices
    if op == "add_vertex":
        return Delta.add_vertex(y % 3)
    if n == 0:
        return None
    if op == "remove_vertex":
        return Delta.remove_vertex(x % n)
    if op == "remove_edge":
        edges = list(dynamic.edges())
        return Delta.remove_edge(*edges[x % len(edges)]) if edges else None
    u, v = x % n, y % n
    return Delta.add_edge(u, v) if u != v and not dynamic.has_edge(u, v) else None


def flip_edges(dynamic: DynamicGraph, rng: random.Random, count: int) -> None:
    """Toggle ``count`` random vertex pairs: edge deltas only."""
    for _ in range(count):
        u, v = rng.sample(range(dynamic.num_vertices), 2)
        if dynamic.has_edge(u, v):
            dynamic.remove_edge(u, v)
        else:
            dynamic.add_edge(u, v)


class TestAdjacencyCSR:
    @given(
        labels=st.lists(st.integers(0, 2), min_size=1, max_size=8),
        pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
        steps=st.lists(
            st.tuples(st.sampled_from(DELTA_OPS), st.integers(0, 63), st.integers(0, 63)),
            max_size=25,
        ),
    )
    def test_patched_csr_equals_full_lowering(self, labels, pairs, steps):
        """Interleaved edge and vertex deltas: after every delta the CSR
        equals a full lowering of ``to_static()``, and the snapshot
        taken before the delta is unchanged (copy-on-write)."""
        n = len(labels)
        edges = {(min(u % n, v % n), max(u % n, v % n)) for u, v in pairs}
        dynamic = DynamicGraph(labels, sorted((u, v) for u, v in edges if u != v))
        for op, x, y in steps:
            delta = delta_for(dynamic, op, x, y)
            if delta is None:
                continue
            before = dynamic.adjacency_csr()
            frozen = csr_bytes(before)
            dynamic.apply(delta)
            assert csr_bytes(dynamic.adjacency_csr()) == \
                csr_bytes(dynamic.to_static().adjacency_csr())
            assert csr_bytes(before) == frozen

    def test_several_edge_deltas_patch_into_one_snapshot(self):
        case = generate_case(4, 2, WorkloadSpec())
        dynamic = DynamicGraph.from_graph(case.data)
        first = dynamic.adjacency_csr()
        flip_edges(dynamic, random.Random("batched"), 30)
        latest = dynamic.adjacency_csr()
        assert latest is not first
        assert dynamic.adjacency_csr() is latest    # no delta since: cached
        assert csr_bytes(latest) == csr_bytes(dynamic.to_static().adjacency_csr())

    def test_pure_shift_is_byte_identical_to_numpy(self, monkeypatch):
        pytest.importorskip("numpy")
        case = generate_case(6, 0, WorkloadSpec())
        dynamic = DynamicGraph.from_graph(case.data)
        snapshot = dynamic.adjacency_csr()
        flip_edges(dynamic, random.Random("shift"), 12)
        dirty = sorted(dynamic._csr_dirty)
        assert dirty
        assert dynamic_module._load_numpy() is not None
        with_numpy = patch_adjacency(snapshot, dynamic.adj, dirty)
        # numpy absent: the cached outcome of the import is None
        monkeypatch.setattr(dynamic_module, "_np", None)
        pure = patch_adjacency(snapshot, dynamic.adj, dirty)
        assert csr_bytes(pure) == csr_bytes(with_numpy)
        assert csr_bytes(pure) == csr_bytes(dynamic.to_static().adjacency_csr())

    def test_numpy_absence_is_cached(self, monkeypatch):
        monkeypatch.setattr(dynamic_module, "_np", None)
        monkeypatch.setattr(dynamic_module, "_np_loaded", False)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy raises
        assert dynamic_module._load_numpy() is None
        assert dynamic_module._np_loaded
        case = generate_case(6, 0, WorkloadSpec())
        dynamic = DynamicGraph.from_graph(case.data)
        dynamic.adjacency_csr()
        flip_edges(dynamic, random.Random("shift"), 12)
        assert csr_bytes(dynamic.adjacency_csr()) == csr_bytes(
            dynamic.to_static().adjacency_csr()
        )

    def test_importing_the_package_and_cli_loads_no_numpy(self):
        src = str(Path(dynamic_module.__file__).resolve().parents[2])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import repro, repro.cli; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
