"""DynamicGraph suite: mutation must be invisible to every reader.

The contract under test (see ``repro/graph/dynamic.py``): after any
valid mutation stream, every accessor — adjacency, neighbor sets, the
lazily-cached label index, degree index, NLF and MND — equals a from-scratch
:class:`Graph` built from the current labels and edges, whether the
caches were materialized before the stream (incremental maintenance) or
after it (cold build).  The touch log records exactly what a plan-level
consumer must re-examine.  A compiled kernel plan borrows the graph's
own rows, so after every delta it answers like a plan compiled from
scratch and like the reference engine.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro.graph.dynamic as dynamic_module
from repro.core import CFLMatch, IncrementalMatcher
from repro.core.kernel import MODE_TREE
from repro.core.stats import SearchStats
from repro.graph.dynamic import (
    DELTA_OPS,
    Delta,
    DynamicGraph,
    parse_delta_stream,
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


def long_row_instance(seed: int):
    """A labeled data graph whose label-1 vertices have ~40 label-2
    neighbors, and a K4 query over labels 0, 1, 2, 2: its backward
    checks filter rows of 32 or more candidates by two edges."""
    rng = random.Random(seed)
    labels = [0] * 6 + [1] * 40 + [2] * 60
    p = {(0, 1): 0.9, (1, 2): 0.7, (0, 2): 0.3, (1, 1): 0.05, (2, 2): 0.05}
    edges = [
        (u, v)
        for u in range(len(labels))
        for v in range(u + 1, len(labels))
        if rng.random() < p.get((labels[u], labels[v]), 0.0)
    ]
    query = Graph([0, 1, 2, 2], [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (3, 2)])
    return DynamicGraph(labels, edges), query


def full_run(matcher: CFLMatch, query: Graph):
    stats = SearchStats()
    return list(matcher.search(query, stats=stats)), stats


class TestKernelReadsLiveRows:
    def test_kernel_plan_borrows_the_dynamic_rows(self):
        dynamic, query = long_row_instance(0)
        kernel = CFLMatch(dynamic).prepare(query).kernel
        assert kernel.adj_sets is dynamic._adj_sets
        for delta in generate_delta_stream(dynamic, random.Random("rows"), 12):
            dynamic.apply(delta)
        assert dynamic._adj_sets is kernel.adj_sets  # mutated in place
        assert IncrementalMatcher(dynamic).prepare(query).kernel.adj_sets \
            is dynamic._adj_sets

    def test_kernel_equals_reference_after_every_delta(self):
        """A mixed add/remove edge/vertex stream: after each delta the
        live kernel matcher yields the reference engine's embeddings in
        order with its exact node, backtrack, backjump and rejection
        counts, and a cold kernel matcher's full counters."""
        dynamic, query = long_row_instance(1)
        core = CFLMatch(dynamic).prepare(query).kernel.core
        assert any(
            mode == MODE_TREE and checks and max(map(len, rows.values())) >= 32
            for mode, checks, rows in zip(core.modes, core.backward, core.set_rows)
        )
        deltas = generate_delta_stream(dynamic, random.Random("stream"), 24)
        assert {d.op for d in deltas} == set(DELTA_OPS)
        kernel = CFLMatch(dynamic, engine="kernel")
        reference = CFLMatch(dynamic, engine="reference")
        for delta in deltas:
            dynamic.apply(delta)
            got, got_stats = full_run(kernel, query)
            want, want_stats = full_run(reference, query)
            assert got == want, delta
            for name in ("nodes", "backtracks", "backjumps", "embeddings"):
                assert getattr(got_stats, name) == getattr(want_stats, name)
            assert (
                got_stats.injectivity_conflicts + got_stats.edge_check_failures
                == want_stats.injectivity_conflicts + want_stats.edge_check_failures
            )
            cold, cold_stats = full_run(
                CFLMatch(dynamic.to_static(), engine="kernel"), query
            )
            assert got == cold
            assert got_stats.to_dict() == cold_stats.to_dict()


class TestNoNumpy:
    def test_importing_the_package_and_cli_loads_no_numpy(self, tmp_path):
        """Importing, a kernel search over an mmap'd ``.csr`` graph and an
        incremental matcher over a 20-delta stream leave numpy unloaded."""
        src = str(Path(dynamic_module.__file__).resolve().parents[2])
        code = f"""
import random, sys
sys.path.insert(0, {src!r})
import repro, repro.cli
from repro.core import CFLMatch, IncrementalMatcher
from repro.graph import load_graph
from repro.graph.dynamic import DynamicGraph
from repro.graph.ingest import write_graph_csr
from repro.testing.workloads import WorkloadSpec, generate_case, generate_delta_stream
case = generate_case(3, 0, WorkloadSpec(scenarios=("dense",)))
path = {str(tmp_path / "data.csr")!r}
write_graph_csr(case.data, path)
assert CFLMatch(load_graph(path), engine="kernel").count(case.query) == \\
    CFLMatch(case.data, engine="reference").count(case.query)
dynamic = DynamicGraph.from_graph(case.data)
matcher = IncrementalMatcher(dynamic, engine="kernel")
for delta in generate_delta_stream(case.data, random.Random("numpy"), 20):
    dynamic.apply(delta)
    matcher.count(case.query)
assert 'numpy' not in sys.modules, 'numpy was imported'
"""
        subprocess.run([sys.executable, "-c", code], check=True)
