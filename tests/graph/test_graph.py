"""Unit tests for the Graph substrate."""

import pytest

from repro.core.shm import SharedGraph, SharedGraphStore
from repro.graph import Graph, GraphError, graph_from_edge_list
from repro.graph.dynamic import DynamicGraph
from repro.graph.ingest import write_graph_csr
from repro.graph.io import load_graph
from repro.testing.workloads import generate_case


class TestConstruction:
    def test_basic_counts(self):
        g = Graph([0, 1, 2], [(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert len(g) == 3

    def test_empty_graph(self):
        g = Graph([], [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.is_connected()  # vacuously

    def test_single_vertex(self):
        g = Graph([5], [])
        assert g.num_vertices == 1
        assert g.degree(0) == 0
        assert g.is_connected()

    def test_adjacency_is_sorted(self):
        g = Graph([0] * 4, [(3, 0), (2, 0), (1, 0)])
        assert g.neighbors(0) == [1, 2, 3]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph([0, 1], [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph([0, 1], [(0, 1), (1, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError, match="outside"):
            Graph([0, 1], [(0, 2)])

    def test_graph_from_edge_list_validates_label_count(self):
        with pytest.raises(GraphError, match="labels"):
            graph_from_edge_list(3, [0, 1], [(0, 1)])


class TestAccessors:
    def test_labels_and_degrees(self, small_data):
        assert small_data.label(0) == 0
        assert small_data.degree(0) == 3  # neighbors 1, 2, 9
        assert small_data.has_edge(0, 1)
        assert not small_data.has_edge(0, 4)
        assert small_data.has_edge(1, 0)  # symmetric

    def test_edges_iterates_each_once(self, small_data):
        edges = list(small_data.edges())
        assert len(edges) == small_data.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_label_index(self):
        g = Graph([0, 1, 0, 1, 0], [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert g.vertices_with_label(0) == [0, 2, 4]
        assert g.vertices_with_label(1) == [1, 3]
        assert g.vertices_with_label(99) == []
        assert g.label_frequency(0) == 3
        assert g.num_labels == 2

    def test_average_degree(self):
        g = Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)])
        assert g.average_degree() == 2.0
        assert Graph([], []).average_degree() == 0.0

    def test_nlf(self):
        g = Graph([0, 1, 1, 2], [(0, 1), (0, 2), (0, 3)])
        assert g.nlf(0) == {1: 2, 2: 1}
        assert g.nlf(3) == {0: 1}

    def test_mnd(self):
        g = Graph([0, 0, 0, 0], [(0, 1), (1, 2), (1, 3)])
        assert g.mnd(0) == 3  # its only neighbor (1) has degree 3
        assert g.mnd(1) == 1
        isolated = Graph([0], [])
        assert isolated.mnd(0) == 0

    def test_repr_mentions_sizes(self, small_data):
        assert "|V|=10" in repr(small_data)


class TestStructure:
    def test_induced_subgraph(self, small_data):
        sub, kept = small_data.induced_subgraph([0, 1, 2, 5])
        assert kept == [0, 1, 2, 5]
        assert sub.num_vertices == 4
        # (0,1), (1,2), (0,2) survive; 5 is isolated within the subset
        assert sub.num_edges == 3
        assert sub.degree(3) == 0
        assert [sub.label(i) for i in range(4)] == [0, 1, 2, 2]

    def test_induced_subgraph_deduplicates(self, small_data):
        sub, kept = small_data.induced_subgraph([1, 1, 0])
        assert kept == [0, 1]
        assert sub.num_edges == 1

    def test_connectivity(self):
        connected = Graph([0, 0, 0], [(0, 1), (1, 2)])
        assert connected.is_connected()
        disconnected = Graph([0, 0, 0], [(0, 1)])
        assert not disconnected.is_connected()

    def test_connected_components(self):
        g = Graph([0] * 5, [(0, 1), (2, 3)])
        assert g.connected_components() == [[0, 1], [2, 3], [4]]

    def test_bfs_tree_levels(self):
        # path 0-1-2-3 rooted at 0: levels 1,2,3,4
        g = Graph([0] * 4, [(0, 1), (1, 2), (2, 3)])
        parent, level = g.bfs_tree(0)
        assert parent == [None, 0, 1, 2]
        assert level == [1, 2, 3, 4]

    def test_bfs_tree_unreachable(self):
        g = Graph([0, 0, 0], [(0, 1)])
        parent, level = g.bfs_tree(0)
        assert parent[2] == -1
        assert level[2] == 0

    def test_equality(self):
        a = Graph([0, 1], [(0, 1)])
        b = Graph([0, 1], [(0, 1)])
        c = Graph([0, 2], [(0, 1)])
        assert a == b
        assert a != c
        assert a != "not a graph"


def _derived_degree_index(graph, label):
    """The degree index derived from scratch: the label's vertices by
    ``(degree, id)`` and their degrees."""
    ranked = sorted(graph.vertices_with_label(label), key=lambda v: (graph.degree(v), v))
    return ranked, [graph.degree(v) for v in ranked]


def assert_degree_index_fresh(graph):
    labels = set(graph.labels)
    for label in labels | {max(labels, default=0) + 1}:
        vertices, degrees = graph.degree_index(label)
        assert (list(vertices), list(degrees)) == _derived_degree_index(graph, label)


class TestDegreeIndex:
    def test_orders_by_degree_then_id(self):
        g = Graph([0, 0, 0, 1, 0], [(0, 3), (1, 3), (1, 4), (2, 1)])
        assert g.degree_index(0) == ([0, 2, 4, 1], [1, 1, 1, 3])
        assert g.degree_index(1) == ([3], [2])
        assert g.degree_index(7) == ([], [])

    def test_static_graph(self, small_data):
        assert_degree_index_fresh(small_data)
        for seed in range(3):
            assert_degree_index_fresh(generate_case(seed, 0).data)

    def test_entry_is_kept(self, small_data):
        assert small_data.degree_index(0) is small_data.degree_index(0)

    def test_csr_loaded_and_shared_graphs(self, tmp_path):
        data = generate_case(2, 1).data
        write_graph_csr(data, tmp_path / "g.csr")
        loaded = load_graph(tmp_path / "g.csr")
        assert isinstance(loaded, SharedGraph)
        assert_degree_index_fresh(loaded)
        with SharedGraphStore.create(data) as store:
            assert_degree_index_fresh(store.graph)
            for label in set(data.labels):
                assert store.graph.degree_index(label) == data.degree_index(label)


class TestHash:
    def test_equal_graphs_hash_equal(self):
        a = Graph([0, 1, 2], [(0, 1), (1, 2)])
        b = Graph([0, 1, 2], [(2, 1), (1, 0)])
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_csr_loaded_graph_hashes_like_its_twin(self, tmp_path):
        data = generate_case(1, 0).data
        write_graph_csr(data, tmp_path / "g.csr")
        loaded = load_graph(tmp_path / "g.csr")
        assert loaded == data
        assert hash(loaded) == hash(data)
        with SharedGraphStore.create(data) as store:
            assert hash(store.graph) == hash(data)

    def test_dynamic_graph_is_unhashable(self):
        dynamic = DynamicGraph([0, 1], [(0, 1)])
        with pytest.raises(TypeError):
            hash(dynamic)
        with pytest.raises(TypeError):
            {dynamic}
