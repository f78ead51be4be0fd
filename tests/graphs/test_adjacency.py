"""Tests for the mutable undirected graph with NoN queries."""

import pytest

from repro.graphs.adjacency import GraphError, UndirectedGraph


class TestBasicStructure:
    def test_add_nodes_and_edges(self):
        graph = UndirectedGraph()
        assert graph.add_edge(1, 2) is True
        assert graph.add_edge(2, 3) is True
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2

    def test_duplicate_edge_collapses(self):
        graph = UndirectedGraph()
        assert graph.add_edge(1, 2) is True
        assert graph.add_edge(2, 1) is False
        assert graph.number_of_edges() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            UndirectedGraph().add_edge(1, 1)

    def test_edge_is_symmetric(self):
        graph = UndirectedGraph(edges=[(1, 2)])
        assert graph.has_edge(1, 2)
        assert graph.has_edge(2, 1)

    def test_remove_edge(self):
        graph = UndirectedGraph(edges=[(1, 2), (2, 3)])
        assert graph.remove_edge(1, 2) is True
        assert graph.remove_edge(1, 2) is False
        assert not graph.has_edge(2, 1)
        assert graph.number_of_edges() == 1

    def test_remove_node_returns_former_neighbors(self):
        graph = UndirectedGraph(edges=[(0, 1), (0, 2), (0, 3), (1, 2)])
        neighbors = graph.remove_node(0)
        assert set(neighbors) == {1, 2, 3}
        assert 0 not in graph
        assert graph.has_edge(1, 2)

    def test_remove_missing_node_raises(self):
        with pytest.raises(GraphError):
            UndirectedGraph().remove_node("nope")

    def test_constructor_with_nodes_and_edges(self):
        graph = UndirectedGraph(nodes=[1, 2, 3, 4], edges=[(1, 2)])
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 1


class TestQueries:
    def test_degree_and_degrees(self):
        graph = UndirectedGraph(edges=[(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1
        assert graph.degrees() == {0: 3, 1: 1, 2: 1, 3: 1}

    def test_degree_of_missing_node_raises(self):
        with pytest.raises(GraphError):
            UndirectedGraph().degree(0)

    def test_max_degree(self):
        graph = UndirectedGraph(edges=[(0, 1), (0, 2)])
        assert graph.max_degree() == 2
        assert UndirectedGraph().max_degree() == 0

    def test_neighbors_returns_copy(self):
        graph = UndirectedGraph(edges=[(0, 1)])
        neighbors = graph.neighbors(0)
        neighbors.add(99)
        assert 99 not in graph.neighbors(0)

    def test_neighbors_of_neighbors_excludes_self_and_direct_peers(self):
        # 0 - 1 - 2 - 3 chain plus 0 - 4
        graph = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (0, 4)])
        non = graph.neighbors_of_neighbors(0)
        assert non == {2}
        assert 0 not in non
        assert 1 not in non and 4 not in non

    def test_common_neighbors(self):
        graph = UndirectedGraph(edges=[(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)])
        assert graph.common_neighbors(0, 1) == {2, 3}

    def test_edges_listed_once(self):
        graph = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 0)])
        assert len(graph.edges()) == 3

    def test_adjacency_view_is_frozen(self):
        graph = UndirectedGraph(edges=[(0, 1)])
        view = graph.adjacency_view(0)
        assert view == frozenset({1})
        with pytest.raises(AttributeError):
            view.add(2)  # type: ignore[attr-defined]


class TestCopyAndSubgraph:
    def test_copy_is_independent(self):
        graph = UndirectedGraph(edges=[(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert 2 not in graph
        assert graph.number_of_edges() == 1

    def test_subgraph_induces_edges(self):
        graph = UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = graph.subgraph([0, 1, 2])
        assert sub.number_of_nodes() == 3
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)
        assert not sub.has_edge(3, 0)

    def test_subgraph_with_unknown_nodes_ignores_them(self):
        graph = UndirectedGraph(edges=[(0, 1)])
        sub = graph.subgraph([0, 1, 99])
        assert 99 not in sub

    def test_iteration_yields_nodes(self):
        graph = UndirectedGraph(nodes=[3, 1, 2])
        assert set(iter(graph)) == {1, 2, 3}

