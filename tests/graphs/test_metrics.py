"""Tests for graph metrics, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph, ring_graph, to_networkx
from repro.graphs.metrics import (
    average_degree_centrality,
    average_shortest_path_length,
    closeness_centrality,
    connected_components,
    degree_centrality,
    degree_histogram,
    diameter,
    eccentricity,
    largest_component_fraction,
    number_connected_components,
    shortest_path_lengths_from,
)


@pytest.fixture
def sample_graph() -> UndirectedGraph:
    """A small irregular graph with a known structure."""
    return UndirectedGraph(edges=[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (5, 6)])


class TestShortestPaths:
    def test_bfs_distances(self, sample_graph):
        distances = shortest_path_lengths_from(sample_graph, 0)
        assert distances[0] == 0
        assert distances[1] == 1
        assert distances[3] == 2
        assert distances[4] == 3
        assert 5 not in distances  # other component

    def test_missing_source_raises(self, sample_graph):
        with pytest.raises(Exception):
            shortest_path_lengths_from(sample_graph, 99)

    def test_eccentricity(self, sample_graph):
        assert eccentricity(sample_graph, 0) == 3


class TestCentralityAgainstNetworkx:
    def test_closeness_matches_networkx(self):
        graph = k_regular_graph(60, 4, seed=11)
        nx_graph = to_networkx(graph)
        nx_closeness = nx.closeness_centrality(nx_graph)
        for node in list(graph.nodes())[:10]:
            assert closeness_centrality(graph, node) == pytest.approx(nx_closeness[node])

    def test_closeness_matches_networkx_on_disconnected_graph(self, sample_graph):
        nx_graph = to_networkx(sample_graph)
        nx_closeness = nx.closeness_centrality(nx_graph)
        for node in sample_graph.nodes():
            assert closeness_centrality(sample_graph, node) == pytest.approx(nx_closeness[node])

    def test_degree_centrality_matches_networkx(self, sample_graph):
        nx_values = nx.degree_centrality(to_networkx(sample_graph))
        for node in sample_graph.nodes():
            assert degree_centrality(sample_graph, node) == pytest.approx(nx_values[node])

    def test_average_degree_centrality(self):
        graph = k_regular_graph(50, 6, seed=2)
        assert average_degree_centrality(graph) == pytest.approx(6 / 49)

    def test_single_node_graph_centralities_are_zero(self):
        graph = UndirectedGraph(nodes=[0])
        assert closeness_centrality(graph, 0) == 0.0
        assert degree_centrality(graph, 0) == 0.0
        assert average_degree_centrality(graph) == 0.0


class TestComponentsAndDiameter:
    def test_connected_components(self, sample_graph):
        components = connected_components(sample_graph)
        assert len(components) == 2
        assert {0, 1, 2, 3, 4} in components
        assert {5, 6} in components
        assert number_connected_components(sample_graph) == 2

    def test_largest_component_fraction(self, sample_graph):
        assert largest_component_fraction(sample_graph) == pytest.approx(5 / 7)

    def test_empty_graph_components(self):
        graph = UndirectedGraph()
        assert number_connected_components(graph) == 0
        assert largest_component_fraction(graph) == 0.0

    def test_diameter_of_ring(self):
        graph = ring_graph(10)
        assert diameter(graph) == 5.0

    def test_diameter_matches_networkx(self):
        graph = k_regular_graph(80, 4, seed=5)
        nx_diameter = nx.diameter(to_networkx(graph))
        assert diameter(graph) == float(nx_diameter)

    def test_diameter_partitioned_graph_uses_largest_component(self, sample_graph):
        assert diameter(sample_graph) == 3.0

    def test_diameter_partitioned_infinite_when_requested(self, sample_graph):
        assert diameter(sample_graph, largest_component_only=False) == float("inf")

    def test_diameter_empty_graph(self):
        assert diameter(UndirectedGraph()) == 0.0

    def test_average_shortest_path_length(self):
        graph = ring_graph(6)
        nx_value = nx.average_shortest_path_length(to_networkx(graph))
        assert average_shortest_path_length(graph) == pytest.approx(nx_value)

    def test_degree_histogram(self, sample_graph):
        histogram = degree_histogram(sample_graph)
        # Degrees: 0->1, 1->3, 2->2, 3->3, 4->1, 5->1, 6->1
        assert histogram == {1: 4, 2: 1, 3: 2}
