"""Tests for graph generators."""

import random

import networkx as nx
import pytest

from repro.graphs import generators
from repro.graphs.adjacency import GraphError, UndirectedGraph
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    from_networkx,
    k_regular_graph,
    relabel,
    ring_graph,
    to_networkx,
)
from repro.graphs.metrics import number_connected_components


class TestKRegular:
    def test_every_node_has_degree_k(self):
        graph = k_regular_graph(100, 6, seed=1)
        assert all(graph.degree(node) == 6 for node in graph.nodes())

    def test_paper_parameters_small_scale(self):
        for k in (5, 10, 15):
            graph = k_regular_graph(200, k, seed=k)
            assert graph.number_of_nodes() == 200
            assert all(graph.degree(node) == k for node in graph.nodes())

    def test_deterministic_for_seed(self):
        a = k_regular_graph(60, 4, seed=3)
        b = k_regular_graph(60, 4, seed=3)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))

    def test_odd_product_rejected(self):
        with pytest.raises(GraphError):
            k_regular_graph(5, 3)

    def test_k_must_be_less_than_n(self):
        with pytest.raises(GraphError):
            k_regular_graph(5, 5)

    def test_zero_degree_graph(self):
        graph = k_regular_graph(10, 0)
        assert graph.number_of_edges() == 0

    def test_usually_connected_at_k_ten(self):
        graph = k_regular_graph(300, 10, seed=5)
        assert number_connected_components(graph) == 1

    @pytest.mark.parametrize("n,k", [(10, 3), (30, 4), (61, 6), (200, 7)])
    def test_networkx_fallback_is_k_regular_and_seeded(self, n, k):
        # max_attempts=0 skips the pairing model and goes straight to the
        # networkx fallback.
        graph = k_regular_graph(n, k, seed=n, max_attempts=0)
        assert graph.nodes() == list(range(n))
        assert all(graph.degree(node) == k for node in graph.nodes())
        assert graph.number_of_edges() == n * k // 2
        again = k_regular_graph(n, k, seed=n, max_attempts=0)
        assert again.edges() == graph.edges()


def _list_pairing_model(n, k, rng):
    """The pairing model over a plain list: the oracle for ``_StubList``."""
    stubs = [node for node in range(n) for _ in range(k)]
    rng.shuffle(stubs)
    graph = UndirectedGraph(nodes=range(n))
    while stubs:
        u = stubs.pop()
        placed = False
        for attempt in range(len(stubs)):
            index = rng.randrange(len(stubs))
            v = stubs[index]
            if v != u and not graph.has_edge(u, v):
                stubs.pop(index)
                graph.add_edge(u, v)
                placed = True
                break
        if not placed:
            return None
    if any(graph.degree(node) != k for node in range(n)):
        return None
    return graph


def _fingerprint(graph):
    """Per-node adjacency in iteration (insertion) order plus the stamp."""
    if graph is None:
        return None
    return [list(graph._adjacency[node]) for node in graph], graph.mutation_stamp


_PAIRING_CASES = [
    (n, k)
    for n in (6, 8, 10, 12, 30, 61, 200)
    for k in range(1, 8)
    if k < n and n * k % 2 == 0
]


class TestPairingModelOracle:
    """``_try_pairing_model`` against the plain-list algorithm it replaced."""

    @pytest.mark.parametrize("n,k", _PAIRING_CASES)
    def test_matches_plain_list_oracle(self, monkeypatch, n, k):
        # Four stubs per block, so even these small graphs span many blocks.
        monkeypatch.setattr(generators, "STUB_BLOCK", 4)
        for seed in range(40):
            oracle_rng, rng = random.Random(seed), random.Random(seed)
            expected = _list_pairing_model(n, k, oracle_rng)
            graph = generators._try_pairing_model(n, k, rng)
            assert (graph is None) == (expected is None), seed
            assert _fingerprint(graph) == _fingerprint(expected), seed
            assert rng.getstate() == oracle_rng.getstate(), seed

    def test_oracle_cases_include_failed_attempts(self):
        failed = sum(
            _list_pairing_model(n, k, random.Random(seed)) is None
            for n, k in _PAIRING_CASES
            for seed in range(40)
        )
        assert failed > 0

    def test_matches_oracle_at_default_block_across_restarts(self):
        # k_regular_graph retries from the same rng, so the whole stream of
        # attempts (and what a caller draws afterwards) must match too.
        oracle_rng = random.Random(7)
        expected = None
        while expected is None:
            expected = _list_pairing_model(2000, 5, oracle_rng)
        rng = random.Random(7)
        graph = k_regular_graph(2000, 5, rng=rng)
        assert _fingerprint(graph) == _fingerprint(expected)
        assert rng.random() == oracle_rng.random()


class TestOtherGenerators:
    def test_erdos_renyi_edge_count_reasonable(self):
        graph = erdos_renyi_graph(100, 0.1, seed=1)
        expected = 0.1 * 100 * 99 / 2
        assert 0.5 * expected < graph.number_of_edges() < 1.5 * expected

    def test_erdos_renyi_p_bounds(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(10, 1.5)

    def test_barabasi_albert_min_degree(self):
        graph = barabasi_albert_graph(100, 3, seed=2)
        assert graph.number_of_nodes() == 100
        assert all(graph.degree(node) >= 3 for node in graph.nodes() if node > 3)

    def test_barabasi_albert_invalid_m(self):
        with pytest.raises(GraphError):
            barabasi_albert_graph(10, 0)

    def test_ring_graph(self):
        graph = ring_graph(5)
        assert graph.number_of_edges() == 5
        assert all(graph.degree(node) == 2 for node in graph.nodes())

    def test_ring_too_small(self):
        with pytest.raises(GraphError):
            ring_graph(2)


class TestNetworkxConversion:
    def test_roundtrip_preserves_structure(self):
        graph = k_regular_graph(50, 4, seed=7)
        back = from_networkx(to_networkx(graph))
        assert back.number_of_nodes() == graph.number_of_nodes()
        assert back.number_of_edges() == graph.number_of_edges()

    def test_from_networkx_drops_self_loops(self):
        nx_graph = nx.Graph()
        nx_graph.add_edge(1, 1)
        nx_graph.add_edge(1, 2)
        graph = from_networkx(nx_graph)
        assert graph.number_of_edges() == 1

    def test_relabel(self):
        graph = ring_graph(3)
        mapped = relabel(graph, {0: "a", 1: "b", 2: "c"})
        assert set(mapped.nodes()) == {"a", "b", "c"}
        assert mapped.has_edge("a", "b")
