"""Tests for graph generators."""

import hashlib
import random
import sys

import networkx as nx
import pytest

from repro.graphs import _wavekernel, generators
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
from repro.obs import telemetry


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

    def test_missing_networkx_fallback_is_a_graph_error(self, monkeypatch):
        # A None entry in sys.modules makes ``import networkx`` raise, so
        # max_attempts=0 reaches a fallback that cannot load.
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(GraphError, match="networkx"):
            k_regular_graph(10, 3, seed=10, max_attempts=0)


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
    """``k_regular_graph`` against the Python attempt loop, its oracle."""

    def test_oracle_cases_include_failed_attempts(self):
        failed = sum(
            generators._try_pairing_model(n, k, random.Random(seed)) is None
            for n, k in _PAIRING_CASES
            for seed in range(40)
        )
        assert failed > 0

    def test_matches_oracle_across_restarts(self):
        # k_regular_graph retries from the same rng, so the whole stream of
        # attempts (and what a caller draws afterwards) must match too.
        oracle_rng = random.Random(7)
        expected = None
        while expected is None:
            expected = generators._try_pairing_model(2000, 5, oracle_rng)
        rng = random.Random(7)
        graph = k_regular_graph(2000, 5, rng=rng)
        assert _fingerprint(graph) == _fingerprint(expected)
        assert rng.random() == oracle_rng.random()


@pytest.fixture(scope="module")
def pairing_kernel():
    """The compiled pairing model; skips where no C compiler builds it."""
    kernel = _wavekernel.load_pairing()
    if kernel is None:
        pytest.skip("no working C compiler")
    return kernel


def _python_attempts(n, k, rng, attempts):
    """``k_regular_graph``'s attempt loop on the Python pairing model."""
    for _ in range(attempts):
        graph = generators._try_pairing_model(n, k, rng)
        if graph is not None:
            return graph
    return None


def _generate(n, k, seed, **kwargs):
    """``k_regular_graph`` plus the pairing gauge and the rng state after."""
    rng = kwargs.pop("rng", None) or random.Random(seed)
    with telemetry.collecting() as collector:
        graph = k_regular_graph(n, k, rng=rng, **kwargs)
    gauge = collector.snapshot()["gauges"].get("generators.pairing")
    return _fingerprint(graph), rng.getstate(), gauge


def _python_generate(monkeypatch, n, k, seed, **kwargs):
    """:func:`_generate` with the compiled pairing model switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(generators, "_pairing_kernel", lambda *args: None)
        return _generate(n, k, seed, **kwargs)


class TestCompiledPairingModel:
    """The C pairing model against the Python one it replays.

    Both must build the same graph -- per-node adjacency in insertion
    order and ``mutation_stamp`` -- and leave the rng in the same state,
    including after attempts that got stuck.
    """

    @pytest.mark.parametrize("n,k", _PAIRING_CASES)
    def test_matches_python_attempts_with_restarts(self, pairing_kernel, n, k):
        # Three attempts: some seeds succeed at once, some after a stuck
        # attempt, and some get stuck three times.
        for seed in range(40):
            python_rng, rng = random.Random(seed), random.Random(seed)
            expected = _python_attempts(n, k, python_rng, 3)
            graph = generators._compiled_pairing_model(pairing_kernel, n, k, rng, 3)
            assert _fingerprint(graph) == _fingerprint(expected), seed
            assert rng.getstate() == python_rng.getstate(), seed

    def test_full_size_fingerprint(self, pairing_kernel, monkeypatch):
        compiled = _generate(20000, 8, 11)
        python = _python_generate(monkeypatch, 20000, 8, 11)
        assert compiled[2] == "compiled" and python[2] == "python"
        assert compiled[:2] == python[:2]
        # Pinned to the graph the Python pairing model has always built.
        adjacency, stamp = compiled[0]
        digest = hashlib.sha256(repr(adjacency).encode()).hexdigest()
        assert stamp == 20000 + 20000 * 8 // 2
        assert digest[:16] == "23dfe952ba56aac3"

    def test_neighbors_are_the_node_key_objects(self, pairing_kernel):
        # Above 256 ints are not interned, so this pins one int object per
        # node: neighbour sets share the keys rather than copies of them.
        graph = k_regular_graph(700, 6, seed=2)
        keys = {node: node for node in graph}
        for node in graph:
            for neighbor in graph._adjacency[node]:
                assert neighbor is keys[neighbor]

    @pytest.mark.parametrize("attempts", [0, 1])
    def test_networkx_fallback_sees_the_same_rng(self, pairing_kernel, monkeypatch, attempts):
        # Seed 3 at 10/3 gets stuck on its first attempt, so both settings
        # reach networkx, which seeds itself from the rng.
        assert _python_attempts(10, 3, random.Random(3), 1) is None
        compiled = _generate(10, 3, 3, max_attempts=attempts)
        python = _python_generate(monkeypatch, 10, 3, 3, max_attempts=attempts)
        assert compiled[2] == "compiled"
        assert compiled[:2] == python[:2]
        adjacency, _ = compiled[0]
        assert all(len(row) == 3 for row in adjacency)


class TestPairingFallbacks:
    """Where the compiled model cannot replay the rng, Python runs, same output."""

    def test_no_compiler(self, monkeypatch, tmp_path):
        expected = _python_generate(monkeypatch, 300, 6, 5)
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        _wavekernel.reset()
        try:
            assert _wavekernel.load_pairing() is None
            assert _generate(300, 6, 5) == expected
        finally:
            monkeypatch.undo()
            _wavekernel.reset()

    def test_random_subclass(self, monkeypatch):
        class Recorded(random.Random):
            pass

        expected = _python_generate(monkeypatch, 300, 6, 5)
        fingerprint, state, gauge = _generate(300, 6, 5, rng=Recorded(5))
        assert (fingerprint, state, gauge) == expected

    def test_stub_count_guard(self, monkeypatch):
        expected = _python_generate(monkeypatch, 300, 6, 5)
        monkeypatch.setattr(generators, "COMPILED_STUB_LIMIT", 300 * 6)
        assert _generate(300, 6, 5) == expected
        monkeypatch.setattr(generators, "COMPILED_STUB_LIMIT", 300 * 6 + 1)
        assert _generate(300, 6, 5)[:2] == expected[:2]

    def test_gauge_names_the_engine(self, monkeypatch):
        compiled = _wavekernel.load_pairing() is not None
        assert _generate(60, 4, 1)[2] == ("compiled" if compiled else "python")
        assert _python_generate(monkeypatch, 60, 4, 1)[2] == "python"
        # Off by default: no collector, no gauge, same graph.
        assert _fingerprint(k_regular_graph(60, 4, seed=1)) == _generate(60, 4, 1)[0]

    def test_run_report_names_the_engine(self):
        from repro.obs.report import render_report
        from repro.runner.executor import run_scenario

        with telemetry.collecting() as collector:
            run_scenario("soap-campaign", params={"n": 60, "k": 4})
        compiled = _wavekernel.load_pairing() is not None
        gauges = render_report(collector)["gauges"]
        assert gauges["generators.pairing"] == ("compiled" if compiled else "python")


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
