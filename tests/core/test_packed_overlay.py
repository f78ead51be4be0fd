"""Packed graphs: the compiled engines' CSR as the graph's only copy.

With numpy >= 2.0 and the compiled library, ``k_regular_graph`` returns a
packed ``UndirectedGraph`` (``UndirectedGraph.packed``): no adjacency set
exists until a caller uses the set API, and ``DDSROverlay.remove_nodes``
keeps it packed by turning ``ddsr.c``'s rows into the next CSR.  The
contract axis pinned here is packed == materialized:

* a fresh packed graph materializes into exactly the sets
  ``UndirectedGraph.from_neighbor_rows`` builds (same iteration order, same
  table sizes, same stamp), which is what the SOAP rows depend on;
* the reads that do not need sets leave the graph packed, and any set API
  materializes it once;
* a ``resilience-at-scale`` run never materializes;
* packed holds a fraction of the bytes of the same run on sets.

``tests/core/test_adjacency_order.py`` runs every DDSR-family scenario
packed and materialized, and ``test_ddsr_compiled.py`` compares packed
removals with the Python loop.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.core.ddsr import DDSROverlay
from repro.graphs import _wavekernel, backend
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph
from repro.obs import telemetry
from repro.runner.registry import get_scenario


@pytest.fixture(autouse=True)
def packing():
    """Skip unless graphs are packed here (numpy >= 2.0 and the library)."""
    if not backend.fast_available() or _wavekernel.load_pairing() is None:
        pytest.skip("no numpy >= 2.0 or no working C compiler")


def _rows(graph):
    """The packed graph's neighbour rows, as label lists."""
    csr = graph._packed
    labels = csr.nodes
    return [
        [labels[j] for j in csr.indices[csr.indptr[i]:csr.indptr[i + 1]].tolist()]
        for i in range(csr.n)
    ]


@pytest.mark.parametrize("n,k,seed", [(50, 4, 0), (1000, 8, 3), (3000, 10, 9)])
def test_fresh_packed_graph_materializes_like_from_neighbor_rows(n, k, seed):
    graph = k_regular_graph(n, k, seed=seed)
    assert graph._packed is not None
    nodes = graph.nodes()
    expected = UndirectedGraph.from_neighbor_rows(nodes, _rows(graph))
    stamp = graph.mutation_stamp
    with telemetry.collecting() as collector:
        adjacency = graph._adjacency
    assert collector.snapshot()["counters"]["graph.materialize"] == 1
    assert graph._packed is None
    assert graph.mutation_stamp == stamp == expected.mutation_stamp
    assert list(adjacency) == list(expected._adjacency) == nodes
    for node, peers in expected._adjacency.items():
        assert list(adjacency[node]) == list(peers)
        assert sys.getsizeof(adjacency[node]) == sys.getsizeof(peers)
        # Peers are the label objects themselves, as from_neighbor_rows keeps them.
        assert all(peer is nodes[peer] for peer in adjacency[node])
    # No CSR cache is seeded: the next measurement builds from the sets.
    from repro.graphs import fast

    assert fast.cached_csr(graph) is None


def test_reads_stay_packed_and_the_set_api_materializes_once():
    graph = k_regular_graph(200, 6, seed=1)
    with telemetry.collecting() as collector:
        assert len(graph) == graph.number_of_nodes() == 200
        assert graph.nodes() == list(graph) == list(range(200))
        assert graph.number_of_edges() == 600
        assert graph.max_degree() == 6
        stamp = graph.mutation_stamp
        assert graph._packed is not None
        assert len(graph.neighbors(7)) == 6
        assert graph._packed is None
        assert 7 in graph and graph.degree(7) == 6
        assert graph.mutation_stamp == stamp
    assert collector.snapshot()["counters"]["graph.materialize"] == 1


@pytest.mark.parametrize(
    "use",
    [
        lambda graph: graph.add_edge(0, "new"),
        lambda graph: graph.subgraph(range(10)),
        lambda graph: graph.copy(),
        lambda graph: graph.edges(),
        lambda graph: 3 in graph,
    ],
    ids=["add_edge", "subgraph", "copy", "edges", "contains"],
)
def test_set_api_materializes(use):
    graph = k_regular_graph(100, 4, seed=2)
    expected = UndirectedGraph.from_neighbor_rows(graph.nodes(), _rows(graph))
    use(graph)
    assert graph._packed is None
    for node, peers in expected._adjacency.items():
        assert graph._adjacency[node] >= peers


def test_resilience_at_scale_never_materializes(monkeypatch):
    """The scenario's graph stays packed: no set built, no CSR built; its
    row equals the one of the same run on sets."""
    params = {"n": 2000, "k": 8, "max_fraction": 0.2, "checkpoints": 4}
    with telemetry.collecting() as collector:
        packed = get_scenario("resilience-at-scale").call(seed=4, **params)
    snapshot = collector.snapshot()
    assert "graph.materialize" not in snapshot["counters"]
    assert "csr.cache.build" not in snapshot["counters"]
    assert snapshot["gauges"]["ddsr.engine"] == "packed"
    k_regular = DDSROverlay.k_regular.__func__

    def materialized(cls, *args, **kwargs):
        overlay = k_regular(cls, *args, **kwargs)
        overlay.graph._adjacency
        return overlay

    monkeypatch.setattr(DDSROverlay, "k_regular", classmethod(materialized))
    with telemetry.collecting() as collector:
        on_sets = get_scenario("resilience-at-scale").call(seed=4, **params)
    assert collector.snapshot()["gauges"]["ddsr.engine"] == "compiled"
    assert packed == on_sets


def test_disconnected_packed_graph_measures_its_largest_component_packed():
    """The working component of a split packed graph is a packed subgraph."""
    from repro.graphs import fast, metrics

    def split():
        rows = [[1, 2], [0, 2], [0, 1], [4], [3, 5], [4], []]
        graph = UndirectedGraph.from_neighbor_rows(list(range(7)), rows)
        csr = fast.build_csr(graph)
        return UndirectedGraph.packed(csr, graph.mutation_stamp), graph

    packed, graph = split()
    with telemetry.collecting() as collector:
        summary = fast.full_path_metrics(packed)
    assert "graph.materialize" not in collector.snapshot()["counters"]
    assert packed._packed is not None
    assert summary == metrics.full_path_metrics(graph)
    sub, count = fast._working_component(packed)
    assert count == 3 and sub._packed is not None
    assert sub.nodes() == [0, 1, 2] and sub.mutation_stamp == 6
    assert {node: sorted(peers) for node, peers in sub._adjacency.items()} == {
        0: [1, 2], 1: [0, 2], 2: [0, 1]
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_packed_graphs_match_the_reference(seed):
    """Sparse random graphs (several components, interleaved labels): the
    packed working component gives the reference's path metrics."""
    from repro.graphs import fast, metrics
    from repro.graphs.generators import erdos_renyi_graph

    graph = erdos_renyi_graph(300, 0.006, seed=seed)
    packed = UndirectedGraph.packed(fast.build_csr(graph), graph.mutation_stamp)
    assert fast.component_summary(packed)[0] > 1
    assert fast.full_path_metrics(packed) == metrics.full_path_metrics(graph)
    assert packed._packed is not None


def _held_bytes(materialize):
    """Traced bytes a 5k/8 overlay holds after two batches and a measurement."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        overlay = DDSROverlay.k_regular(5000, 8, seed=7)
        if materialize:
            overlay.graph._adjacency
        victims = overlay.nodes()[::20]
        for batch in (victims[:120], victims[120:]):
            overlay.path_metric_summary()
            overlay.remove_nodes(batch)
        summary = overlay.path_metric_summary()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert (overlay.graph._packed is None) == materialize
    return held, summary


def test_packed_overlay_holds_a_fraction_of_the_set_overlay():
    """Memory regression test with no RSS in it.

    The same 5k/8 overlay, two removal batches and an exact measurement,
    packed and materialized (sets plus the CSR mirror the measurement
    leaves): tracemalloc's bytes still held at the end.  Measured when
    packing landed (CPython 3.11, numpy 2.4): 0.44-0.58 MB packed against
    4.3 MB on sets, a ratio of 0.10-0.13, so under a quarter leaves room
    for allocator and version drift while still failing if the sets come
    back.
    """
    packed, packed_summary = _held_bytes(materialize=False)
    materialized, summary = _held_bytes(materialize=True)
    assert packed_summary == summary
    assert packed < materialized / 4, (packed, materialized)
