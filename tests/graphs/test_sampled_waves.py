"""Waves over source subsets: compiled == numpy == reference.

:func:`repro.graphs.fast.accumulate_path_shard` over a subset of the nodes
-- what one shard of a sharded campaign and every single-source metric run
-- must fold exactly the per-node ``(ecc, totals)`` that pure-Python BFS
from those sources gives, on either wave engine (the compiled kernel when
:mod:`repro.graphs._wavekernel` loads it, else the plain dense numpy wave),
on the zoo below and at source counts on both sides of every frontier-word
and wave-chunk boundary.  Duplicate sources count once per occurrence.
The single-source metrics, which run one-source waves, are pinned on both
engines here too.
"""

from __future__ import annotations

import functools
import random

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import _wavekernel, fast, metrics
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import ring_graph
from repro.obs import telemetry

from tests.graphs.test_wave_engine import assert_same, reference, source_indices

#: Sources per call: one word, either side of the one/two-word boundary,
#: one full default wave and either side of the wave-chunk boundary.
BATCH_SIZES = (1, 63, 64, 65, 128, 130)


def _path(n: int, offset: int = 0):
    return [(offset + i, offset + i + 1) for i in range(n - 1)]


def _ring(n: int, offset: int = 0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


#: Every largest component holds more than ``max(BATCH_SIZES)`` nodes, so
#: each batch size is a proper subset there.
ZOO = {
    "ring": ring_graph(180),
    "path": UndirectedGraph(edges=_path(150)),
    "hub": UndirectedGraph(edges=[(0, leaf) for leaf in range(1, 140)]),
    "disconnected": UndirectedGraph(
        edges=_ring(150) + _ring(60, offset=200) + _path(20, offset=300)
    ),
    "isolated": UndirectedGraph(nodes=range(170), edges=_ring(140)),
}


@pytest.fixture(params=["compiled", "numpy"])
def engine(request, monkeypatch):
    """Pin the wave engine; the compiled one skips without a C compiler."""
    if request.param == "compiled":
        kernel = _wavekernel.load()
        if kernel is None:
            pytest.skip("no working C compiler")
    else:
        kernel = None
    monkeypatch.setattr(_wavekernel, "load", lambda: kernel)
    return request.param


def _duplicated_sources(graph: UndirectedGraph, batch: int):
    """``batch`` sources drawn with replacement: duplicates for ``batch > 1``."""
    nodes = graph.nodes()
    rng = random.Random(batch)
    sources = rng.choices(nodes, k=batch - 1) if batch > 1 else []
    return sources + [sources[0] if sources else nodes[0]]


@functools.lru_cache(maxsize=None)
def _reference(name: str, batch: int, duplicated: bool):
    """Source indices and pure-Python accumulators, computed once."""
    graph = ZOO[name]
    csr = fast.csr_of(graph)
    if duplicated:
        nodes = _duplicated_sources(graph, batch)
    else:
        nodes = random.Random(batch).sample(graph.nodes(), batch)
    sources = source_indices(csr, nodes)
    return sources, reference(graph, csr, sources)


@pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(ZOO))
def test_source_subsets_match_reference(engine, name, batch, duplicated):
    sources, expected = _reference(name, batch, duplicated)
    assert_same(fast.accumulate_path_shard(fast.csr_of(ZOO[name]), sources), expected)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_single_source_metrics_match_reference(engine, name):
    """Single-source distances, eccentricity and closeness are one-source
    waves; isolated sources included (the zoo's last nodes)."""
    graph = ZOO[name]
    nodes = graph.nodes()
    for node in nodes[::7] + nodes[-3:]:
        assert fast.shortest_path_lengths_from(graph, node) == (
            metrics.shortest_path_lengths_from(graph, node)
        )
        assert fast.eccentricity(graph, node) == metrics.eccentricity(graph, node)
        assert fast.closeness_centrality(graph, node) == (
            metrics.closeness_centrality(graph, node)
        )


def test_empty_source_set(engine):
    graph = ZOO["ring"]
    csr = fast.csr_of(graph)
    ecc, totals = fast.accumulate_path_shard(csr, np.empty(0, dtype=np.int64))
    assert ecc.shape == totals.shape == (csr.n,)
    assert not ecc.any() and not totals.any()


def test_source_subsets_name_their_engine(engine):
    csr = fast.csr_of(ZOO["ring"])
    with telemetry.collecting() as collector:
        fast.accumulate_path_shard(csr, np.arange(8, dtype=np.int64))
    snapshot = collector.snapshot()
    assert snapshot["gauges"]["wave.kernel"] == engine
    assert snapshot["counters"]["wave.levels"] == sum(
        count
        for name, count in snapshot["counters"].items()
        if name.startswith("wave.dispatch.")
    )
