"""Every sampled estimator: compiled == numpy == reference.

The sampled diameter and average shortest path length read their answers
off the per-node accumulators of
:func:`repro.graphs.fast.accumulate_path_shard` for the sampled sources,
run on one wave engine: the compiled kernel when
:mod:`repro.graphs._wavekernel` loads it, else the plain dense numpy wave.
Sampled closeness sums single-source closeness values.  All of them must
return exactly what the pure-Python reference in :mod:`repro.graphs.metrics`
returns, on the step zoo below and at source counts on both sides of every
frontier-word and wave-chunk boundary.
"""

from __future__ import annotations

import functools
import random

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import _wavekernel, fast, metrics
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph, ring_graph
from repro.obs import telemetry

from tests.graphs.test_wave_engine import SAMPLED_GOLDEN_2500, assert_same, reference

#: Sources per call: one word, either side of the one/two-word boundary,
#: one full default wave and either side of the wave-chunk boundary.
BATCH_SIZES = (1, 63, 64, 65, 128, 130)


def _path(n: int, offset: int = 0):
    return [(offset + i, offset + i + 1) for i in range(n - 1)]


def _ring(n: int, offset: int = 0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


#: Every largest component holds more than ``max(BATCH_SIZES)`` nodes, so
#: each batch size is a true sample there.
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
def _reference(name: str, batch: int):
    """Pure-Python answers for one (graph, batch) pair, computed once."""
    graph = ZOO[name]
    csr = fast.csr_of(graph)
    sources = fast._batched_source_indices(csr, _duplicated_sources(graph, batch))
    return {
        "diameter": metrics.diameter(graph, sample_size=batch, rng=random.Random(1)),
        "aspl": metrics.average_shortest_path_length(
            graph, sample_size=batch, rng=random.Random(2)
        ),
        "closeness": metrics.average_closeness_centrality(
            graph, sample_size=batch, rng=random.Random(3)
        ),
        "sources": sources,
        "accumulators": reference(graph, csr, sources),
    }


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(ZOO))
def test_sampled_callers_match_reference(engine, name, batch):
    graph = ZOO[name]
    expected = _reference(name, batch)
    assert fast.diameter(graph, sample_size=batch, rng=random.Random(1)) == (
        expected["diameter"]
    )
    assert fast.average_shortest_path_length(
        graph, sample_size=batch, rng=random.Random(2)
    ) == expected["aspl"]
    # The per-node accumulators themselves, duplicate sources included.
    assert_same(
        fast.accumulate_path_shard(fast.csr_of(graph), expected["sources"]),
        expected["accumulators"],
    )


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(ZOO))
def test_sampled_closeness_matches_reference(name, batch):
    """Sampled closeness runs no wave, so one engine-free run covers it."""
    assert fast.average_closeness_centrality(
        ZOO[name], sample_size=batch, rng=random.Random(3)
    ) == _reference(name, batch)["closeness"]


def test_empty_source_set(engine):
    graph = ZOO["ring"]
    csr = fast.csr_of(graph)
    ecc, totals = fast.accumulate_path_shard(csr, np.empty(0, dtype=np.int64))
    assert ecc.shape == totals.shape == (csr.n,)
    assert not ecc.any() and not totals.any()
    assert fast.diameter(graph, sample_size=0) == metrics.diameter(graph, sample_size=0)
    assert fast.average_shortest_path_length(graph, sample_size=0) == (
        metrics.average_shortest_path_length(graph, sample_size=0)
    )


def test_sampled_golden_2500(engine):
    graph = k_regular_graph(2500, 10, seed=77)
    assert fast.average_closeness_centrality(
        graph, sample_size=96, rng=random.Random(5)
    ) == SAMPLED_GOLDEN_2500


def test_sampled_callers_name_their_engine(engine):
    graph = ZOO["ring"]
    with telemetry.collecting() as collector:
        fast.diameter(graph, sample_size=8, rng=random.Random(0))
    snapshot = collector.snapshot()
    assert snapshot["gauges"]["wave.kernel"] == engine
    assert snapshot["counters"]["wave.levels"] == sum(
        count
        for name, count in snapshot["counters"].items()
        if name.startswith("wave.dispatch.")
    )
