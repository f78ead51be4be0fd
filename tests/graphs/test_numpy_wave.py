"""The plain numpy wave must stay bit-identical to the pure-Python reference.

Every multi-source BFS wave runs on the compiled kernel whenever a C
compiler builds it, so on such machines the numpy wave
(:func:`repro.graphs.fast._dense_wave`, the no-compiler fallback) would go
untested.  These tests pin the loader to "no kernel" and assert that the
numpy wave -- the full matrix of topologies and exact metrics, source
subsets, multi-word waves, the full-population goldens and a ring's sparse
frontier -- matches the reference exactly.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import _wavekernel, fast, metrics
from repro.graphs.generators import k_regular_graph, ring_graph
from repro.obs import telemetry

from tests.graphs.test_wave_engine import STEP_ZOO, assert_waves_match_reference


@pytest.fixture
def numpy_wave(monkeypatch):
    """Run every wave of one test on the numpy engine."""
    monkeypatch.setattr(_wavekernel, "load", lambda: None)


def test_numpy_wave_fixture_routes_waves_to_numpy(numpy_wave):
    """The differentials below test the numpy wave, not the kernel."""
    graph = k_regular_graph(200, 4, seed=5)
    with telemetry.collecting() as collector:
        assert fast.full_path_metrics(graph) == metrics.full_path_metrics(graph)
    gauges = collector.snapshot()["gauges"]
    assert gauges["wave.kernel"] == "numpy"
    assert gauges["wave.popcount_backend"] == "native"


def _packed_levels():
    """Packed frontier levels, ``(rows, words)`` uint64, by bit pattern."""
    rng = np.random.default_rng(17)
    single = np.zeros((64, 2), dtype=np.uint64)
    for bit in range(64):
        single[bit, bit % 2] = np.uint64(1) << np.uint64(bit)
    return {
        "zeros": np.zeros((5, 3), dtype=np.uint64),
        "all-ones": np.full((4, 2), np.iinfo(np.uint64).max, dtype=np.uint64),
        "single-bits": single,
        "alternating": np.full((3, 4), 0xAAAAAAAAAAAAAAAA, dtype=np.uint64),
        "random": rng.integers(
            0, np.iinfo(np.uint64).max, size=(40, 5), dtype=np.uint64,
            endpoint=True,
        ),
    }


LEVELS = _packed_levels()


@pytest.mark.parametrize("pattern", sorted(LEVELS))
def test_row_popcounts_match_python_bit_counts(pattern):
    """The numpy wave's per-node accumulation counts each row's set bits."""
    words = LEVELS[pattern]
    counts = fast._row_popcounts(words)
    assert counts.dtype == np.int64
    assert counts.tolist() == [
        sum(bin(int(word)).count("1") for word in row) for row in words
    ]


def test_configure_popcount_reports_the_native_kernel():
    """Machine fingerprints still read the popcount kernel's name."""
    assert fast.configure_popcount() == "native"
    assert fast._row_popcounts(LEVELS["all-ones"]).tolist() == [128] * 4


@pytest.mark.parametrize("name,graph", STEP_ZOO, ids=[n for n, _ in STEP_ZOO])
@pytest.mark.parametrize("width", [64, "auto"])
def test_numpy_wave_matrix_bit_identical(numpy_wave, wave_width, name, graph, width):
    """The full wave-engine matrix on the numpy wave: exact parity, on
    one-word waves and on the default multi-word width."""
    with nullcontext() if width == "auto" else wave_width(width):
        assert_waves_match_reference(graph, random.Random(1).sample(graph.nodes(), 12))
        assert fast.diameter(graph) == metrics.diameter(graph)
        assert fast.average_closeness_centrality(graph) == (
            metrics.average_closeness_centrality(graph)
        )
        assert fast.average_shortest_path_length(graph) == (
            metrics.average_shortest_path_length(graph)
        )
        assert fast.full_path_metrics(graph) == metrics.full_path_metrics(graph)


def test_numpy_multiword_wave_identical(numpy_wave, wave_width):
    graph = k_regular_graph(300, 6, seed=31)
    with wave_width(512):
        assert_waves_match_reference(graph)


def test_numpy_full_population_goldens(numpy_wave):
    from tests.graphs.test_wave_engine import (
        FULL_PATH_GOLDEN_800,
        FULL_POPULATION_GOLDEN_800,
    )

    graph = k_regular_graph(800, 6, seed=11)
    assert fast.average_closeness_centrality(graph) == FULL_POPULATION_GOLDEN_800
    assert fast.full_path_metrics(graph) == FULL_PATH_GOLDEN_800


def test_numpy_ring_sparse_frontier_identical(numpy_wave):
    graph = ring_graph(240)
    assert_waves_match_reference(graph, random.Random(3).sample(graph.nodes(), 8))
    assert fast.eccentricity(graph, 0) == metrics.eccentricity(graph, 0)
