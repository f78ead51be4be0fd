"""The LUT popcount fallback must be bit-identical to the native path.

``repro.graphs.fast`` counts per-row frontier bits with ``np.bitwise_count``
when numpy >= 2.0 provides it, and with a byte-lookup-table fold otherwise.
The fallback used to be exercised only on numpy < 1.26 installs; these tests
(and a CI step running the graphs suite under ``REPRO_FORCE_POPCOUNT_LUT=1``)
force-select it on any numpy and assert that every wave-engine result -- the
full matrix of topologies and estimators -- matches the native path and the
pure-Python reference exactly.  The compiled kernel counts with the
compiler's builtin instead, so these tests pin the numpy wave.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.errors import ConfigError
from repro.graphs import _wavekernel, backend, fast, metrics
from repro.graphs.generators import k_regular_graph, ring_graph

from tests.graphs.test_wave_engine import STEP_ZOO


@pytest.fixture
def forced_lut(monkeypatch):
    """Force the LUT popcount path and the numpy wave for one test.

    Teardown first undoes the monkeypatch (restoring whatever the *ambient*
    environment says -- the LUT CI job keeps the flag set for the whole run)
    and only then re-selects, so the rest of the session stays on the
    environment-configured path.
    """
    monkeypatch.setenv(fast.POPCOUNT_LUT_ENV_VAR, "1")
    monkeypatch.setattr(_wavekernel, "load", lambda: None)
    assert fast.configure_popcount() == "lut"
    yield
    monkeypatch.undo()
    fast.configure_popcount()


def test_native_path_selected_by_default(monkeypatch):
    """With the flag unset, the native kernel wins whenever numpy has one.

    (The CI job that runs this suite under ``REPRO_FORCE_POPCOUNT_LUT=1``
    still exercises the *unset* branch here -- the monkeypatch clears it.)
    """
    monkeypatch.delenv(fast.POPCOUNT_LUT_ENV_VAR, raising=False)
    try:
        if hasattr(np, "bitwise_count"):
            assert fast.configure_popcount() == "native"
            assert fast._row_popcounts is fast._row_popcounts_native
        else:  # pragma: no cover - numpy < 2.0
            assert fast.configure_popcount() == "lut"
    finally:
        monkeypatch.undo()
        fast.configure_popcount()


@pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
def test_truthy_env_values_force_lut(monkeypatch, value):
    monkeypatch.setenv(fast.POPCOUNT_LUT_ENV_VAR, value)
    try:
        assert fast.configure_popcount() == "lut"
        assert fast._row_popcounts is fast._row_popcounts_lut
    finally:
        monkeypatch.undo()
        fast.configure_popcount()


@pytest.mark.parametrize("value", ["2", "lut", "native", "tru"])
def test_invalid_env_value_raises_config_error(monkeypatch, value):
    monkeypatch.setenv(fast.POPCOUNT_LUT_ENV_VAR, value)
    try:
        with pytest.raises(ConfigError):
            fast.configure_popcount()
    finally:
        monkeypatch.undo()
        fast.configure_popcount()


def test_lut_kernel_matches_native_on_random_words():
    rng = np.random.default_rng(7)
    for shape in ((1, 1), (33, 1), (97, 3), (5, 64), (0, 2)):
        words = rng.integers(0, 2 ** 63, size=shape, dtype=np.uint64)
        # rng.integers caps below 2**63, so set bit 63 explicitly on the
        # later *rows* (every word column included) to cover the high bit.
        words[words.shape[0] // 2 :] |= np.uint64(1) << np.uint64(63)
        expected = fast._frontier_bits(words, 64 * shape[1]).sum(
            axis=1, dtype=np.int64
        )
        assert np.array_equal(fast._row_popcounts_lut(words), expected)
        if fast._row_popcounts_native is not None:
            assert np.array_equal(fast._row_popcounts_native(words), expected)


@pytest.mark.parametrize("name,graph", STEP_ZOO, ids=[n for n, _ in STEP_ZOO])
@pytest.mark.parametrize("width", [64, "auto"])
def test_lut_wave_matrix_bit_identical(forced_lut, name, graph, width):
    """The full wave-engine matrix under the forced LUT path: exact parity,
    on one-word waves and on the default multi-word width."""
    with backend.using_bfs_batch(width):
        assert fast.diameter(graph, sample_size=12, rng=random.Random(1)) == (
            metrics.diameter(graph, sample_size=12, rng=random.Random(1))
        )
        assert fast.average_closeness_centrality(graph) == (
            metrics.average_closeness_centrality(graph)
        )
        assert fast.average_shortest_path_length(
            graph, sample_size=9, rng=random.Random(2)
        ) == metrics.average_shortest_path_length(
            graph, sample_size=9, rng=random.Random(2)
        )
        assert fast.full_path_metrics(graph) == metrics.full_path_metrics(graph)


def test_lut_multiword_wave_identical(forced_lut):
    graph = k_regular_graph(300, 6, seed=31)
    with backend.using_bfs_batch(512):
        batched = fast.shortest_path_lengths_from_many(graph, graph.nodes())
    for source, distances in zip(graph.nodes(), batched):
        assert distances == metrics.shortest_path_lengths_from(graph, source)


def test_lut_full_population_goldens(forced_lut):
    from tests.graphs.test_wave_engine import (
        FULL_PATH_GOLDEN_800,
        FULL_POPULATION_GOLDEN_800,
    )

    graph = k_regular_graph(800, 6, seed=11)
    assert fast.average_closeness_centrality(graph) == FULL_POPULATION_GOLDEN_800
    assert fast.full_path_metrics(graph) == FULL_PATH_GOLDEN_800


def test_lut_ring_sparse_frontier_identical(forced_lut):
    graph = ring_graph(240)
    assert fast.diameter(graph, sample_size=8, rng=random.Random(3)) == (
        metrics.diameter(graph, sample_size=8, rng=random.Random(3))
    )
