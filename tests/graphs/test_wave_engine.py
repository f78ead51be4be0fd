"""Adaptive multi-word frontier engine: parity, dispatch, and tuning knobs.

The engine under test is :func:`repro.graphs.fast._batched_wave` and the
machinery around it: multi-word (>64-source) waves, the per-level
dense / sparse / pull step dispatch, the wave-width auto-tuner, and the
``REPRO_BFS_BATCH`` / ``backend.use_bfs_batch`` override plumbing.  Every
configuration must return results identical to the pure-Python reference in
:mod:`repro.graphs.metrics` -- the knobs tune wall-clock time, never values.

The 100k-node full-sample closeness golden lives in
``benchmarks/bench_graph_kernels.py`` (the benchmark builds that graph
anyway); here the same contracts are pinned at tier-1-friendly sizes.
"""

from __future__ import annotations

import math
import random

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import backend, fast, metrics
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph, ring_graph

#: Full-population (every node a source) mean closeness on
#: ``k_regular_graph(800, 6, seed=11)`` -- pinned under both backends.
FULL_POPULATION_GOLDEN_800 = 0.24697170483624897

#: Sampled (96 sources) and full-population mean closeness on
#: ``k_regular_graph(2500, 10, seed=77)`` -- a graph past ``AUTO_THRESHOLD``,
#: so the ``auto`` policy routes it through the wave engine.
SAMPLED_GOLDEN_2500 = 0.2712470362069424
FULL_POPULATION_GOLDEN_2500 = 0.27123199657863245


def _path_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(edges=[(i, i + 1) for i in range(n - 1)])


def _partitioned(n: int, k: int, seed: int) -> UndirectedGraph:
    graph = k_regular_graph(n, k, seed=seed)
    rng = random.Random(seed + 1)
    for victim in rng.sample(graph.nodes(), n // 3):
        graph.remove_node(victim)
    return graph


def step_zoo():
    """Graphs spanning every step regime the dispatcher can pick."""
    return [
        ("k-regular", k_regular_graph(260, 8, seed=21)),
        ("ring", ring_graph(180)),
        ("path", _path_graph(150)),
        ("star", UndirectedGraph(edges=[(0, leaf) for leaf in range(1, 120)])),
        ("partitioned", _partitioned(240, 6, seed=23)),
    ]


STEP_ZOO = step_zoo()


@pytest.fixture(params=STEP_ZOO, ids=[name for name, _ in STEP_ZOO])
def step_graph(request):
    return request.param[1]


# ----------------------------------------------------------------------
# >64-source waves
# ----------------------------------------------------------------------
def test_multiword_wave_matches_per_source_reference():
    """300 sources in one 5-word wave reproduce per-source BFS exactly."""
    graph = k_regular_graph(300, 6, seed=31)
    sources = graph.nodes()
    with backend.using_bfs_batch(512):
        batched = fast.shortest_path_lengths_from_many(graph, sources)
    for source, distances in zip(sources, batched):
        assert distances == metrics.shortest_path_lengths_from(graph, source)


def test_multiword_wave_width_is_actually_used():
    graph = k_regular_graph(200, 6, seed=32)
    csr = fast.csr_of(graph)
    sources = np.arange(200, dtype=np.int64)
    levels = list(fast._batched_wave(csr, sources))
    assert levels, "wave advanced no level"
    for rows, words in levels:
        assert words.shape[1] == 4  # ceil(200 / 64) frontier words per node
        assert rows.size == words.shape[0]


@pytest.mark.parametrize("forced", [64, 100, 128, 512])
def test_forced_wave_widths_identical(forced):
    """Any forced wave width returns the same estimator values."""
    graph = k_regular_graph(300, 8, seed=33)
    expected_diameter = metrics.diameter(graph, sample_size=40, rng=random.Random(3))
    expected_closeness = metrics.average_closeness_centrality(
        graph, sample_size=40, rng=random.Random(4)
    )
    expected_aspl = metrics.average_shortest_path_length(
        graph, sample_size=40, rng=random.Random(5)
    )
    with backend.using_bfs_batch(forced):
        assert fast.diameter(graph, sample_size=40, rng=random.Random(3)) == (
            expected_diameter
        )
        assert fast.average_closeness_centrality(
            graph, sample_size=40, rng=random.Random(4)
        ) == expected_closeness
        assert fast.average_shortest_path_length(
            graph, sample_size=40, rng=random.Random(5)
        ) == expected_aspl


def _mutate_between_reads(graph, rng, steps):
    """Remove nodes and add edges, reading the CSR cache after each step."""
    for _ in range(steps):
        graph.remove_node(rng.choice(graph.nodes()))
        fast.csr_of(graph)
        graph.add_edge(*rng.sample(graph.nodes(), 2))
        cached = fast.csr_of(graph)
        fresh = fast.build_csr(graph)
        assert np.array_equal(cached.indptr, fresh.indptr)
        assert np.array_equal(cached.indices, fresh.indices)


def test_multiword_wave_after_mutations():
    """Snapshots rebuilt after mutations run wide waves correctly."""
    graph = k_regular_graph(220, 6, seed=34)
    _mutate_between_reads(graph, random.Random(35), 12)
    with backend.using_bfs_batch(256):
        batched = fast.shortest_path_lengths_from_many(graph, graph.nodes())
    for source, distances in zip(graph.nodes(), batched):
        assert distances == metrics.shortest_path_lengths_from(graph, source)


# ----------------------------------------------------------------------
# Dense / sparse / pull step equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["dense", "sparse", "pull", "adaptive"])
def test_forced_step_modes_identical(step_graph, mode, monkeypatch):
    monkeypatch.setattr(fast, "WAVE_STEP_MODE", mode)
    sources = step_graph.nodes()[::3]
    batched = fast.shortest_path_lengths_from_many(step_graph, sources)
    for source, distances in zip(sources, batched):
        assert distances == metrics.shortest_path_lengths_from(step_graph, source)
    assert fast.diameter(step_graph, sample_size=12, rng=random.Random(1)) == (
        metrics.diameter(step_graph, sample_size=12, rng=random.Random(1))
    )
    assert fast.average_closeness_centrality(step_graph) == (
        metrics.average_closeness_centrality(step_graph)
    )
    assert fast.average_shortest_path_length(
        step_graph, sample_size=9, rng=random.Random(2)
    ) == metrics.average_shortest_path_length(
        step_graph, sample_size=9, rng=random.Random(2)
    )


@pytest.mark.parametrize("mode", ["dense", "sparse", "pull"])
def test_forced_step_modes_identical_multiword(step_graph, mode, monkeypatch):
    """Step forcing and >64-source waves compose."""
    monkeypatch.setattr(fast, "WAVE_STEP_MODE", mode)
    sources = step_graph.nodes()
    with backend.using_bfs_batch(192):
        batched = fast.shortest_path_lengths_from_many(step_graph, sources)
    for source, distances in zip(sources[:: max(1, len(sources) // 8)], batched[:: max(1, len(sources) // 8)]):
        assert distances == metrics.shortest_path_lengths_from(step_graph, source)


def test_adaptive_ring_uses_sparse_steps(monkeypatch):
    """On a ring nearly every level must take the sparse step (the point)."""
    graph = ring_graph(400)
    csr = fast.csr_of(graph)
    calls = {"sparse": 0, "dense": 0, "pull": 0}
    for name in ("_sparse_step", "_dense_step", "_pull_step"):
        original = getattr(fast, name)

        def counting(*args, _original=original, _key=name.strip("_").split("_")[0], **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fast, name, counting)
    fast.diameter(graph, sample_size=4, rng=random.Random(0), connected=True)
    assert calls["sparse"] > 50
    assert calls["dense"] == 0


# ----------------------------------------------------------------------
# Auto-tuner and override plumbing
# ----------------------------------------------------------------------
def test_wave_batch_narrow_on_low_diameter_graphs():
    csr = fast.csr_of(k_regular_graph(3000, 10, seed=41))
    assert fast.wave_batch(csr, 1024) == fast.BFS_BATCH


def test_wave_batch_wide_on_high_diameter_graphs():
    csr = fast.csr_of(ring_graph(3000))
    width = fast.wave_batch(csr, 3000)
    assert width >= 47 * fast.BFS_BATCH  # every source packs into one wave
    assert width % fast.BFS_BATCH == 0


def test_wave_batch_respects_buffer_budget(monkeypatch):
    monkeypatch.setattr(fast, "WAVE_BUFFER_BUDGET", 8 * 3000 * 2)  # two words
    csr = fast.csr_of(ring_graph(3000))
    assert fast.wave_batch(csr, 3000) == 2 * fast.BFS_BATCH


def test_wave_batch_small_requests_stay_single_word():
    csr = fast.csr_of(ring_graph(3000))
    assert fast.wave_batch(csr, 17) == fast.BFS_BATCH


def test_estimated_levels_regimes():
    assert fast._estimated_levels(fast.csr_of(k_regular_graph(2000, 10, seed=42))) < 10
    ring_csr = fast.csr_of(ring_graph(2000))
    assert fast._estimated_levels(ring_csr) >= 2000  # mean degree 2: path-like


def test_use_bfs_batch_forced_and_restored():
    previous = backend.use_bfs_batch(128)
    try:
        assert backend.bfs_batch_policy() == 128
        with backend.using_bfs_batch("auto"):
            assert backend.bfs_batch_policy() == "auto"
        assert backend.bfs_batch_policy() == 128
    finally:
        backend.use_bfs_batch(previous)
    assert backend.bfs_batch_policy() == "auto"


def test_bfs_batch_env_var(monkeypatch):
    previous = backend.use_bfs_batch(None)
    try:
        monkeypatch.setenv(backend.BFS_BATCH_ENV_VAR, "256")
        assert backend.bfs_batch_policy() == 256
        csr = fast.csr_of(ring_graph(64))
        assert fast.wave_batch(csr, 5000) == 256
        monkeypatch.setenv(backend.BFS_BATCH_ENV_VAR, "auto")
        assert backend.bfs_batch_policy() == "auto"
        monkeypatch.setenv(backend.BFS_BATCH_ENV_VAR, "bogus")
        with pytest.raises(backend.BackendError):
            backend.bfs_batch_policy()
    finally:
        backend.use_bfs_batch(previous)


def test_forced_policy_wins_over_env(monkeypatch):
    monkeypatch.setenv(backend.BFS_BATCH_ENV_VAR, "512")
    with backend.using_bfs_batch(96):
        assert backend.bfs_batch_policy() == 96


@pytest.mark.parametrize("bad", [0, -3, "zero", 1.5, True])
def test_invalid_bfs_batch_rejected(bad):
    with pytest.raises(backend.BackendError):
        backend.use_bfs_batch(bad)


def test_env_batch_changes_results_not_one_bit(monkeypatch):
    graph = k_regular_graph(500, 8, seed=43)
    baseline = fast.average_closeness_centrality(
        graph, sample_size=100, rng=random.Random(9)
    )
    monkeypatch.setenv(backend.BFS_BATCH_ENV_VAR, "128")
    assert fast.average_closeness_centrality(
        graph, sample_size=100, rng=random.Random(9)
    ) == baseline


# ----------------------------------------------------------------------
# Full-population closeness (the symmetric per-node accumulation path)
# ----------------------------------------------------------------------
def test_full_population_closeness_golden_both_backends():
    graph = k_regular_graph(800, 6, seed=11)
    reference = metrics.average_closeness_centrality(graph)
    vectorized = fast.average_closeness_centrality(graph)
    assert reference == FULL_POPULATION_GOLDEN_800
    assert vectorized == FULL_POPULATION_GOLDEN_800


def test_autosized_graph_goldens_both_backends():
    """Past AUTO_THRESHOLD the dispatcher itself must hit the same goldens."""
    graph = k_regular_graph(2500, 10, seed=77)
    assert graph.number_of_nodes() >= backend.AUTO_THRESHOLD
    with backend.using("python"):
        assert backend.average_closeness_centrality(
            graph, sample_size=96, rng=random.Random(5)
        ) == SAMPLED_GOLDEN_2500
    with backend.using("fast"):
        assert backend.average_closeness_centrality(
            graph, sample_size=96, rng=random.Random(5)
        ) == SAMPLED_GOLDEN_2500
        assert backend.average_closeness_centrality(graph) == (
            FULL_POPULATION_GOLDEN_2500
        )
    with backend.using("python"):
        assert backend.average_closeness_centrality(graph) == (
            FULL_POPULATION_GOLDEN_2500
        )


def test_full_population_matches_sampled_formula_on_disconnected():
    """The symmetric path agrees with the reference on non-trivial components."""
    graph = _partitioned(300, 6, seed=51)
    assert metrics.number_connected_components(graph) >= 1
    assert fast.average_closeness_centrality(graph) == (
        metrics.average_closeness_centrality(graph)
    )
    # sample_size >= n is the same full-population code path by contract.
    n = graph.number_of_nodes()
    assert fast.average_closeness_centrality(
        graph, sample_size=n + 50, rng=random.Random(1)
    ) == metrics.average_closeness_centrality(
        graph, sample_size=n + 50, rng=random.Random(1)
    )


def test_full_population_closeness_after_mutations():
    graph = k_regular_graph(400, 8, seed=52)
    _mutate_between_reads(graph, random.Random(53), 25)
    assert fast.average_closeness_centrality(graph) == (
        metrics.average_closeness_centrality(graph)
    )


def test_wave_scratch_is_not_shared_between_interleaved_waves():
    """Two generators advancing in lockstep must not corrupt each other."""
    graph = k_regular_graph(300, 8, seed=54)
    csr = fast.csr_of(graph)
    first = fast._batched_wave(csr, np.arange(0, 64, dtype=np.int64))
    second = fast._batched_wave(csr, np.arange(64, 128, dtype=np.int64))
    interleaved = []
    for (rows_a, words_a), (rows_b, words_b) in zip(first, second):
        interleaved.append((rows_a.copy(), words_a.copy(), rows_b.copy(), words_b.copy()))
    replay_first = list(fast._batched_wave(csr, np.arange(0, 64, dtype=np.int64)))
    replay_second = list(fast._batched_wave(csr, np.arange(64, 128, dtype=np.int64)))
    for (rows_a, words_a, rows_b, words_b), (ra, wa), (rb, wb) in zip(
        interleaved, replay_first, replay_second
    ):
        assert np.array_equal(rows_a, ra) and np.array_equal(words_a, wa)
        assert np.array_equal(rows_b, rb) and np.array_equal(words_b, wb)


# ----------------------------------------------------------------------
# Exact full-population path metrics (eccentricity / diameter / ASPL)
# ----------------------------------------------------------------------
#: Exact full-population path metrics of ``k_regular_graph(800, 6, seed=11)``
#: -- note ``avg_closeness`` equals :data:`FULL_POPULATION_GOLDEN_800`.
FULL_PATH_GOLDEN_800 = {
    "components": 1,
    "largest_fraction": 1.0,
    "diameter": 6.0,
    "avg_path_length": 4.049242803504381,
    "avg_closeness": 0.24697170483624897,
}

#: Exact full-population path metrics of ``k_regular_graph(2500, 10, seed=77)``
#: (past ``AUTO_THRESHOLD``; ``avg_closeness`` matches
#: :data:`FULL_POPULATION_GOLDEN_2500`).
FULL_PATH_GOLDEN_2500 = {
    "components": 1,
    "largest_fraction": 1.0,
    "diameter": 5.0,
    "avg_path_length": 3.6869058023209282,
    "avg_closeness": 0.27123199657863245,
}


def test_full_path_metrics_golden_both_backends():
    graph = k_regular_graph(800, 6, seed=11)
    assert metrics.full_path_metrics(graph) == FULL_PATH_GOLDEN_800
    assert fast.full_path_metrics(graph) == FULL_PATH_GOLDEN_800


def test_full_path_metrics_autosized_golden():
    """Past AUTO_THRESHOLD the dispatcher itself must hit the same golden."""
    graph = k_regular_graph(2500, 10, seed=77)
    assert graph.number_of_nodes() >= backend.AUTO_THRESHOLD
    assert backend.full_path_metrics(graph) == FULL_PATH_GOLDEN_2500
    with backend.using("python"):
        assert backend.full_path_metrics(graph) == FULL_PATH_GOLDEN_2500


def test_full_path_metrics_matches_reference(step_graph):
    """Every step-zoo topology: exact metrics identical to the reference."""
    assert fast.full_path_metrics(step_graph) == metrics.full_path_metrics(step_graph)


def test_full_path_metrics_matches_componentwise_estimators(step_graph):
    """The one-campaign values equal the separate exact estimator calls."""
    summary = fast.full_path_metrics(step_graph)
    working = fast.largest_component_subgraph(step_graph)
    assert summary["diameter"] == metrics.diameter(working, connected=True)
    assert summary["avg_path_length"] == metrics.average_shortest_path_length(
        working, connected=True
    )
    assert summary["avg_closeness"] == metrics.average_closeness_centrality(working)


def test_path_length_accumulators_match_reference(step_graph):
    """Per-node (eccentricity, distance sum, reachable) -- exact integers."""
    assert fast.path_length_accumulators(step_graph) == (
        metrics.path_length_accumulators(step_graph)
    )


@pytest.mark.parametrize("mode", ["dense", "sparse", "pull"])
def test_full_path_metrics_forced_step_modes(step_graph, mode, monkeypatch):
    expected = metrics.full_path_metrics(step_graph)
    monkeypatch.setattr(fast, "WAVE_STEP_MODE", mode)
    assert fast.full_path_metrics(step_graph) == expected


def test_full_path_metrics_multiword_wave():
    """Forced >64-source waves feed the same exact accumulators."""
    graph = k_regular_graph(300, 6, seed=61)
    expected = metrics.full_path_metrics(graph)
    with backend.using_bfs_batch(192):
        assert fast.full_path_metrics(graph) == expected


def test_full_path_metrics_after_mutations():
    graph = k_regular_graph(400, 8, seed=62)
    _mutate_between_reads(graph, random.Random(63), 25)
    assert fast.full_path_metrics(graph) == metrics.full_path_metrics(graph)
    assert fast.path_length_accumulators(graph) == (
        metrics.path_length_accumulators(graph)
    )


def test_accumulator_state_key_is_pinned():
    """Journal v2 checkpoint keys must not drift across releases.

    A resumed campaign replays a journaled shard only when this key matches,
    so a change here silently turns every existing journal's checkpoint
    shards into recomputation.
    """
    n = 12
    ring = [(i, (i + 1) % n) for i in range(n)]
    chords = [(i, (i + 5) % n) for i in range(0, n, 3)]
    graph = UndirectedGraph(nodes=range(n), edges=ring + chords)
    key = fast.accumulator_state_key(fast.csr_of(graph), np.arange(3, 9))
    assert key == "6c2635a2f041ef0915f246ca4f0d1bdf"


def test_accumulate_path_shard_merge_is_exact():
    """Any split of the source set merges to the serial accumulators."""
    graph = k_regular_graph(350, 6, seed=64)
    csr = fast.csr_of(graph)
    sources = np.arange(csr.n, dtype=np.int64)
    serial_ecc, serial_totals = fast.accumulate_path_shard(csr, sources)
    for pieces in (2, 3, 7):
        ecc = np.zeros(csr.n, dtype=np.int64)
        totals = np.zeros(csr.n, dtype=np.int64)
        for shard in np.array_split(sources, pieces):
            shard_ecc, shard_totals = fast.accumulate_path_shard(csr, shard)
            np.maximum(ecc, shard_ecc, out=ecc)
            totals += shard_totals
        assert np.array_equal(ecc, serial_ecc)
        assert np.array_equal(totals, serial_totals)


def test_full_path_metrics_empty_and_singleton():
    empty = {
        "components": 0,
        "largest_fraction": 0.0,
        "diameter": 0.0,
        "avg_path_length": 0.0,
        "avg_closeness": 0.0,
    }
    assert fast.full_path_metrics(UndirectedGraph()) == empty
    assert metrics.full_path_metrics(UndirectedGraph()) == empty
    singleton = UndirectedGraph(nodes=["only"])
    assert fast.full_path_metrics(singleton) == metrics.full_path_metrics(singleton)


def test_row_popcounts_matches_bit_matrix():
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2 ** 63, size=(97, 3), dtype=np.uint64)
    expected = fast._frontier_bits(words, 192).sum(axis=1, dtype=np.int64)
    assert np.array_equal(fast._row_popcounts(words), expected)


def test_frontier_bit_counts_matches_unpacked_columns():
    rng = np.random.default_rng(1)
    words = rng.integers(0, 2 ** 63, size=(131, 2), dtype=np.uint64)
    bits = fast._frontier_bits(words, 100)
    assert np.array_equal(
        fast._frontier_bit_counts(words, 100), bits.sum(axis=0, dtype=np.int64)
    )
