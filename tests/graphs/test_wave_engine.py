"""Multi-source BFS waves: parity, wave widths and the width rule.

The waves under test run through :func:`repro.graphs.fast._run_waves` --
on the compiled kernel when it loads, else on the plain dense numpy wave
(:func:`repro.graphs.fast._dense_wave`): multi-word (>64-source) waves
(widths substituted through the ``wave_width`` fixture), the kernel's
forced step modes against the fallback, and the wave-width rule.  Every
configuration must return results identical to the pure-Python reference
in :mod:`repro.graphs.metrics` -- width and step mode tune wall-clock time,
never values.  The waves' per-node ``(ecc, totals)`` accumulators
(:func:`repro.graphs.fast.accumulate_path_shard`) are checked against
:func:`reference`, the same fold over pure-Python BFS distances.  Both
engines are pinned against each other and the reference on source subsets
either side of every frontier-word and wave-chunk boundary in
``test_sampled_waves.py``.  The waves of one campaign spread over
:data:`repro.graphs.fast.WAVE_THREADS` threads; every thread count must
return the reference accumulators and the same ``wave.*`` counters, and a
failing chunk or an interrupt must stop and join every helper thread.

The full-population goldens here are pinned at tier-1-friendly sizes (800
and 2500 nodes; ``test_numpy_wave.py`` pins the 800 ones on the numpy
wave).  At scale, every perfbench run checks the exact 20k-node
``resilience-at-scale`` rows against ``perfbench/goldens.json``.
"""

from __future__ import annotations

import math
import random
import threading
import time
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from repro.core.ddsr import DDSROverlay
from repro.graphs import _wavekernel, backend, fast, metrics
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph, ring_graph
from repro.obs import telemetry

#: Full-population (every node a source) mean closeness on
#: ``k_regular_graph(800, 6, seed=11)`` -- pinned under both backends.
FULL_POPULATION_GOLDEN_800 = 0.24697170483624897

#: Full-population mean closeness on ``k_regular_graph(2500, 10, seed=77)``
#: -- pinned through the dispatcher under both backends.
FULL_POPULATION_GOLDEN_2500 = 0.27123199657863245


def reference(graph, csr, sources):
    """Per-node ``max``/``sum`` of BFS distances from ``sources`` (pure Python)."""
    ecc = np.zeros(csr.n, dtype=np.int64)
    totals = np.zeros(csr.n, dtype=np.int64)
    for source in sources:
        lengths = metrics.shortest_path_lengths_from(graph, csr.nodes[int(source)])
        for node, distance in lengths.items():
            index = csr.index_of[node]
            ecc[index] = max(ecc[index], distance)
            totals[index] += distance
    return ecc, totals


def assert_same(left, right, label=""):
    assert np.array_equal(left[0], right[0]), label
    assert np.array_equal(left[1], right[1]), label


def source_indices(csr, nodes):
    """CSR indices of ``nodes`` (node ids, duplicates kept), in order."""
    return np.array([csr.index_of[node] for node in nodes], dtype=np.int64)


def assert_waves_match_reference(graph, sources=None):
    """``accumulate_path_shard`` over ``sources`` (node ids; default every
    node) equals :func:`reference`."""
    csr = fast.csr_of(graph)
    indices = source_indices(csr, graph.nodes() if sources is None else sources)
    assert_same(fast.accumulate_path_shard(csr, indices), reference(graph, csr, indices))


def _path_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(edges=[(i, i + 1) for i in range(n - 1)])


def _partitioned(n: int, k: int, seed: int) -> UndirectedGraph:
    graph = k_regular_graph(n, k, seed=seed)
    rng = random.Random(seed + 1)
    for victim in rng.sample(graph.nodes(), n // 3):
        graph.remove_node(victim)
    return graph


def step_zoo():
    """Graphs spanning every step regime the kernel's dispatcher can pick."""
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


def _pin_wave_engine(monkeypatch, mode):
    """Pin the waves to the numpy fallback (``"numpy"``) or to the compiled
    kernel with ``WAVE_STEP_MODE = mode``; skips the compiled modes without
    a C compiler."""
    if mode == "numpy":
        monkeypatch.setattr(_wavekernel, "load", lambda: None)
        return
    kernel = _wavekernel.load()
    if kernel is None:
        pytest.skip("no working C compiler")
    monkeypatch.setattr(_wavekernel, "load", lambda: kernel)
    monkeypatch.setattr(fast, "WAVE_STEP_MODE", mode)


# ----------------------------------------------------------------------
# >64-source waves
# ----------------------------------------------------------------------
def test_multiword_wave_matches_per_source_reference(wave_width):
    """300 sources in one 5-word wave reproduce per-source BFS exactly."""
    graph = k_regular_graph(300, 6, seed=31)
    with wave_width(512):
        assert_waves_match_reference(graph)


def test_multiword_wave_width_is_actually_used():
    graph = k_regular_graph(200, 6, seed=32)
    csr = fast.csr_of(graph)
    sources = np.arange(200, dtype=np.int64)
    levels = list(fast._dense_wave(csr, sources))
    assert levels, "wave advanced no level"
    for rows, words in levels:
        assert words.shape[1] == 4  # ceil(200 / 64) frontier words per node
        assert rows.size == words.shape[0]


@pytest.mark.parametrize("forced", [64, 100, 128, 512])
def test_forced_wave_widths_identical(forced, wave_width):
    """Any forced wave width returns the same accumulators and metrics."""
    graph = k_regular_graph(300, 8, seed=33)
    sources = random.Random(3).sample(graph.nodes(), 40)
    expected = metrics.full_path_metrics(graph)
    with wave_width(forced):
        assert_waves_match_reference(graph, sources)
        assert fast.full_path_metrics(graph) == expected


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


def test_multiword_wave_after_mutations(wave_width):
    """Snapshots rebuilt after mutations run wide waves correctly."""
    graph = k_regular_graph(220, 6, seed=34)
    _mutate_between_reads(graph, random.Random(35), 12)
    with wave_width(256):
        assert_waves_match_reference(graph)


# ----------------------------------------------------------------------
# Kernel step modes and the numpy fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["dense", "sparse", "adaptive", "numpy"])
def test_forced_step_modes_identical(step_graph, mode, monkeypatch):
    """Source subsets and every exact caller, on each kernel step mode and
    on numpy."""
    _pin_wave_engine(monkeypatch, mode)
    nodes = step_graph.nodes()
    assert_waves_match_reference(step_graph, nodes[::3])
    assert_waves_match_reference(step_graph, random.Random(1).sample(nodes, 12))
    assert fast.diameter(step_graph) == metrics.diameter(step_graph)
    assert fast.average_closeness_centrality(step_graph) == (
        metrics.average_closeness_centrality(step_graph)
    )
    assert fast.average_shortest_path_length(step_graph) == (
        metrics.average_shortest_path_length(step_graph)
    )
    source = nodes[len(nodes) // 2]
    assert fast.shortest_path_lengths_from(step_graph, source) == (
        metrics.shortest_path_lengths_from(step_graph, source)
    )
    assert fast.closeness_centrality(step_graph, source) == (
        metrics.closeness_centrality(step_graph, source)
    )


@pytest.mark.parametrize("mode", ["dense", "sparse", "numpy"])
def test_forced_step_modes_identical_multiword(
    step_graph, mode, monkeypatch, wave_width
):
    """Forced step modes and >64-source waves compose."""
    _pin_wave_engine(monkeypatch, mode)
    with wave_width(192):
        assert_waves_match_reference(step_graph)


def test_adaptive_ring_uses_sparse_steps(monkeypatch):
    """On a ring the kernel's adaptive dispatch takes sparse steps only."""
    _pin_wave_engine(monkeypatch, "adaptive")
    csr = fast.csr_of(ring_graph(400))
    with telemetry.collecting() as collector:
        fast.accumulate_path_shard(csr, np.arange(4, dtype=np.int64))
    counters = collector.snapshot()["counters"]
    assert counters["wave.dispatch.sparse"] > 50
    assert counters.get("wave.dispatch.dense", 0) == 0


# ----------------------------------------------------------------------
# Wave threads
# ----------------------------------------------------------------------
#: Thread counts under test: ``None`` is the CPU-count rule, and 8 is more
#: than any graph below has wave chunks at 64 sources per wave.
THREAD_COUNTS = (1, 2, 3, 8, None)


def _ddsr_after_deletions():
    """A k-regular DDSR overlay after three repaired deletion batches."""
    overlay = DDSROverlay.k_regular(500, 6, seed=71)
    rng = random.Random(72)
    for _ in range(3):
        fast.csr_of(overlay.graph)  # a cached mirror selects the compiled deletion
        overlay.remove_nodes(rng.sample(overlay.nodes(), 50))
    return overlay.graph


def _thread_cases():
    """``(name, graph, sources)``; ``sources`` ``None`` means every node."""
    kregular = k_regular_graph(2000, 8, seed=73)
    return [(name, graph, None) for name, graph in STEP_ZOO] + [
        ("k-regular-2k", kregular, random.Random(74).sample(kregular.nodes(), 256)),
        ("ddsr-deleted", _ddsr_after_deletions(), None),
    ]


THREAD_CASES = _thread_cases()


@pytest.mark.parametrize("case", THREAD_CASES, ids=[name for name, _, _ in THREAD_CASES])
def test_wave_threads_equal_the_reference(case, monkeypatch, wave_width):
    """Every thread count: reference accumulators, identical ``wave.*``
    counters, and ``min(threads, chunks)`` threads reported."""
    _name, graph, sources = case
    _pin_wave_engine(monkeypatch, "adaptive")
    csr = fast.csr_of(graph)
    indices = source_indices(csr, graph.nodes() if sources is None else sources)
    expected = reference(graph, csr, indices)
    chunks = -(-indices.size // 64)
    assert chunks >= 2
    counters = {}
    with wave_width(64):
        for threads in THREAD_COUNTS:
            monkeypatch.setattr(fast, "WAVE_THREADS", threads)
            with telemetry.collecting() as collector:
                result = fast.accumulate_path_shard(csr, indices)
            assert_same(result, expected, f"{threads} threads")
            snapshot = collector.snapshot()
            wanted = threads
            if threads is None:
                wanted = min(fast._usable_cpus(), fast._cpu_quota() or chunks)
            assert snapshot["gauges"]["wave.threads"] == min(wanted, chunks)
            counters[threads] = snapshot["counters"]
    assert counters[1]["wave.count"] == chunks
    for threads in THREAD_COUNTS:
        assert counters[threads] == counters[1], f"{threads} threads"


def _fan_out_graph():
    """600 nodes: ten wave chunks at 64 sources per wave."""
    return fast.csr_of(k_regular_graph(600, 6, seed=75))


@pytest.mark.parametrize(
    "content,expected",
    [
        ("max 100000\n", None),
        ("150000 100000\n", 2),
        ("200000 100000", 2),
        ("100000 100000", 1),
        ("20000 100000", 1),
        ("", None),
        ("unlimited", None),
        (None, None),
    ],
)
def test_cpu_quota_reads_cpu_max(content, expected, tmp_path, monkeypatch):
    """The quota is read from ``cpu.max`` (a stand-in file here), rounded up."""
    path = tmp_path / "cpu.max"
    if content is not None:
        path.write_text(content)
    monkeypatch.setattr(fast, "CPU_MAX_PATH", str(path))
    assert fast._cpu_quota() == expected


def test_wave_threads_caps(monkeypatch):
    """CPUs, quota, chunks and the lane budget cap the threads; the gauge
    value names the one that decided."""
    monkeypatch.setattr(fast, "_usable_cpus", lambda: 8)
    quota = {"value": 3}
    monkeypatch.setattr(fast, "_cpu_quota", lambda: quota["value"])
    assert fast._wave_threads(1000, 2, 10) == (3, "quota")
    quota["value"] = None
    assert fast._wave_threads(1000, 2, 10) == (8, "cpus")
    quota["value"] = 16
    assert fast._wave_threads(1000, 2, 10) == (8, "cpus")
    assert fast._wave_threads(1000, 2, 2) == (2, "chunks")
    # About 81 bytes a node per lane at two words.
    monkeypatch.setattr(fast, "WAVE_LANE_BUDGET", 81 * 1000 * 2)
    assert fast._wave_threads(1000, 2, 10) == (2, "memory")
    monkeypatch.setattr(fast, "WAVE_LANE_BUDGET", 1000)
    assert fast._wave_threads(1000, 2, 10) == (1, "memory")
    monkeypatch.setattr(fast, "WAVE_LANE_BUDGET", 512 << 20)
    monkeypatch.setattr(fast, "WAVE_THREADS", 5)
    assert fast._wave_threads(1000, 2, 10) == (5, "fixed")
    assert fast._wave_threads(1000, 2, 4) == (4, "chunks")


@pytest.mark.parametrize("cap", ["quota", "memory"])
def test_capped_wave_threads_equal_the_reference(cap, monkeypatch, wave_width):
    """A quota or lane budget that leaves one thread: still the reference
    accumulators, with the cap on record."""
    _pin_wave_engine(monkeypatch, "adaptive")
    monkeypatch.setattr(fast, "_usable_cpus", lambda: 4)
    if cap == "quota":
        monkeypatch.setattr(fast, "_cpu_quota", lambda: 1)
    else:
        monkeypatch.setattr(fast, "_cpu_quota", lambda: None)
        monkeypatch.setattr(fast, "WAVE_LANE_BUDGET", 1)
    graph = k_regular_graph(600, 6, seed=75)
    csr = fast.csr_of(graph)
    indices = np.arange(csr.n, dtype=np.int64)
    with wave_width(64), telemetry.collecting() as collector:
        result = fast.accumulate_path_shard(csr, indices)
    assert_same(result, reference(graph, csr, indices), cap)
    gauges = collector.snapshot()["gauges"]
    assert (gauges["wave.threads"], gauges["wave.threads_cap"]) == (1, cap)


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("failing_call", [1, 4])
def test_a_failing_chunk_stops_and_joins_every_wave_thread(
    threads, failing_call, monkeypatch, wave_width
):
    """The k-th kernel call raises: the error reaches the caller, the other
    threads stop at their next chunk, and none outlives the call."""
    _pin_wave_engine(monkeypatch, "adaptive")
    kernel = _wavekernel.load()
    claim = threading.Lock()
    calls = []

    def failing(*arguments):
        with claim:
            calls.append(None)
            call = len(calls)
        if call == failing_call:
            raise RuntimeError("chunk failed")
        if call > failing_call:
            time.sleep(0.05)  # the failing thread raises the stop flag meanwhile
        return kernel(*arguments)

    monkeypatch.setattr(_wavekernel, "load", lambda: failing)
    monkeypatch.setattr(fast, "WAVE_THREADS", threads)
    csr = _fan_out_graph()
    before = threading.active_count()
    with wave_width(64), pytest.raises(RuntimeError, match="chunk failed"):
        fast.accumulate_path_shard(csr, np.arange(csr.n, dtype=np.int64))
    assert threading.active_count() == before
    # Every other thread finishes at most the one chunk it had claimed.
    assert len(calls) <= failing_call + threads - 1 < 10


def test_an_interrupt_on_the_calling_thread_stops_every_wave_thread(
    monkeypatch, wave_width
):
    """``KeyboardInterrupt`` (like the ``SIGALRM`` deadline) is raised on
    the calling thread between its chunks: it propagates, and every helper
    is joined first."""
    _pin_wave_engine(monkeypatch, "adaptive")
    kernel = _wavekernel.load()
    caller = threading.current_thread()
    caller_started = threading.Event()
    helper_calls = []

    def interrupted(*arguments):
        if threading.current_thread() is caller:
            caller_started.set()
            kernel(*arguments)
            raise KeyboardInterrupt
        # Helpers wait for the caller's first chunk, so it surely gets one,
        # and then long enough for its interrupt to raise the stop flag.
        caller_started.wait(10)
        time.sleep(0.05)
        helper_calls.append(None)
        return kernel(*arguments)

    monkeypatch.setattr(_wavekernel, "load", lambda: interrupted)
    monkeypatch.setattr(fast, "WAVE_THREADS", 3)
    csr = _fan_out_graph()
    before = threading.active_count()
    with wave_width(64), pytest.raises(KeyboardInterrupt):
        fast.accumulate_path_shard(csr, np.arange(csr.n, dtype=np.int64))
    assert threading.active_count() == before
    assert len(helper_calls) <= 2  # one chunk each, then the stop flag


def test_a_pooled_shard_runs_its_waves_on_one_thread(monkeypatch):
    """Pool workers already fill the cores: each runs one wave thread, and
    pooled still equals serial."""
    from repro.runner.executor import sharded_full_path_metrics
    from repro.runner.pool import shutdown_pools

    monkeypatch.setattr(fast, "WAVE_THREADS", 2)
    graph = k_regular_graph(600, 6, seed=76)
    shutdown_pools()  # workers forked from this process, booted afresh
    try:
        with backend.using("fast"), telemetry.collecting() as collector:
            pooled = sharded_full_path_metrics(graph, workers=2)
    finally:
        shutdown_pools()
    assert collector.snapshot()["gauges"]["wave.threads"] == 1
    assert pooled == fast.full_path_metrics(graph)


# ----------------------------------------------------------------------
# Width rule
# ----------------------------------------------------------------------
def test_wave_width_default_and_small_requests():
    csr = fast.csr_of(ring_graph(3000))
    assert fast._wave_width(csr, 3000) == fast.WAVE_WORDS * fast.BFS_BATCH
    assert fast._wave_width(csr, 17) == 17


def test_wave_width_respects_buffer_budget(monkeypatch):
    monkeypatch.setattr(fast, "WAVE_BUFFER_BUDGET", 8 * 3000)  # one word
    csr = fast.csr_of(ring_graph(3000))
    assert fast._wave_width(csr, 3000) == fast.BFS_BATCH


#: The most nodes whose two-word ``(n, 2)`` uint64 wave buffer fits the
#: 64 MiB budget.
TWO_WORD_BUDGET_NODES = (64 << 20) // 16


@pytest.mark.parametrize(
    "n,words",
    [(TWO_WORD_BUDGET_NODES, 2), (TWO_WORD_BUDGET_NODES + 1, 1), (20_000_000, 1)],
)
def test_wave_width_stays_within_the_buffer_budget(n, words):
    """Two words while an ``(n, 2)`` buffer fits the budget, else one."""
    assert fast.WAVE_BUFFER_BUDGET == 64 << 20
    csr = SimpleNamespace(n=n)
    assert fast._wave_width(csr, 10_000) == words * fast.BFS_BATCH
    assert fast._wave_width(csr, 5) == 5


@pytest.mark.parametrize("width", [64, 192, 512])
def test_wave_width_fixture_sets_the_words_per_wave(wave_width, width):
    """The substituted width reaches the engine: one wave of width/64 words."""
    csr = fast.csr_of(k_regular_graph(600, 6, seed=44))
    with wave_width(width), telemetry.collecting() as collector:
        fast.accumulate_path_shard(csr, np.arange(width))
    counters = collector.snapshot()["counters"]
    assert counters["wave.count"] == 1
    assert {name for name in counters if name.startswith("wave.words.")} == {
        f"wave.words.{width // 64}"
    }


def test_wave_width_changes_results_not_one_bit(wave_width):
    graph = k_regular_graph(500, 8, seed=43)
    csr = fast.csr_of(graph)
    sources = source_indices(csr, random.Random(9).sample(graph.nodes(), 100))
    baseline = fast.accumulate_path_shard(csr, sources)
    with wave_width(64):
        assert_same(fast.accumulate_path_shard(csr, sources), baseline)


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
    """The dispatcher itself must hit the same goldens on both backends."""
    graph = k_regular_graph(2500, 10, seed=77)
    with backend.using("fast"):
        assert backend.average_closeness_centrality(graph) == (
            FULL_POPULATION_GOLDEN_2500
        )
    with backend.using("python"):
        assert backend.average_closeness_centrality(graph) == (
            FULL_POPULATION_GOLDEN_2500
        )


def test_full_population_matches_single_source_formula_on_disconnected():
    """The symmetric path agrees with the reference on non-trivial components."""
    graph = _partitioned(300, 6, seed=51)
    assert metrics.number_connected_components(graph) >= 1
    assert fast.average_closeness_centrality(graph) == (
        metrics.average_closeness_centrality(graph)
    )
    # The reference's own definition: single-source values summed in node order.
    nodes = graph.nodes()
    assert fast.average_closeness_centrality(graph) == sum(
        fast.closeness_centrality(graph, node) for node in nodes
    ) / len(nodes)


def test_full_population_closeness_after_mutations():
    graph = k_regular_graph(400, 8, seed=52)
    _mutate_between_reads(graph, random.Random(53), 25)
    assert fast.average_closeness_centrality(graph) == (
        metrics.average_closeness_centrality(graph)
    )


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
#: (``avg_closeness`` matches :data:`FULL_POPULATION_GOLDEN_2500`).
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
    """The dispatcher itself must hit the same golden under ``auto`` (the
    fast backend) and under the reference."""
    graph = k_regular_graph(2500, 10, seed=77)
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


@pytest.mark.parametrize("mode", ["dense", "sparse", "numpy"])
def test_full_path_metrics_forced_step_modes(step_graph, mode, monkeypatch):
    expected = metrics.full_path_metrics(step_graph)
    _pin_wave_engine(monkeypatch, mode)
    assert fast.full_path_metrics(step_graph) == expected


def test_full_path_metrics_multiword_wave(wave_width):
    """Forced >64-source waves feed the same exact accumulators."""
    graph = k_regular_graph(300, 6, seed=61)
    expected = metrics.full_path_metrics(graph)
    with wave_width(192):
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
    # A row's bit count does not depend on the order of its bytes.
    expected = np.unpackbits(words.view(np.uint8), axis=1).sum(axis=1, dtype=np.int64)
    assert np.array_equal(fast._row_popcounts(words), expected)
