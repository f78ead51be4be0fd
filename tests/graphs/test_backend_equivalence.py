"""Differential harness: the fast CSR backend must match the Python reference.

Every fast kernel is run against the pure-Python implementation in
:mod:`repro.graphs.metrics` over a zoo of seeded graph families (k-regular,
Erdos--Renyi, Barabasi--Albert, ring, partitioned variants, and empty /
singleton edge cases).  Integer metrics must match exactly; float metrics are
checked with ``math.isclose`` (in practice they are bit-identical, because the
fast kernels mirror the reference's arithmetic).  The waves behind every
path metric are also checked on source subsets, through
:func:`repro.graphs.fast.accumulate_path_shard`.
"""

from __future__ import annotations

import math
import random
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import backend, fast, metrics
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    k_regular_graph,
    relabel,
    ring_graph,
)
from repro.graphs.partition import (
    analyze_partition,
    minimum_partition_fraction,
    partition_after_fraction,
    simultaneous_deletion_survivors,
)
from repro.obs import telemetry

from tests.graphs.test_wave_engine import assert_waves_match_reference


def _partitioned_k_regular(n: int, k: int, removed_fraction: float, seed: int) -> UndirectedGraph:
    """A k-regular graph with a simultaneous mass removal applied (no repair)."""
    graph = k_regular_graph(n, k, seed=seed)
    rng = random.Random(seed + 1)
    victims = rng.sample(graph.nodes(), int(removed_fraction * n))
    return simultaneous_deletion_survivors(graph, victims)


def _partitioned_sparse_ids(seed: int) -> UndirectedGraph:
    """Disconnected components over large, sparse integer node ids.

    Regression shape for the backend-identity contract: with ids drawn from a
    huge range, CPython set iteration order depends on how the set was built
    (hash collisions), so any code path that iterates a component *set*
    instead of canonical graph order diverges between backends -- exactly
    what a late 100k-node resilience checkpoint looks like.
    """
    rng = random.Random(seed)
    ids = rng.sample(range(100_000), 240)
    graph = UndirectedGraph(nodes=ids)
    # Three path-shaped components of uneven length plus leftover dust.
    for chunk in (ids[0:100], ids[100:180], ids[180:220]):
        for u, v in zip(chunk, chunk[1:]):
            graph.add_edge(u, v)
    return graph


def _two_rings_and_dust() -> UndirectedGraph:
    """Two disjoint rings plus isolated nodes: several components, exact ties."""
    graph = ring_graph(12)
    other = relabel(ring_graph(12), {node: node + 100 for node in range(12)})
    for node in other.nodes():
        graph.add_node(node)
    for u, v in other.edges():
        graph.add_edge(u, v)
    for dust in (500, 501, 502):
        graph.add_node(dust)
    return graph


def graph_zoo():
    """(name, graph) pairs covering the families the experiments touch."""
    return [
        ("k-regular-small", k_regular_graph(30, 4, seed=11)),
        ("k-regular", k_regular_graph(90, 6, seed=12)),
        ("erdos-renyi-sparse", erdos_renyi_graph(80, 0.02, seed=13)),
        ("erdos-renyi-dense", erdos_renyi_graph(60, 0.15, seed=14)),
        ("barabasi-albert", barabasi_albert_graph(70, 3, seed=15)),
        ("ring", ring_graph(41)),
        ("partitioned-k-regular", _partitioned_k_regular(80, 6, 0.45, seed=16)),
        ("partitioned-sparse-ids", _partitioned_sparse_ids(seed=17)),
        ("two-rings-and-dust", _two_rings_and_dust()),
        ("empty", UndirectedGraph()),
        ("singleton", UndirectedGraph(nodes=["only"])),
        ("two-isolated", UndirectedGraph(nodes=[0, 1])),
        ("single-edge", UndirectedGraph(edges=[(0, 1)])),
        ("star", UndirectedGraph(edges=[(0, leaf) for leaf in range(1, 9)])),
    ]


ZOO = graph_zoo()


@pytest.fixture(params=ZOO, ids=[name for name, _ in ZOO])
def zoo_graph(request):
    return request.param[1]


# ----------------------------------------------------------------------
# Per-kernel equivalence
# ----------------------------------------------------------------------
def test_connected_components_identical(zoo_graph):
    # Exact list equality: same sets in the same (size-desc, discovery) order.
    assert fast.connected_components(zoo_graph) == metrics.connected_components(zoo_graph)
    assert fast.number_connected_components(zoo_graph) == metrics.number_connected_components(
        zoo_graph
    )


def test_component_summary_matches_reference(zoo_graph):
    components = metrics.connected_components(zoo_graph)
    expected = (len(components), len(components[0])) if components else (0, 0)
    assert fast.component_summary(zoo_graph) == expected


def test_largest_component_fraction_identical(zoo_graph):
    assert math.isclose(
        fast.largest_component_fraction(zoo_graph),
        metrics.largest_component_fraction(zoo_graph),
        rel_tol=0.0,
        abs_tol=0.0,
    )


def test_shortest_path_lengths_identical(zoo_graph):
    for source in list(zoo_graph.nodes())[:6]:
        assert fast.shortest_path_lengths_from(zoo_graph, source) == (
            metrics.shortest_path_lengths_from(zoo_graph, source)
        )


def test_eccentricity_identical(zoo_graph):
    for node in list(zoo_graph.nodes())[:6]:
        assert fast.eccentricity(zoo_graph, node) == metrics.eccentricity(zoo_graph, node)


def test_closeness_centrality_identical(zoo_graph):
    for node in list(zoo_graph.nodes())[:6]:
        assert math.isclose(
            fast.closeness_centrality(zoo_graph, node),
            metrics.closeness_centrality(zoo_graph, node),
            rel_tol=1e-12,
        )


def test_average_closeness_identical(zoo_graph):
    reference = metrics.average_closeness_centrality(zoo_graph)
    vectorized = fast.average_closeness_centrality(zoo_graph)
    assert math.isclose(vectorized, reference, rel_tol=1e-12, abs_tol=0.0)


def test_degree_metrics_identical(zoo_graph):
    assert fast.degree_histogram(zoo_graph) == metrics.degree_histogram(zoo_graph)
    assert math.isclose(
        fast.average_degree_centrality(zoo_graph),
        metrics.average_degree_centrality(zoo_graph),
        rel_tol=0.0,
        abs_tol=0.0,
    )
    for node in list(zoo_graph.nodes())[:6]:
        assert fast.degree_centrality(zoo_graph, node) == metrics.degree_centrality(
            zoo_graph, node
        )


def test_diameter_identical(zoo_graph):
    assert fast.diameter(zoo_graph) == metrics.diameter(zoo_graph)


def test_five_source_waves_match_reference(zoo_graph):
    """A five-source shard folds what pure-Python BFS from those five gives."""
    nodes = zoo_graph.nodes()
    assert_waves_match_reference(
        zoo_graph, random.Random(21).sample(nodes, min(5, len(nodes)))
    )


def test_diameter_infinite_on_partitioned(zoo_graph):
    reference = metrics.diameter(zoo_graph, largest_component_only=False)
    vectorized = fast.diameter(zoo_graph, largest_component_only=False)
    assert vectorized == reference


def test_average_shortest_path_identical(zoo_graph):
    reference = metrics.average_shortest_path_length(zoo_graph)
    vectorized = fast.average_shortest_path_length(zoo_graph)
    assert math.isclose(vectorized, reference, rel_tol=1e-12, abs_tol=0.0)


def test_connected_flag_does_not_change_connected_results():
    graph = k_regular_graph(64, 6, seed=31)
    for fn in (
        metrics.diameter,
        fast.diameter,
        metrics.average_shortest_path_length,
        fast.average_shortest_path_length,
    ):
        assert fn(graph, connected=True) == fn(graph)


def test_partition_summary_after_removal_identical(zoo_graph):
    nodes = zoo_graph.nodes()
    victims = random.Random(41).sample(nodes, len(nodes) // 3) if nodes else []
    survivors = simultaneous_deletion_survivors(zoo_graph, victims)
    report = analyze_partition(survivors)
    assert fast.partition_summary_after_removal(zoo_graph, victims) == (
        report.surviving_nodes,
        report.component_count,
        report.largest_component,
        report.isolated_nodes,
    )


def test_partition_search_identical_across_backends():
    graph = k_regular_graph(120, 6, seed=43)
    with backend.using("python"):
        reference = minimum_partition_fraction(graph, rng=random.Random(5), resolution=0.1)
        reference_report = partition_after_fraction(graph, 0.5, rng=random.Random(6))
    with backend.using("fast"):
        vectorized = minimum_partition_fraction(graph, rng=random.Random(5), resolution=0.1)
        vectorized_report = partition_after_fraction(graph, 0.5, rng=random.Random(6))
    assert vectorized == reference
    assert vectorized_report == reference_report


def test_missing_node_raises_on_both_backends():
    graph = ring_graph(5)
    for impl in (metrics, fast):
        with pytest.raises(Exception):
            impl.shortest_path_lengths_from(graph, "ghost")
        with pytest.raises(Exception):
            impl.eccentricity(graph, "ghost")


def test_string_node_ids_supported():
    graph = UndirectedGraph(edges=[("a", "b"), ("b", "c"), ("x", "y")])
    assert fast.connected_components(graph) == metrics.connected_components(graph)
    assert fast.shortest_path_lengths_from(graph, "a") == metrics.shortest_path_lengths_from(
        graph, "a"
    )


# ----------------------------------------------------------------------
# Per-node multi-source waves
# ----------------------------------------------------------------------
def test_per_node_waves_match_reference(zoo_graph):
    """The packed waves' per-node accumulators equal the pure-Python fold."""
    nodes = zoo_graph.nodes()
    assert_waves_match_reference(zoo_graph, nodes[:: max(1, len(nodes) // 10)])


def test_per_node_waves_chunk_past_wave_width(wave_width):
    """More sources than one 64-bit wave: chunking must not change results."""
    graph = k_regular_graph(150, 6, seed=71)
    with wave_width(64), telemetry.collecting() as collector:
        assert_waves_match_reference(graph)  # 150 sources -> 3 waves
    assert collector.snapshot()["counters"]["wave.count"] == 3
    # The estimators run the same chunked waves over every node.
    assert fast.diameter(graph) == metrics.diameter(graph)
    assert fast.average_shortest_path_length(graph) == (
        metrics.average_shortest_path_length(graph)
    )


# ----------------------------------------------------------------------
# CSR cache under mutation
# ----------------------------------------------------------------------
def _assert_all_metrics_match(graph):
    assert fast.connected_components(graph) == metrics.connected_components(graph)
    assert fast.component_summary(graph) == (
        (lambda components: (len(components), len(components[0])) if components else (0, 0))(
            metrics.connected_components(graph)
        )
    )
    assert fast.degree_histogram(graph) == metrics.degree_histogram(graph)
    assert fast.diameter(graph) == metrics.diameter(graph)
    assert fast.average_degree_centrality(graph) == metrics.average_degree_centrality(graph)
    with backend.using("python"):
        top_degree = backend.top_degree_nodes(graph)
    assert fast.top_degree_nodes(graph) == top_degree
    for node in list(graph.nodes())[:3]:
        assert fast.shortest_path_lengths_from(graph, node) == (
            metrics.shortest_path_lengths_from(graph, node)
        )


def _dict_csr(graph):
    """``build_csr``'s general path spelled out: one dict lookup per edge."""
    adjacency = graph._adjacency
    nodes = list(adjacency)
    index_of = {node: i for i, node in enumerate(nodes)}
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(adjacency[node]) for node in nodes], dtype=np.int64)
    indices = np.array(
        [index_of[neighbor] for node in nodes for neighbor in adjacency[node]],
        dtype=np.int32,
    )
    return nodes, index_of, indptr, indices


def _with_holes():
    graph = k_regular_graph(200, 6, seed=11)
    for victim in random.Random(12).sample(graph.nodes(), 50):
        graph.remove_node(victim)
    return graph


def _shifted(graph, offset):
    return relabel(graph, {node: node + offset for node in graph.nodes()})


CSR_LABEL_ZOO = [
    ("contiguous", lambda: k_regular_graph(60, 4, seed=10)),
    ("holes", _with_holes),
    ("negative-ints", lambda: _shifted(ring_graph(40), -20)),
    # max label == 4n - 1 takes the array path, 4n the dict path.
    ("bound-inside", lambda: _shifted(ring_graph(10), 30)),
    ("bound-outside", lambda: _shifted(ring_graph(10), 31)),
    ("huge-sparse-ids", lambda: relabel(ring_graph(30), {i: i * 10**12 for i in range(30)})),
    ("bools", lambda: UndirectedGraph(edges=[(False, True), (True, 2), (2, 3), (3, False)])),
    ("numpy-ints", lambda: relabel(ring_graph(25), {i: np.int64(i) for i in range(25)})),
    ("mixed-int-numpy", lambda: relabel(ring_graph(25), {3: np.int32(3)})),
    ("strings", lambda: relabel(ring_graph(25), {i: f"n{i}" for i in range(25)})),
    ("mixed-int-str", lambda: relabel(ring_graph(25), {0: "zero"})),
    ("isolated-only", lambda: UndirectedGraph(nodes=[5, 1, 3])),
    ("empty", UndirectedGraph),
]


@pytest.mark.parametrize("make", [make for _, make in CSR_LABEL_ZOO],
                         ids=[name for name, _ in CSR_LABEL_ZOO])
@pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
def test_build_csr_matches_dict_path(make, block, monkeypatch):
    """The int-label array lookup builds exactly what the dict path builds,
    however its in-place relabelling is blocked."""
    if block is not None:
        monkeypatch.setattr(fast, "_RELABEL_BLOCK", block)
    graph = make()
    nodes, index_of, indptr, indices = _dict_csr(graph)
    csr = fast.build_csr(graph)
    assert [(type(node), node) for node in csr.nodes] == [(type(node), node) for node in nodes]
    assert [(type(key), key, value) for key, value in csr.index_of.items()] == [
        (type(key), key, value) for key, value in index_of.items()
    ]
    for built, expected in ((csr.indptr, indptr), (csr.indices, indices)):
        assert built.dtype == expected.dtype
        assert np.array_equal(built, expected)


def _assert_cache_is_fresh(graph):
    """The cached mirror equals a from-scratch build: no stale snapshot."""
    cached = fast.csr_of(graph)
    fresh = fast.build_csr(graph)
    assert cached.nodes == fresh.nodes
    assert cached.index_of == fresh.index_of
    assert np.array_equal(cached.indptr, fresh.indptr)
    assert np.array_equal(cached.indices, fresh.indices)


def _remove_node(graph, rng, step):
    graph.remove_node(rng.choice(graph.nodes()))


def _add_edge(graph, rng, step):
    graph.add_edge(*rng.sample(graph.nodes(), 2))


def _remove_edge(graph, rng, step):
    graph.remove_edge(*rng.choice(sorted(graph.edges(), key=repr)))


def _add_node(graph, rng, step):
    anchor = rng.choice(graph.nodes())
    graph.add_node(f"new-{step}")
    graph.add_edge(f"new-{step}", anchor)


def _readd_one_window(graph, rng, step):
    """Remove and re-add the same id with no cache read in between."""
    victim = rng.choice(graph.nodes())
    graph.remove_node(victim)
    graph.add_node(victim)
    graph.add_edge(victim, rng.choice([n for n in graph.nodes() if n != victim]))


def _readd_across_windows(graph, rng, step):
    """Remove an id, read the cache, then re-add the id."""
    victim = rng.choice(graph.nodes())
    graph.remove_node(victim)
    _assert_cache_is_fresh(graph)
    graph.add_node(victim)
    graph.add_edge(victim, rng.choice([n for n in graph.nodes() if n != victim]))


_INTERLEAVED = (
    _remove_node,
    _add_edge,
    _remove_edge,
    _add_node,
    _readd_one_window,
    _readd_across_windows,
)

MUTATION_SEQUENCES = {
    "remove-nodes": (_remove_node,) * 6,
    "edge-churn": (_add_edge, _remove_edge) * 4,
    "grow": (_add_node,) * 6,
    "readd-one-window": (_readd_one_window,) * 4,
    "readd-across-windows": (_readd_across_windows,) * 4,
    "interleaved": _INTERLEAVED * 4,
}


@pytest.mark.parametrize("sequence", list(MUTATION_SEQUENCES), ids=list(MUTATION_SEQUENCES))
def test_csr_of_tracks_mutation_sequences(sequence):
    """After every mutation step the cached mirror is fresh and kernels agree."""
    graph = k_regular_graph(120, 6, seed=81)
    rng = random.Random(82)
    _assert_cache_is_fresh(graph)
    for step, mutate in enumerate(MUTATION_SEQUENCES[sequence]):
        mutate(graph, rng, step)
        _assert_cache_is_fresh(graph)
        _assert_all_metrics_match(graph)


def test_removed_then_readded_in_one_window_rebuilds_correctly():
    graph = ring_graph(40)
    fast.csr_of(graph)
    graph.remove_node(5)
    graph.add_node(5)
    graph.add_edge(5, 6)
    graph.add_edge(5, 4)
    _assert_all_metrics_match(graph)


def test_patched_partition_summary_matches(zoo_graph):
    """Masked kernels agree with the reference after in-place mutations."""
    graph = zoo_graph.copy()
    fast.csr_of(graph)
    nodes = graph.nodes()
    for victim in nodes[: len(nodes) // 4]:
        graph.remove_node(victim)
    remaining = graph.nodes()
    victims = random.Random(87).sample(remaining, len(remaining) // 3) if remaining else []
    survivors = simultaneous_deletion_survivors(graph, victims)
    report = analyze_partition(survivors)
    assert fast.partition_summary_after_removal(graph, victims) == (
        report.surviving_nodes,
        report.component_count,
        report.largest_component,
        report.isolated_nodes,
    )


def test_add_leaf_equivalent_to_add_node_plus_edge():
    via_leaf = UndirectedGraph(edges=[(0, 1), (1, 2)])
    fast.csr_of(via_leaf)
    via_leaf.add_leaf("leaf", 1)
    via_generic = UndirectedGraph(edges=[(0, 1), (1, 2)])
    via_generic.add_node("leaf")
    via_generic.add_edge("leaf", 1)
    assert via_leaf.nodes() == via_generic.nodes()
    assert set(map(frozenset, via_leaf.edges())) == set(map(frozenset, via_generic.edges()))
    # Rebuilt after the leaf insertion, kernels still agree with the oracle.
    _assert_all_metrics_match(via_leaf)
    # Fallback path: existing node id routes through the general insertion.
    via_leaf.add_leaf("leaf", 2)
    assert via_leaf.has_edge("leaf", 2)


def test_induced_component_summary_identical_across_backends(zoo_graph):
    nodes = zoo_graph.nodes()
    keep = random.Random(90).sample(nodes, (2 * len(nodes)) // 3) if nodes else []
    keep.append("not-in-graph")  # absent ids are ignored on both paths
    with backend.using("python"):
        reference = backend.induced_component_summary(zoo_graph, keep)
    with backend.using("fast"):
        assert backend.induced_component_summary(zoo_graph, keep) == reference
    # Cross-check against the victim-oriented masked kernel: keeping K is
    # removing everything else.
    victims = [node for node in nodes if node not in set(keep)]
    assert reference == backend.partition_summary_after_removal(zoo_graph, victims)


def test_induced_component_summary_ignores_duplicate_keeps():
    """A repeated keep id is one node on both backends (no phantom rows)."""
    graph = UndirectedGraph(edges=[(0, 1), (1, 2), (3, 4)])
    keep = [0, 0, 1, 3, 3, 3]
    with backend.using("python"):
        reference = backend.induced_component_summary(graph, keep)
    with backend.using("fast"):
        assert backend.induced_component_summary(graph, keep) == reference
    assert reference == (3, 2, 2, 1)  # {0,1} together, {3} isolated


def test_full_path_metrics_identical_across_backends(zoo_graph):
    """Exact largest-component diameter/ASPL/closeness: the dispatcher pair."""
    with backend.using("python"):
        reference = backend.full_path_metrics(zoo_graph)
    with backend.using("fast"):
        assert backend.full_path_metrics(zoo_graph) == reference


def test_path_length_accumulators_identical_across_backends(zoo_graph):
    with backend.using("python"):
        reference = backend.path_length_accumulators(zoo_graph)
    with backend.using("fast"):
        assert backend.path_length_accumulators(zoo_graph) == reference


def test_top_degree_nodes_identical_across_backends(zoo_graph):
    with backend.using("python"):
        reference = backend.top_degree_nodes(zoo_graph)
    with backend.using("fast"):
        assert backend.top_degree_nodes(zoo_graph) == reference


# ----------------------------------------------------------------------
# CSR cache behaviour
# ----------------------------------------------------------------------
def test_csr_cache_reused_until_mutation():
    graph = k_regular_graph(40, 4, seed=51)
    first = fast.csr_of(graph)
    assert fast.csr_of(graph) is first  # no mutation -> same snapshot
    graph.remove_edge(*graph.edges()[0])
    second = fast.csr_of(graph)
    assert second is not first
    # Metric reads (non-mutating) keep the snapshot stable.
    fast.connected_components(graph)
    assert fast.csr_of(graph) is second


def test_csr_cache_invalidated_by_every_mutation_kind():
    graph = ring_graph(10)
    baseline = metrics.connected_components(graph)
    assert fast.connected_components(graph) == baseline

    graph.remove_edge(0, 1)
    assert fast.connected_components(graph) == metrics.connected_components(graph)
    graph.add_edge(0, 1)
    assert fast.connected_components(graph) == metrics.connected_components(graph)
    graph.remove_node(5)
    assert fast.connected_components(graph) == metrics.connected_components(graph)
    graph.add_node("fresh")
    assert fast.connected_components(graph) == metrics.connected_components(graph)


def test_overlay_repair_loop_stays_equivalent():
    """Interleave DDSR deletions (mutations) with fast metric reads."""
    from repro.core.ddsr import DDSROverlay

    overlay = DDSROverlay.k_regular(60, 6, seed=61)
    rng = random.Random(62)
    for _ in range(12):
        overlay.remove_node(rng.choice(overlay.nodes()))
        assert fast.number_connected_components(overlay.graph) == (
            metrics.number_connected_components(overlay.graph)
        )
        assert fast.degree_histogram(overlay.graph) == metrics.degree_histogram(overlay.graph)
        with backend.using("python"):
            reference_summary = overlay.connectivity_summary()
        with backend.using("fast"):
            assert overlay.connectivity_summary() == reference_summary


# ----------------------------------------------------------------------
# Backend selection layer
# ----------------------------------------------------------------------
def test_backend_use_and_restore():
    previous = backend.use("python")
    try:
        assert backend.resolve_for() == "python"
        with backend.using("fast"):
            assert backend.resolve_for() == "fast"
        assert backend.resolve_for() == "python"
    finally:
        backend.use(previous)


def test_backend_env_var_selection(monkeypatch):
    previous = backend.use(None)
    try:
        monkeypatch.setenv(backend.ENV_VAR, "fast")
        assert backend.policy() == "fast"
        assert backend.resolve_for() == "fast"
        monkeypatch.setenv(backend.ENV_VAR, "python")
        assert backend.resolve_for() == "python"
        monkeypatch.setenv(backend.ENV_VAR, "bogus")
        with pytest.raises(backend.BackendError):
            backend.policy()
    finally:
        backend.use(previous)


def test_backend_auto_picks_fast_iff_available(monkeypatch):
    """``auto`` is fast whenever numpy >= 2.0 imports."""
    previous = backend.use("auto")
    try:
        monkeypatch.delenv(backend.ENV_VAR, raising=False)
        assert backend.fast_available()
        assert backend.resolve_for() == "fast"
    finally:
        backend.use(previous)


def test_backend_auto_without_bitwise_count_is_python(monkeypatch):
    """numpy < 2.0 (no ``np.bitwise_count``): ``auto`` keeps the reference,
    and a forced ``fast`` fails loudly instead of degrading."""
    monkeypatch.delattr(np, "bitwise_count")
    assert not backend.fast_available()
    graph = ring_graph(8)
    with backend.using("auto"):
        assert backend.resolve_for() == "python"
        assert backend.diameter(graph) == metrics.diameter(graph)
    with backend.using("fast"):
        with pytest.raises(backend.BackendError, match="numpy >= 2.0"):
            backend.resolve_for()


def test_backend_auto_without_numpy_is_python(monkeypatch):
    """No numpy at all: ``auto`` runs the reference, with the same results."""
    graph = _two_rings_and_dust()
    expected = metrics.full_path_metrics(graph)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert not backend.fast_available()
    with backend.using("auto"):
        assert backend.resolve_for() == "python"
        assert backend.full_path_metrics(graph) == expected


def test_backend_forced_fast_without_numpy_raises(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with backend.using("fast"):
        with pytest.raises(backend.BackendError, match="numpy >= 2.0"):
            backend.diameter(ring_graph(8))


def test_backend_rejects_unknown_name():
    with pytest.raises(backend.BackendError):
        backend.use("numba")


def test_backend_dispatchers_cover_every_metric():
    graph = _two_rings_and_dust()
    with backend.using("fast"):
        assert backend.connected_components(graph) == metrics.connected_components(graph)
        assert backend.number_connected_components(graph) == (
            metrics.number_connected_components(graph)
        )
        assert backend.largest_component_fraction(graph) == (
            metrics.largest_component_fraction(graph)
        )
        assert backend.degree_histogram(graph) == metrics.degree_histogram(graph)
        assert backend.average_degree_centrality(graph) == (
            metrics.average_degree_centrality(graph)
        )
        assert backend.diameter(graph) == metrics.diameter(graph)
        assert backend.average_shortest_path_length(graph) == (
            metrics.average_shortest_path_length(graph)
        )
        assert backend.eccentricity(graph, 0) == metrics.eccentricity(graph, 0)
        assert backend.closeness_centrality(graph, 0) == metrics.closeness_centrality(graph, 0)
        assert backend.degree_centrality(graph, 0) == metrics.degree_centrality(graph, 0)
        assert backend.shortest_path_lengths_from(graph, 0) == (
            metrics.shortest_path_lengths_from(graph, 0)
        )
        assert backend.average_closeness_centrality(graph) == (
            metrics.average_closeness_centrality(graph)
        )
        assert backend.component_summary(graph) == fast.component_summary(graph)
        assert backend.full_path_metrics(graph) == metrics.full_path_metrics(graph)
        assert backend.path_length_accumulators(graph) == (
            metrics.path_length_accumulators(graph)
        )
