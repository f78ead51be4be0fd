"""Graph generators used by the experiments.

The paper's experiments start from k-regular random graphs (k = 5, 10, 15) of
5000 or 15000 nodes.  We implement a pairing-model k-regular generator directly
on :class:`~repro.graphs.adjacency.UndirectedGraph` plus Erdos--Renyi and
Barabasi--Albert generators used for robustness checks and ablations.

``networkx`` is optional and never imported at module level: only
:func:`to_networkx` (with :func:`from_networkx`, which just reads a graph,
the test-suite's cross-checks) and :func:`k_regular_graph`'s last-resort
fallback, reached after ``max_attempts`` failed pairings, import it when
they run.  Importing ``repro`` or running a campaign therefore loads none
of its ~320 modules.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Optional

from repro.graphs.adjacency import GraphError, UndirectedGraph
from repro.obs.telemetry import current as _telemetry

if TYPE_CHECKING:
    import networkx as nx


def _resolve_rng(rng: Optional[random.Random], seed: Optional[int]) -> random.Random:
    """Return an RNG from either an explicit instance or a seed."""
    if rng is not None:
        return rng
    return random.Random(seed)


def k_regular_graph(
    n: int,
    k: int,
    *,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    max_attempts: int = 200,
) -> UndirectedGraph:
    """Generate a random simple k-regular graph on ``n`` nodes (0..n-1).

    Uses the configuration (pairing) model with rejection of self-loops and
    multi-edges, restarting on failure.  ``n * k`` must be even and ``k < n``.
    After ``max_attempts`` failed attempts it falls back to networkx's
    ``random_regular_graph``; when networkx cannot be imported, that
    fallback raises :class:`GraphError` instead.

    The graph and the draws taken from ``rng`` are a fixed function of the
    rng's state, so callers that keep drawing from the same rng afterwards
    (``DDSROverlay.k_regular`` does) see a fixed stream too.  Changing
    what this function draws, or in which order, changes every seeded
    overlay and golden downstream.

    The attempts run in compiled code (``pairing.c``, loaded through
    :mod:`repro.graphs._wavekernel`) when the library loads, ``rng`` is
    exactly a ``random.Random`` (a subclass may override its draws) and
    ``n * k`` is below :data:`COMPILED_STUB_LIMIT`; otherwise in Python
    (:func:`_try_pairing_model`).  The C code replays ``random.Random``'s
    Mersenne Twister draw for draw from ``rng.getstate()`` and writes the
    final state back with ``rng.setstate``, so both paths build the same
    graph (adjacency sets filled in the same order, same
    ``mutation_stamp``) and leave ``rng`` in the same state, after failed
    attempts and before the networkx fallback too.  With numpy >= 2.0 the
    compiled path returns the graph packed (:meth:`UndirectedGraph.packed`):
    C's rows are its CSR, and those same sets are built only when a caller
    first uses the set API.  With telemetry on, the gauge
    ``generators.pairing`` names the path (``compiled``/``python``).

    Parameters mirror the paper's setup: ``k_regular_graph(5000, 10)`` builds
    the 10-regular, 5000-node overlay of Figure 5.
    """
    if n <= 0:
        raise GraphError(f"n must be positive, got {n}")
    if k < 0 or k >= n:
        raise GraphError(f"k must satisfy 0 <= k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise GraphError(f"n*k must be even for a k-regular graph (n={n}, k={k})")
    rng = _resolve_rng(rng, seed)

    if k == 0:
        return UndirectedGraph(nodes=range(n))

    kernel = _pairing_kernel(n, k, rng)
    tel = _telemetry()
    if tel.enabled:
        tel.gauge("generators.pairing", "python" if kernel is None else "compiled")
    if kernel is not None:
        graph = _compiled_pairing_model(kernel, n, k, rng, max_attempts)
        if graph is not None:
            return graph
    else:
        for _ in range(max_attempts):
            graph = _try_pairing_model(n, k, rng)
            if graph is not None:
                return graph
    # Fall back to networkx's generator, which uses a smarter algorithm and
    # practically always succeeds; convert back to our structure.
    try:
        import networkx as nx
    except ImportError as exc:
        raise GraphError(
            f"the pairing model failed {max_attempts} times for n={n}, k={k} "
            "and its fallback, networkx.random_regular_graph, needs networkx, "
            f"which cannot be imported ({exc})"
        ) from exc
    nx_graph = nx.random_regular_graph(k, n, seed=rng.randrange(2**32))
    return from_networkx(nx_graph)


def _try_pairing_model(n: int, k: int, rng: random.Random) -> Optional[UndirectedGraph]:
    """One attempt of the configuration model; ``None`` when it gets stuck.

    The no-compiler fallback and the oracle of ``pairing.c``.  Each
    ``stubs.pop(index)`` shifts the list, so one attempt costs O((nk)^2) in
    the worst case; the compiled path is what scales.
    """
    stubs = [node for node in range(n) for _ in range(k)]
    rng.shuffle(stubs)
    graph = UndirectedGraph(nodes=range(n))
    # Greedy matching of stubs with limited local retries.
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


#: ``n * k`` must stay below this for the compiled pairing model, whose
#: stub positions and draws are 32-bit.
COMPILED_STUB_LIMIT = 2**31


def _pairing_kernel(n: int, k: int, rng: random.Random):
    """The compiled pairing model if it can replay ``rng`` here, else ``None``."""
    if n * k >= COMPILED_STUB_LIMIT:
        return None
    # Imported here so that importing this module stays free of the
    # loader's subprocess/ctypes machinery (process set-up time).
    from repro.graphs import _wavekernel

    if not _wavekernel.MTState.replays(rng):
        return None
    return _wavekernel.load_pairing()


def _compiled_pairing_model(
    kernel, n: int, k: int, rng: random.Random, attempts: int
) -> Optional[UndirectedGraph]:
    """Up to ``attempts`` runs of :func:`_try_pairing_model` in compiled code.

    ``None`` when every attempt got stuck; ``rng`` ends where the Python
    attempts would leave it either way.

    With numpy >= 2.0 the graph comes back packed
    (:meth:`UndirectedGraph.packed`): C's rows, ``k`` per node, are its
    CSR ``indices`` as they are, and no adjacency set exists until a
    caller uses the set API.  Without numpy the sets are built here, with
    the same :meth:`UndirectedGraph.from_neighbor_rows` the packed graph
    materializes through.
    """
    import ctypes

    from repro.graphs import _wavekernel
    from repro.graphs.backend import fast_available

    state = _wavekernel.MTState(rng)
    size = n * k
    rows = (ctypes.c_int32 * size)()
    paired = kernel(
        n, k, attempts, state.words,
        (ctypes.c_int32 * size)(), (ctypes.c_int32 * size)(), rows,
        (ctypes.c_int32 * n)(),
    )
    state.commit()
    if not paired:
        return None
    # The rows hold node numbers; map each to its node key object, so the
    # adjacency sets share the keys instead of holding a copy of each int.
    nodes = list(range(n))
    if fast_available():
        import numpy as np

        from repro.graphs.fast import CSRGraph

        indptr = np.arange(0, size + 1, k, dtype=np.int64)
        indices = np.frombuffer(rows, dtype=np.int32)
        return UndirectedGraph.packed(CSRGraph(nodes, None, indptr, indices), n + size // 2)
    neighbors = map(nodes.__getitem__, memoryview(rows).cast("B").cast("i"))
    return UndirectedGraph.from_neighbor_rows(nodes, zip(*[neighbors] * k))


def erdos_renyi_graph(
    n: int,
    p: float,
    *,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> UndirectedGraph:
    """Erdos--Renyi G(n, p) random graph on nodes 0..n-1."""
    if n <= 0:
        raise GraphError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"p must be in [0, 1], got {p}")
    rng = _resolve_rng(rng, seed)
    graph = UndirectedGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def barabasi_albert_graph(
    n: int,
    m: int,
    *,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> UndirectedGraph:
    """Barabasi--Albert preferential-attachment graph (used in ablations)."""
    if m < 1 or m >= n:
        raise GraphError(f"m must satisfy 1 <= m < n, got m={m}, n={n}")
    rng = _resolve_rng(rng, seed)
    graph = UndirectedGraph(nodes=range(m))
    # Start from a star over the first m+1 nodes so every node has degree >= 1.
    graph.add_node(m)
    for node in range(m):
        graph.add_edge(m, node)
    repeated: list[int] = [m] * m + list(range(m))
    for new_node in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        graph.add_node(new_node)
        for target in targets:
            graph.add_edge(new_node, target)
            repeated.append(target)
            repeated.append(new_node)
    return graph


def ring_graph(n: int) -> UndirectedGraph:
    """A simple cycle on ``n`` nodes (used by small worked examples)."""
    if n < 3:
        raise GraphError(f"a ring needs at least 3 nodes, got {n}")
    graph = UndirectedGraph(nodes=range(n))
    for node in range(n):
        graph.add_edge(node, (node + 1) % n)
    return graph


def to_networkx(graph: UndirectedGraph) -> nx.Graph:
    """Convert our adjacency structure into a ``networkx.Graph``."""
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


def from_networkx(nx_graph: nx.Graph) -> UndirectedGraph:
    """Convert a ``networkx.Graph`` into our adjacency structure."""
    graph = UndirectedGraph(nodes=nx_graph.nodes())
    for u, v in nx_graph.edges():
        if u == v:
            continue
        graph.add_edge(u, v)
    return graph


def relabel(graph: UndirectedGraph, mapping: dict) -> UndirectedGraph:
    """Return a copy of ``graph`` with node ids replaced via ``mapping``."""
    relabeled = UndirectedGraph()
    for node in graph.nodes():
        relabeled.add_node(mapping.get(node, node))
    for u, v in graph.edges():
        relabeled.add_edge(mapping.get(u, u), mapping.get(v, v))
    return relabeled


def induced_on(graph: UndirectedGraph, nodes: Iterable) -> UndirectedGraph:
    """Convenience wrapper around :meth:`UndirectedGraph.subgraph`."""
    return graph.subgraph(nodes)
