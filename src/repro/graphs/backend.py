"""Graph-metric backend selection: pure-Python reference vs vectorized CSR.

Two interchangeable kernel sets compute the paper's graph metrics:

* ``"python"`` -- the readable BFS reference in :mod:`repro.graphs.metrics`
  (the oracle the differential tests trust);
* ``"fast"`` -- the vectorized CSR kernels in :mod:`repro.graphs.fast`
  (numpy), ~10-100x faster at the 20k--100k-node scales the large runner
  scenarios sweep.

Both return identical results (enforced by
``tests/graphs/test_backend_equivalence.py``), so call sites route through
the dispatchers below and pick up whichever backend is active:

    from repro.graphs import backend

    backend.use("fast")                    # force, process-wide
    with backend.using("python"):          # force, scoped
        ...
    backend.use("auto")                    # default: fast iff numpy >= 2.0
                                           # imports

The ``REPRO_GRAPH_BACKEND`` environment variable (``python`` / ``fast`` /
``auto``) supplies the initial policy; :func:`use` overrides it at runtime.
``auto`` has one rule: the CSR kernels whenever :func:`fast_available`, the
reference otherwise -- whatever the graph's size.  ``python`` stays the
oracle switch the differential tests flip.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.core.errors import ConfigError
from repro.graphs import metrics
from repro.graphs.adjacency import UndirectedGraph

NodeId = Hashable

ENV_VAR = "REPRO_GRAPH_BACKEND"
BACKENDS = ("python", "fast", "auto")

_forced: Optional[str] = None


class BackendError(ConfigError):
    """Raised for unknown backend names, policies or unavailable backends.

    Subclasses :class:`repro.core.errors.ConfigError`: an invalid
    ``REPRO_GRAPH_BACKEND`` value is a configuration error and must fail
    loudly, never silently fall back to a default.
    """


def _validate(name: str, *, source: str = "") -> str:
    if name not in BACKENDS:
        origin = f"{source}=" if source else ""
        raise BackendError(
            f"invalid graph backend {origin}{name!r}; expected one of {BACKENDS}"
        )
    return name


def fast_available() -> bool:
    """Whether the vectorized backend can be used: numpy >= 2.0 imports.

    The fast kernels count frontier bits with ``np.bitwise_count``, which
    numpy 2.0 introduced; an older numpy leaves the reference path.
    """
    try:
        import numpy as np

        import repro.graphs.fast  # noqa: F401
    except ImportError:
        return False
    return hasattr(np, "bitwise_count")


def use(name: Optional[str]) -> Optional[str]:
    """Force a backend policy process-wide; returns the previous forced value.

    ``None`` clears the override, falling back to ``REPRO_GRAPH_BACKEND``
    (default ``auto``).
    """
    global _forced
    previous = _forced
    _forced = _validate(name) if name is not None else None
    return previous


@contextmanager
def using(name: str) -> Iterator[None]:
    """Context manager scoping a forced backend policy."""
    previous = use(name)
    try:
        yield
    finally:
        use(previous)


def policy() -> str:
    """The active selection policy: forced > environment > ``auto``.

    An invalid ``REPRO_GRAPH_BACKEND`` value raises a
    :class:`~repro.core.errors.ConfigError` (via :class:`BackendError`)
    naming the variable -- a typo must never silently route metric calls
    through an unintended backend.
    """
    if _forced is not None:
        return _forced
    env = os.environ.get(ENV_VAR, "").strip().lower()
    if env:
        return _validate(env, source=ENV_VAR)
    return "auto"


def resolve_for() -> str:
    """The backend a metric call will use right now."""
    active = policy()
    if active == "python":
        return "python"
    if fast_available():
        return "fast"
    if active == "fast":
        raise BackendError(
            "graph backend forced to 'fast' but numpy >= 2.0 is not importable"
        )
    return "python"


def _impl():
    if resolve_for() == "fast":
        from repro.graphs import fast

        return fast
    return metrics


# ----------------------------------------------------------------------
# Dispatchers (signatures mirror repro.graphs.metrics)
# ----------------------------------------------------------------------
def shortest_path_lengths_from(graph: UndirectedGraph, source: NodeId) -> Dict[NodeId, int]:
    """BFS distances from ``source`` (active backend)."""
    return _impl().shortest_path_lengths_from(graph, source)


def closeness_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Normalised closeness centrality of ``node`` (active backend)."""
    return _impl().closeness_centrality(graph, node)


def average_closeness_centrality(graph: UndirectedGraph) -> float:
    """Mean closeness centrality (active backend)."""
    return _impl().average_closeness_centrality(graph)


def degree_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Degree centrality of ``node`` (active backend)."""
    return _impl().degree_centrality(graph, node)


def average_degree_centrality(graph: UndirectedGraph) -> float:
    """Mean degree centrality (active backend)."""
    return _impl().average_degree_centrality(graph)


def connected_components(graph: UndirectedGraph) -> List[Set[NodeId]]:
    """Connected components, largest first (active backend)."""
    return _impl().connected_components(graph)


def number_connected_components(graph: UndirectedGraph) -> int:
    """Count of connected components (active backend)."""
    return _impl().number_connected_components(graph)


def largest_component_fraction(graph: UndirectedGraph) -> float:
    """Fraction of nodes in the largest component (active backend)."""
    return _impl().largest_component_fraction(graph)


def component_summary(graph: UndirectedGraph) -> Tuple[int, int]:
    """``(component_count, largest_component_size)`` in one pass.

    Cheaper than materialising every component when only the counts matter
    (takedown summaries, checkpoint records).
    """
    if resolve_for() == "fast":
        from repro.graphs import fast

        return fast.component_summary(graph)
    components = metrics.connected_components(graph)
    if not components:
        return 0, 0
    return len(components), len(components[0])


def largest_component_subgraph(graph: UndirectedGraph) -> UndirectedGraph:
    """``graph`` when connected, else the induced largest-component subgraph.

    Lets callers that need several path metrics on a disconnected graph
    extract the component once and pass ``connected=True`` to each metric,
    instead of every metric re-deriving it.  ``UndirectedGraph.subgraph``
    orders nodes canonically, so both backends return the same subgraph.
    """
    if resolve_for() == "fast":
        from repro.graphs import fast

        return fast.largest_component_subgraph(graph)
    if graph.number_of_nodes() == 0:
        return graph
    components = metrics.connected_components(graph)
    return graph if len(components) == 1 else graph.subgraph(components[0])


def eccentricity(graph: UndirectedGraph, node: NodeId) -> int:
    """Largest BFS distance from ``node`` (active backend)."""
    return _impl().eccentricity(graph, node)


def diameter(
    graph: UndirectedGraph,
    *,
    largest_component_only: bool = True,
    connected: Optional[bool] = None,
) -> float:
    """Graph diameter (active backend).

    Pass ``connected=True`` when the caller has just established the graph is
    connected (e.g. from :func:`component_summary`) to skip the redundant
    component scan on both backends.
    """
    return _impl().diameter(
        graph, largest_component_only=largest_component_only, connected=connected
    )


def average_shortest_path_length(
    graph: UndirectedGraph,
    *,
    connected: Optional[bool] = None,
) -> float:
    """Mean pairwise distance inside the largest component (active backend)."""
    return _impl().average_shortest_path_length(graph, connected=connected)


def full_path_metrics(graph: UndirectedGraph) -> Dict:
    """Exact largest-component diameter / ASPL / closeness (active backend).

    ``{components, largest_fraction, diameter, avg_path_length,
    avg_closeness}`` with every node of the largest component as a BFS
    source.  The fast path computes all three metrics from *one*
    full-population wave campaign (per-node eccentricity max and
    level-weighted distance sums accumulated as the waves advance); the
    reference path runs one BFS per node.  Results are bit-identical.
    """
    return _impl().full_path_metrics(graph)


def path_length_accumulators(graph: UndirectedGraph) -> Dict:
    """``{node: (eccentricity, distance_sum, reachable_count)}`` (active backend).

    Exact per-node path accumulators; per-node ASPL is
    ``distance_sum / reachable_count``.  Both backends return identical
    integers.
    """
    return _impl().path_length_accumulators(graph)


def degree_histogram(graph: UndirectedGraph) -> Dict[int, int]:
    """Degree -> node-count histogram (active backend)."""
    return _impl().degree_histogram(graph)


def top_degree_nodes(graph: UndirectedGraph) -> List[NodeId]:
    """All maximum-degree nodes, sorted by ``repr`` (empty for an empty graph).

    Backs the hub-targeted takedown's per-victim candidate search: the fast
    path is an argmax over the cached CSR degree array, the reference path
    the equivalent dict scan.  The ``repr`` sort
    makes the list identical on both backends, so the strategy's rng draw is
    backend-independent.
    """
    if graph.number_of_nodes() == 0:
        return []
    if resolve_for() == "fast":
        from repro.graphs import fast

        return fast.top_degree_nodes(graph)
    degrees = graph.degrees()
    top = max(degrees.values())
    return sorted((node for node, degree in degrees.items() if degree == top), key=repr)


def induced_component_summary(
    graph: UndirectedGraph, keep_nodes
) -> Tuple[int, int, int, int]:
    """``(surviving, components, largest, isolated)`` of an induced subgraph.

    The complement of :func:`partition_summary_after_removal`: the caller
    names the nodes to *keep*.  The fast path builds a compact CSR straight
    from the kept nodes' adjacency (never mirroring the full graph -- the
    point when the kept set is a small minority, e.g. the benign bots of a
    clone-flooded SOAP overlay); the reference path materialises the
    subgraph and walks it with the pure-Python kernels.
    """
    keep_nodes = list(keep_nodes)
    if resolve_for() == "fast":
        from repro.graphs import fast

        return fast.induced_component_summary(graph, keep_nodes)
    # dict.fromkeys: duplicates are one node (mirrors the fast path's dedup).
    present = [node for node in dict.fromkeys(keep_nodes) if node in graph]
    subgraph = graph.subgraph(present)
    components = metrics.connected_components(subgraph)
    if not components:
        return len(present), 0, 0, 0
    isolated = sum(1 for component in components if len(component) == 1)
    return len(present), len(components), len(components[0]), isolated


def partition_summary_after_removal(
    graph: UndirectedGraph, victims
) -> Tuple[int, int, int, int]:
    """``(surviving, components, largest, isolated)`` after a mass removal.

    The fast backend computes this on a masked CSR without building the
    survivor subgraph; the reference path materialises the subgraph exactly
    like :func:`repro.graphs.partition.simultaneous_deletion_survivors`.
    """
    if resolve_for() == "fast":
        from repro.graphs import fast

        return fast.partition_summary_after_removal(graph, list(victims))
    victim_set = set(victims)
    if victim_set:
        survivors = [node for node in graph.nodes() if node not in victim_set]
        subgraph = graph.subgraph(survivors)
    else:
        subgraph = graph
    components = metrics.connected_components(subgraph)
    if not components:
        return 0, 0, 0, 0
    isolated = sum(1 for component in components if len(component) == 1)
    return (
        subgraph.number_of_nodes(),
        len(components),
        len(components[0]),
        isolated,
    )
