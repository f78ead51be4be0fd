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
    backend.use("auto")                    # default: fast iff the graph is
                                           # large enough and numpy imports

The ``REPRO_GRAPH_BACKEND`` environment variable (``python`` / ``fast`` /
``auto``) supplies the initial policy; :func:`use` overrides it at runtime.
Under ``auto`` the choice is made per call from the graph's size, so small
graphs keep the zero-overhead reference path while resilience sweeps at
paper scale and beyond get the CSR kernels transparently.

A second, independent knob controls the fast backend's multi-source BFS
wave width (sources advanced per bit-packed wave).  ``REPRO_BFS_BATCH``
supplies the initial policy (``auto`` or a positive source count) and
:func:`use_bfs_batch` / :func:`using_bfs_batch` override it at runtime;
``auto`` lets :func:`repro.graphs.fast.wave_batch` size waves from the
graph and the number of requested sources.  Results never depend on the
wave width -- only wall-clock time and memory do.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.core.errors import ConfigError
from repro.graphs import metrics
from repro.graphs.adjacency import UndirectedGraph

NodeId = Hashable

ENV_VAR = "REPRO_GRAPH_BACKEND"
BACKENDS = ("python", "fast", "auto")

#: Environment variable seeding the multi-source BFS wave-width policy:
#: ``auto`` (default) or a positive integer of sources per wave (rounded up
#: to whole 64-bit frontier words by the kernel).
BFS_BATCH_ENV_VAR = "REPRO_BFS_BATCH"

#: Set truthy to force the fast backend's byte-LUT row-popcount kernel even
#: when ``np.bitwise_count`` exists (the numpy < 2.0 fallback, kept honest
#: by a dedicated CI job).  Parsed here -- without importing numpy -- so the
#: runner's cache keys can cover it on any install.
POPCOUNT_LUT_ENV_VAR = "REPRO_FORCE_POPCOUNT_LUT"

#: Under ``auto``, graphs with at least this many nodes use the fast backend.
#: Below it the numpy fixed costs rival the pure-Python BFS runtime.
AUTO_THRESHOLD = 2048

_forced: Optional[str] = None
_forced_bfs_batch: "Optional[object]" = None  # None | "auto" | int >= 1


class BackendError(ConfigError):
    """Raised for unknown backend names, policies or unavailable backends.

    Subclasses :class:`repro.core.errors.ConfigError`: an invalid
    ``REPRO_GRAPH_BACKEND`` / ``REPRO_BFS_BATCH`` value is a configuration
    error and must fail loudly, never silently fall back to a default.
    """


def _validate(name: str, *, source: str = "") -> str:
    if name not in BACKENDS:
        origin = f"{source}=" if source else ""
        raise BackendError(
            f"invalid graph backend {origin}{name!r}; expected one of {BACKENDS}"
        )
    return name


def fast_available() -> bool:
    """Whether the vectorized backend can be used (numpy imports)."""
    try:
        import repro.graphs.fast  # noqa: F401
    except ImportError:
        return False
    return True


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


# ----------------------------------------------------------------------
# Multi-source BFS wave-width policy (threaded into repro.graphs.fast)
# ----------------------------------------------------------------------
def _validate_bfs_batch(value, *, source: str = ""):
    """Normalise a wave-width policy value to ``"auto"`` or a positive int."""
    origin = f"{source}=" if source else "BFS batch policy "
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return "auto"
        try:
            value = int(text)
        except ValueError:
            raise BackendError(
                f"invalid {origin}{value!r}; expected 'auto' or a "
                "positive integer of sources per wave"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise BackendError(
            f"invalid {origin}{value!r}; expected 'auto' or a "
            "positive integer of sources per wave"
        )
    return value


def use_bfs_batch(value) -> "Optional[object]":
    """Force the BFS wave-width policy process-wide; returns the previous value.

    ``value`` is ``"auto"`` or a positive source count per wave (the kernel
    rounds it up to whole 64-bit frontier words).  ``None`` clears the
    override, falling back to ``REPRO_BFS_BATCH`` (default ``auto``).  Wave
    width never changes results -- only wall-clock time and memory -- so this
    is a tuning knob, not a semantic switch.
    """
    global _forced_bfs_batch
    previous = _forced_bfs_batch
    _forced_bfs_batch = _validate_bfs_batch(value) if value is not None else None
    return previous


@contextmanager
def using_bfs_batch(value) -> Iterator[None]:
    """Context manager scoping a forced BFS wave-width policy."""
    previous = use_bfs_batch(value)
    try:
        yield
    finally:
        use_bfs_batch(previous)


def bfs_batch_policy():
    """The active wave-width policy: forced > environment > ``"auto"``.

    Returns ``"auto"`` or a positive integer of sources per wave.
    """
    if _forced_bfs_batch is not None:
        return _forced_bfs_batch
    env = os.environ.get(BFS_BATCH_ENV_VAR, "").strip()
    if env:
        return _validate_bfs_batch(env, source=BFS_BATCH_ENV_VAR)
    return "auto"


def popcount_lut_forced() -> bool:
    """Whether :data:`POPCOUNT_LUT_ENV_VAR` forces the LUT popcount kernel.

    Raises :class:`BackendError` (a :class:`~repro.core.errors.ConfigError`)
    for unrecognised values -- a kernel-selection typo must fail loudly, not
    silently pick a path.  :func:`repro.graphs.fast.configure_popcount`
    consumes this; it also feeds the runner's cache keys, so it deliberately
    avoids importing numpy.
    """
    raw = os.environ.get(POPCOUNT_LUT_ENV_VAR, "").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("", "0", "false", "no", "off"):
        return False
    raise BackendError(
        f"invalid {POPCOUNT_LUT_ENV_VAR}={raw!r}; expected 1/true/yes/on "
        "to force the LUT popcount fallback, or 0/false/no/off/unset"
    )


def resolve_for(graph: UndirectedGraph) -> str:
    """The backend a metric call on ``graph`` will use right now."""
    active = policy()
    if active == "python":
        return "python"
    if active == "fast":
        if not fast_available():
            raise BackendError(
                "graph backend forced to 'fast' but numpy is not importable"
            )
        return "fast"
    if graph.number_of_nodes() >= AUTO_THRESHOLD and fast_available():
        return "fast"
    return "python"


def _impl(graph: UndirectedGraph):
    if resolve_for(graph) == "fast":
        from repro.graphs import fast

        return fast
    return metrics


# ----------------------------------------------------------------------
# Dispatchers (signatures mirror repro.graphs.metrics)
# ----------------------------------------------------------------------
def shortest_path_lengths_from(graph: UndirectedGraph, source: NodeId) -> Dict[NodeId, int]:
    """BFS distances from ``source`` (active backend)."""
    return _impl(graph).shortest_path_lengths_from(graph, source)


def shortest_path_lengths_from_many(
    graph: UndirectedGraph, sources
) -> List[Dict[NodeId, int]]:
    """Batched BFS distances: one dict per source, in source order.

    The fast path advances all sources together as bit-packed multi-source
    BFS waves (one kernel invocation per level for up to 64 sources) instead
    of launching one BFS per source; the reference path is the equivalent
    loop.  Both return exactly what per-source
    :func:`shortest_path_lengths_from` calls would.
    """
    sources = list(sources)
    if resolve_for(graph) == "fast":
        from repro.graphs import fast

        return fast.shortest_path_lengths_from_many(graph, sources)
    return [metrics.shortest_path_lengths_from(graph, source) for source in sources]


def closeness_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Normalised closeness centrality of ``node`` (active backend)."""
    return _impl(graph).closeness_centrality(graph, node)


def average_closeness_centrality(
    graph: UndirectedGraph,
    *,
    sample_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> float:
    """Mean closeness centrality (active backend)."""
    return _impl(graph).average_closeness_centrality(
        graph, sample_size=sample_size, rng=rng
    )


def degree_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Degree centrality of ``node`` (active backend)."""
    return _impl(graph).degree_centrality(graph, node)


def average_degree_centrality(graph: UndirectedGraph) -> float:
    """Mean degree centrality (active backend)."""
    return _impl(graph).average_degree_centrality(graph)


def connected_components(graph: UndirectedGraph) -> List[Set[NodeId]]:
    """Connected components, largest first (active backend)."""
    return _impl(graph).connected_components(graph)


def number_connected_components(graph: UndirectedGraph) -> int:
    """Count of connected components (active backend)."""
    return _impl(graph).number_connected_components(graph)


def largest_component_fraction(graph: UndirectedGraph) -> float:
    """Fraction of nodes in the largest component (active backend)."""
    return _impl(graph).largest_component_fraction(graph)


def component_summary(graph: UndirectedGraph) -> Tuple[int, int]:
    """``(component_count, largest_component_size)`` in one pass.

    Cheaper than materialising every component when only the counts matter
    (takedown summaries, checkpoint records).
    """
    if resolve_for(graph) == "fast":
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
    if resolve_for(graph) == "fast":
        from repro.graphs import fast

        return fast.largest_component_subgraph(graph)
    if graph.number_of_nodes() == 0:
        return graph
    components = metrics.connected_components(graph)
    return graph if len(components) == 1 else graph.subgraph(components[0])


def eccentricity(graph: UndirectedGraph, node: NodeId) -> int:
    """Largest BFS distance from ``node`` (active backend)."""
    return _impl(graph).eccentricity(graph, node)


def diameter(
    graph: UndirectedGraph,
    *,
    sample_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
    largest_component_only: bool = True,
    connected: Optional[bool] = None,
) -> float:
    """Graph diameter, optionally sampled (active backend).

    Pass ``connected=True`` when the caller has just established the graph is
    connected (e.g. from :func:`component_summary`) to skip the redundant
    component scan on both backends.
    """
    return _impl(graph).diameter(
        graph,
        sample_size=sample_size,
        rng=rng,
        largest_component_only=largest_component_only,
        connected=connected,
    )


def average_shortest_path_length(
    graph: UndirectedGraph,
    *,
    sample_size: Optional[int] = None,
    rng: Optional[random.Random] = None,
    connected: Optional[bool] = None,
) -> float:
    """Mean pairwise distance, optionally sampled (active backend)."""
    return _impl(graph).average_shortest_path_length(
        graph, sample_size=sample_size, rng=rng, connected=connected
    )


def full_path_metrics(graph: UndirectedGraph) -> Dict:
    """Exact largest-component diameter / ASPL / closeness (active backend).

    ``{components, largest_fraction, diameter, avg_path_length,
    avg_closeness}`` with every node of the largest component as a BFS
    source.  The fast path computes all three metrics from *one*
    full-population wave campaign (per-node eccentricity max and
    level-weighted distance sums accumulated as the waves advance); the
    reference path runs one BFS per node.  Results are bit-identical.
    """
    return _impl(graph).full_path_metrics(graph)


def path_length_accumulators(graph: UndirectedGraph) -> Dict:
    """``{node: (eccentricity, distance_sum, reachable_count)}`` (active backend).

    Exact per-node path accumulators; per-node ASPL is
    ``distance_sum / reachable_count``.  Both backends return identical
    integers.
    """
    return _impl(graph).path_length_accumulators(graph)


def degree_histogram(graph: UndirectedGraph) -> Dict[int, int]:
    """Degree -> node-count histogram (active backend)."""
    return _impl(graph).degree_histogram(graph)


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
    if resolve_for(graph) == "fast":
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
    if resolve_for(graph) == "fast":
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
    if resolve_for(graph) == "fast":
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
