"""Graph metrics reported in the paper's evaluation.

Figure 4 plots average closeness and degree centrality; Figure 5 adds connected
components and diameter; Figure 6 derives a partition threshold.  All of these
are implemented here with plain BFS over the adjacency sets so they work
directly on :class:`~repro.graphs.adjacency.UndirectedGraph` (the structure the
live overlay mutates), and are cross-checked against ``networkx`` in the
test-suite.

Every path metric here is exact: closeness, diameter and average shortest
path length run one BFS from every node, O(n * (n + m)) in pure Python.  At
the paper's 5000--15000-node scale and beyond use the fast backend
(:mod:`repro.graphs.fast`), which returns the same values from one
multi-source wave campaign.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Set

from repro.graphs.adjacency import GraphError, UndirectedGraph

NodeId = Hashable


def shortest_path_lengths_from(graph: UndirectedGraph, source: NodeId) -> Dict[NodeId, int]:
    """BFS distances from ``source`` to every reachable node (including itself)."""
    if source not in graph:
        raise GraphError(f"source {source!r} not in graph")
    distances: Dict[NodeId, int] = {source: 0}
    frontier: deque[NodeId] = deque([source])
    while frontier:
        node = frontier.popleft()
        node_distance = distances[node]
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = node_distance + 1
                frontier.append(neighbor)
    return distances


def closeness_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Normalised closeness centrality of ``node``.

    Follows the paper's definition ``C(u) = (n - 1) / sum_v d(u, v)`` with the
    standard Wasserman--Faust correction for disconnected graphs (scale by the
    fraction of nodes actually reachable), matching ``networkx``'s behaviour so
    that the two implementations can be compared in the tests.
    """
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    distances = shortest_path_lengths_from(graph, node)
    reachable = len(distances) - 1
    if reachable == 0:
        return 0.0
    total = sum(distances.values())
    closeness = reachable / total
    # Scale by reachable fraction so values remain comparable across components.
    return closeness * (reachable / (n - 1))


def average_closeness_centrality(graph: UndirectedGraph) -> float:
    """Mean closeness centrality over all nodes."""
    nodes = graph.nodes()
    if not nodes:
        return 0.0
    return sum(closeness_centrality(graph, node) for node in nodes) / len(nodes)


def degree_centrality(graph: UndirectedGraph, node: NodeId) -> float:
    """Degree of ``node`` normalised by ``n - 1`` (fraction of nodes adjacent)."""
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    return graph.degree(node) / (n - 1)


def average_degree_centrality(graph: UndirectedGraph) -> float:
    """Mean degree centrality over every node."""
    n = graph.number_of_nodes()
    if n <= 1:
        return 0.0
    total_degree = sum(graph.degrees().values())
    return (total_degree / n) / (n - 1)


def connected_components(graph: UndirectedGraph) -> List[Set[NodeId]]:
    """All connected components as sets of nodes (largest first)."""
    seen: Set[NodeId] = set()
    components: List[Set[NodeId]] = []
    for node in graph.nodes():
        if node in seen:
            continue
        component = set(shortest_path_lengths_from(graph, node))
        seen.update(component)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def number_connected_components(graph: UndirectedGraph) -> int:
    """Count of connected components (0 for an empty graph)."""
    return len(connected_components(graph))


def largest_component_fraction(graph: UndirectedGraph) -> float:
    """Fraction of surviving nodes inside the largest connected component."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0
    components = connected_components(graph)
    return len(components[0]) / n


def eccentricity(graph: UndirectedGraph, node: NodeId) -> int:
    """Largest BFS distance from ``node`` within its component."""
    distances = shortest_path_lengths_from(graph, node)
    return max(distances.values()) if distances else 0


def diameter(
    graph: UndirectedGraph,
    *,
    largest_component_only: bool = True,
    connected: Optional[bool] = None,
) -> float:
    """Diameter (longest shortest path) of the graph.

    The paper treats a partitioned graph as having infinite diameter; by
    default we therefore restrict to the largest connected component, matching
    how Figure 5e/5f keep reporting finite values for the DDSR curve while the
    "normal" curve is cut off when it partitions.  Set
    ``largest_component_only=False`` to get ``float('inf')`` on partitioned
    graphs instead.

    ``connected=True`` asserts the caller already knows the graph has a
    single component (the DDSR sweeps compute the component count right
    before the diameter at every checkpoint), skipping the redundant
    component scan without changing the result.
    """
    if graph.number_of_nodes() == 0:
        return 0.0
    if connected:
        working = graph
    else:
        components = connected_components(graph)
        if len(components) > 1 and not largest_component_only:
            return float("inf")
        working = graph if len(components) == 1 else graph.subgraph(components[0])
    best = 0
    for node in working.nodes():
        best = max(best, eccentricity(working, node))
    return float(best)


def average_shortest_path_length(
    graph: UndirectedGraph,
    *,
    connected: Optional[bool] = None,
) -> float:
    """Mean pairwise distance inside the largest component.

    ``connected=True`` skips the component scan when the caller has already
    established connectivity (see :func:`diameter`).
    """
    if graph.number_of_nodes() <= 1:
        return 0.0
    if connected:
        working = graph
    else:
        components = connected_components(graph)
        working = graph if len(components) == 1 else graph.subgraph(components[0])
    total = 0
    pairs = 0
    for node in working.nodes():
        distances = shortest_path_lengths_from(working, node)
        total += sum(distances.values())
        pairs += len(distances) - 1
    if pairs == 0:
        return 0.0
    return total / pairs


def full_path_metrics(graph: UndirectedGraph) -> Dict:
    """Exact diameter, ASPL and closeness of the largest component.

    Returns ``{components, largest_fraction, diameter, avg_path_length,
    avg_closeness}`` with every node of the largest component as a BFS
    source.  This is the readable reference the fast
    backend's one-campaign :func:`repro.graphs.fast.full_path_metrics` must
    reproduce bit for bit; at paper scale and beyond use that one (this is
    O(n * (n + m))).

    One all-pairs sweep (:func:`path_length_accumulators`) feeds all three
    metrics with the arithmetic of :func:`diameter`,
    :func:`average_shortest_path_length` and
    :func:`average_closeness_centrality`: the max eccentricity, the integer
    distance total over the pair count, and the per-node closeness summed in
    node order.
    """
    n = graph.number_of_nodes()
    if n == 0:
        return {
            "components": 0,
            "largest_fraction": 0.0,
            "diameter": 0.0,
            "avg_path_length": 0.0,
            "avg_closeness": 0.0,
        }
    components = connected_components(graph)
    working = graph if len(components) == 1 else graph.subgraph(components[0])
    accumulators = list(path_length_accumulators(working).values())
    count = len(accumulators)
    pairs = sum(reached for _, _, reached in accumulators)
    closeness = sum(
        reached / total * (reached / (count - 1)) if reached else 0.0
        for _, total, reached in accumulators
    )
    return {
        "components": len(components),
        "largest_fraction": len(components[0]) / n,
        "diameter": float(max(ecc for ecc, _, _ in accumulators)),
        "avg_path_length": (
            sum(total for _, total, _ in accumulators) / pairs if pairs else 0.0
        ),
        "avg_closeness": closeness / count,
    }


def path_length_accumulators(graph: UndirectedGraph) -> Dict[NodeId, tuple]:
    """``{node: (eccentricity, distance_sum, reachable_count)}`` -- all exact.

    One BFS per node; per-node ASPL is ``distance_sum / reachable_count``.
    The oracle for :func:`repro.graphs.fast.path_length_accumulators`, which
    assembles the same integers from transposed per-node wave accumulation.
    """
    result: Dict[NodeId, tuple] = {}
    for node in graph.nodes():
        distances = shortest_path_lengths_from(graph, node)
        result[node] = (
            max(distances.values()) if distances else 0,
            sum(distances.values()),
            len(distances) - 1,
        )
    return result


def degree_histogram(graph: UndirectedGraph) -> Dict[int, int]:
    """Mapping of degree value -> number of nodes with that degree."""
    histogram: Dict[int, int] = {}
    for degree_value in graph.degrees().values():
        histogram[degree_value] = histogram.get(degree_value, 0) + 1
    return histogram

