"""Graph substrate for the OnionBots reproduction.

The paper's entire quantitative evaluation (Figures 4, 5 and 6) is expressed in
graph-theoretic terms: closeness centrality, degree centrality, diameter,
connected components and partition thresholds of k-regular overlays subjected
to node deletions.  This package provides:

* :class:`~repro.graphs.adjacency.UndirectedGraph` -- a mutable adjacency-set
  graph with neighbour-of-neighbour (NoN) queries, the data structure the DDSR
  overlay is built on.
* :mod:`~repro.graphs.generators` -- k-regular, Erdos--Renyi and
  Barabasi--Albert generators plus conversion to/from ``networkx``.  The
  package itself needs neither ``networkx`` (imported only by the
  converters and the k-regular generator's last-resort fallback) nor
  ``numpy`` (numpy >= 2.0 enables the ``fast`` backend) nor a C compiler
  (which builds the compiled kernels; without one, Python twins give the
  same results).
* :mod:`~repro.graphs.metrics` -- our own BFS-based implementations of every
  metric the paper reports (cross-checked against ``networkx`` in the tests);
  every path metric is exact.
* :mod:`~repro.graphs.fast` -- vectorized CSR (numpy) twins of every metric
  kernel, differential-tested to return results identical to ``metrics``.
* :mod:`~repro.graphs.backend` -- backend selection (``python`` / ``fast`` /
  ``auto``, which is fast whenever numpy >= 2.0 imports;
  ``REPRO_GRAPH_BACKEND``) and the dispatchers the overlay, adversary and
  experiment layers call.
* :mod:`~repro.graphs.partition` -- connected-component and partition-threshold
  analysis used by Figure 6.
"""

from repro.graphs import backend

from repro.graphs.adjacency import GraphError, UndirectedGraph
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    from_networkx,
    k_regular_graph,
    ring_graph,
    to_networkx,
)
from repro.graphs.metrics import (
    average_closeness_centrality,
    average_degree_centrality,
    closeness_centrality,
    connected_components,
    degree_centrality,
    diameter,
    largest_component_fraction,
    number_connected_components,
    shortest_path_lengths_from,
)
from repro.graphs.partition import PartitionReport, analyze_partition, is_partitioned

__all__ = [
    "UndirectedGraph",
    "GraphError",
    "backend",
    "k_regular_graph",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "ring_graph",
    "to_networkx",
    "from_networkx",
    "closeness_centrality",
    "average_closeness_centrality",
    "degree_centrality",
    "average_degree_centrality",
    "diameter",
    "connected_components",
    "number_connected_components",
    "largest_component_fraction",
    "shortest_path_lengths_from",
    "PartitionReport",
    "analyze_partition",
    "is_partitioned",
]
