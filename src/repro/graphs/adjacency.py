"""Mutable undirected graph with neighbour-of-neighbour queries.

The DDSR (Dynamic Distributed Self-Repairing) construction in the paper is
defined over an undirected graph where every node additionally knows the
identities of its neighbours' neighbours.  This module provides that data
structure.  Node identifiers are arbitrary hashable objects -- the overlay
layer uses ``.onion`` address strings, the experiment harness uses integers.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Set, Tuple

NodeId = Hashable


class GraphError(ValueError):
    """Raised for invalid graph operations (missing nodes, self-loops...)."""


class UndirectedGraph:
    """A simple undirected graph backed by adjacency sets.

    Self-loops are rejected; parallel edges collapse into a single edge.
    """

    def __init__(self, nodes: Iterable[NodeId] = (), edges: Iterable[Tuple[NodeId, NodeId]] = ()) -> None:
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}
        #: Incremented on every structural change; derived representations
        #: (e.g. the fast backend's cached CSR arrays) key their caches on it.
        self._mutations: int = 0
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_neighbor_rows(
        cls, nodes: Sequence[NodeId], rows: Iterable[Iterable[NodeId]]
    ) -> "UndirectedGraph":
        """The graph in which ``nodes[i]`` has the neighbours ``rows[i]``.

        Equal to adding every node in order and then the edges so that
        each node's neighbours arrive in its row's order: the adjacency
        sets are filled in row order and ``mutation_stamp`` is the node
        count plus the edge count.  The rows must be symmetric and free of
        self-loops and repeats; they are not checked.  Neighbours are
        stored as given, so rows that hold the very ``nodes`` objects keep
        one object per node.
        """
        graph = cls()
        graph._adjacency = dict(zip(nodes, map(set, rows)))
        degrees = sum(map(len, graph._adjacency.values()))
        graph._mutations = len(graph._adjacency) + degrees // 2
        return graph

    @property
    def mutation_stamp(self) -> int:
        """Counter of structural changes (nodes/edges added or removed)."""
        return self._mutations

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add ``node`` (no-op if already present)."""
        if node not in self._adjacency:
            self._adjacency[node] = set()
            self._mutations += 1

    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns ``True`` when a new edge was created, ``False`` if it already
        existed.  Both endpoints are created if missing.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed: {u!r}")
        self.add_node(u)
        self.add_node(v)
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._mutations += 1
        return True

    def add_leaf(self, node: NodeId, anchor: NodeId) -> None:
        """Add a brand-new ``node`` with a single edge to existing ``anchor``.

        Exactly equivalent to ``add_node(node); add_edge(node, anchor)`` (the
        general path is taken if ``node`` already exists or ``anchor`` does
        not), but with one membership check instead of five -- this is the
        per-clone insertion step of the SOAP attack, executed hundreds of
        thousands of times per campaign.
        """
        adjacency = self._adjacency
        if node in adjacency or anchor not in adjacency or node == anchor:
            self.add_node(node)
            self.add_edge(node, anchor)
            return
        adjacency[node] = {anchor}
        adjacency[anchor].add(node)
        self._mutations += 2

    def remove_edge(self, u: NodeId, v: NodeId) -> bool:
        """Remove the edge ``(u, v)`` if it exists.  Returns whether it did."""
        if u not in self._adjacency or v not in self._adjacency:
            return False
        if v not in self._adjacency[u]:
            return False
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._mutations += 1
        return True

    def remove_node(self, node: NodeId) -> List[NodeId]:
        """Remove ``node`` and every incident edge.

        Returns the list of former neighbours (in sorted-by-repr order for
        determinism), which is exactly what the DDSR repair step needs.
        """
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        neighbors = sorted(self._adjacency[node], key=repr)
        for neighbor in neighbors:
            self._adjacency[neighbor].discard(node)
        del self._adjacency[node]
        self._mutations += 1
        return neighbors

    def compact(self, nodes: Iterable[NodeId]) -> None:
        """Rebuild the neighbour set of every node of ``nodes`` still present.

        A set's hash table grows with its peak size and never shrinks, so a
        set that briefly held many peers (a DDSR clique repair) keeps that
        table after pruning.  ``set(peers)`` sizes a new table for the
        current peers.  Membership and ``mutation_stamp`` do not change;
        iteration order may, as a function of the old set alone, so graphs
        that went through the same mutations still agree after it.
        Repeats and absent nodes are skipped.
        """
        adjacency = self._adjacency
        for node in dict.fromkeys(nodes):
            peers = adjacency.get(node)
            if peers is not None:
                adjacency[node] = set(peers)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether the undirected edge ``(u, v)`` is present."""
        return u in self._adjacency and v in self._adjacency[u]

    def nodes(self) -> List[NodeId]:
        """All node identifiers (in insertion order)."""
        return list(self._adjacency)

    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Every edge exactly once."""
        seen: Set[Tuple[NodeId, NodeId]] = set()
        result: List[Tuple[NodeId, NodeId]] = []
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                key = (u, v) if repr(u) <= repr(v) else (v, u)
                if key in seen:
                    continue
                seen.add(key)
                result.append(key)
        return result

    def number_of_nodes(self) -> int:
        """Count of nodes."""
        return len(self._adjacency)

    def number_of_edges(self) -> int:
        """Count of undirected edges."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """A copy of the neighbour set of ``node``."""
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        return set(self._adjacency[node])

    def degree(self, node: NodeId) -> int:
        """Number of neighbours of ``node``."""
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        return len(self._adjacency[node])

    def degrees(self) -> Dict[NodeId, int]:
        """Mapping of every node to its degree."""
        return {node: len(neighbors) for node, neighbors in self._adjacency.items()}

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for an empty graph)."""
        if not self._adjacency:
            return 0
        return max(len(neighbors) for neighbors in self._adjacency.values())

    def neighbors_of_neighbors(self, node: NodeId) -> Set[NodeId]:
        """The NoN set of ``node``: peers of peers, excluding the node itself.

        This is the "knowledge of Neighbors-of-Neighbor" the paper's DDSR
        construction relies on: each bot knows who its peers are peered with,
        so that when a peer disappears the survivors can immediately link up.
        """
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        result: Set[NodeId] = set()
        for neighbor in self._adjacency[node]:
            result.update(self._adjacency[neighbor])
        result.discard(node)
        result.difference_update(self._adjacency[node])
        return result

    def common_neighbors(self, u: NodeId, v: NodeId) -> Set[NodeId]:
        """Nodes adjacent to both ``u`` and ``v``."""
        if u not in self._adjacency or v not in self._adjacency:
            raise GraphError("both endpoints must be in the graph")
        return self._adjacency[u] & self._adjacency[v]

    def adjacency_view(self, node: NodeId) -> frozenset:
        """Immutable view of a node's neighbour set (no copy of the graph)."""
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        return frozenset(self._adjacency[node])

    # ------------------------------------------------------------------
    # Copy / iteration helpers
    # ------------------------------------------------------------------
    def copy(self) -> "UndirectedGraph":
        """A deep copy of the adjacency structure."""
        clone = UndirectedGraph()
        clone._adjacency = {node: set(neighbors) for node, neighbors in self._adjacency.items()}
        return clone

    def subgraph(self, nodes: Iterable[NodeId]) -> "UndirectedGraph":
        """The induced subgraph on ``nodes``.

        Node insertion order follows *this* graph's order, not the iteration
        order of ``nodes``: the float sums of the path metrics run in
        ``nodes()`` order, so the subgraph must be canonical for a given
        membership set no matter how the caller assembled it (e.g. both graph backends
        computing the same largest component by different algorithms).
        """
        keep = set(nodes)
        sub = UndirectedGraph()
        for node in self._adjacency:
            if node in keep:
                sub.add_node(node)
        for node in sub._adjacency:
            for neighbor in self._adjacency[node]:
                if neighbor in keep:
                    sub.add_edge(node, neighbor)
        return sub

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UndirectedGraph(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )
