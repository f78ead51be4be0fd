"""Graph generators used by the experiments.

The paper's experiments start from k-regular random graphs (k = 5, 10, 15) of
5000 or 15000 nodes.  We implement a pairing-model k-regular generator directly
on :class:`~repro.graphs.adjacency.UndirectedGraph` (so the overlay never needs
``networkx`` at runtime) plus Erdos--Renyi and Barabasi--Albert generators used
for robustness checks and ablations.  Conversion helpers to and from
``networkx`` support cross-validation in the test-suite.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

import networkx as nx

from repro.graphs.adjacency import GraphError, UndirectedGraph


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
    One attempt costs O(nk log nk): the stubs live in a :class:`_StubList`.
    After ``max_attempts`` failed attempts it falls back to networkx.

    The graph and the draws taken from ``rng`` are a fixed function of the
    rng's state, so callers that keep drawing from the same rng afterwards
    (``DDSROverlay.k_regular`` does) see a fixed stream too.  Changing
    what this function draws, or in which order, changes every seeded
    overlay and golden downstream.

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

    for _ in range(max_attempts):
        graph = _try_pairing_model(n, k, rng)
        if graph is not None:
            return graph
    # Fall back to networkx's generator, which uses a smarter algorithm and
    # practically always succeeds; convert back to our structure.
    nx_graph = nx.random_regular_graph(k, n, seed=rng.randrange(2**32))
    return from_networkx(nx_graph)


#: Stubs per block of :class:`_StubList`, chosen with
#: ``benchmarks/ab_pairing_model.py``.
STUB_BLOCK = 1024


class _StubList:
    """The pairing model's stub list as blocks plus a Fenwick tree.

    Behaves like the plain ``list`` it is built from under ``len``,
    ``[index]``, ``pop(index)`` and ``pop()``, but each costs O(log n)
    instead of the O(n) shift of ``list.pop(index)``: the items are split
    into blocks of :data:`STUB_BLOCK`, and a Fenwick tree (binary indexed
    tree) over the block lengths maps a list index to ``(block, offset)``.
    The live items stay the built list's items in their original order, so
    every index names the same item the plain list would.

    ``pop()`` takes the tail of the last non-empty block without updating
    the tree.  That leaves the tree's count too high only for that block
    and the (empty) blocks after it, which never changes where an index
    below ``len`` lands: every block before it is counted exactly.
    """

    __slots__ = ("_blocks", "_tree", "_last", "_len", "_found")

    def __init__(self, items: list) -> None:
        size = STUB_BLOCK
        self._blocks = [items[start:start + size] for start in range(0, len(items), size)]
        # The tree is padded to a power of two with empty blocks, so the
        # descent needs no bounds check.
        count = 1 << max(len(self._blocks) - 1, 0).bit_length()
        tree = [0] * (count + 1)
        for position, block in enumerate(self._blocks, 1):
            tree[position] = len(block)
        for position in range(1, count):
            tree[position + (position & -position)] += tree[position]
        self._tree = tree
        self._last = len(self._blocks) - 1
        self._len = len(items)
        # ``(index, block, offset)`` of the last ``[index]`` lookup, so the
        # pairing model's ``stubs[index]`` then ``stubs.pop(index)`` descends
        # the tree once; every pop clears it.
        self._found = None

    def __len__(self) -> int:
        return self._len

    def _locate(self, index: int) -> "tuple[int, int]":
        """``(block, offset)`` of the live item at list index ``index``."""
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("list index out of range")
        tree = self._tree
        # The root covers every block, so the descent starts below it.
        step = (len(tree) - 1) >> 1
        position = 0
        while step:
            probe = position + step
            if tree[probe] <= index:
                position = probe
                index -= tree[probe]
            step >>= 1
        return position, index

    def __getitem__(self, index: int):
        block, offset = self._locate(index)
        self._found = (index, block, offset)
        return self._blocks[block][offset]

    def pop(self, index: int = -1):
        found = self._found
        self._found = None
        if index == -1 or index == self._len - 1:
            if not self._len:
                raise IndexError("pop from empty list")
            blocks = self._blocks
            last = self._last
            while not blocks[last]:
                last -= 1
            self._last = last
            self._len -= 1
            return blocks[last].pop()
        if found is not None and found[0] == index:
            _, block, offset = found
        else:
            block, offset = self._locate(index)
        tree = self._tree
        count = len(tree) - 1
        position = block + 1
        while position <= count:
            tree[position] -= 1
            position += position & -position
        self._len -= 1
        return self._blocks[block].pop(offset)


def _try_pairing_model(n: int, k: int, rng: random.Random) -> Optional[UndirectedGraph]:
    """One attempt of the configuration model; ``None`` when it gets stuck."""
    stubs = [node for node in range(n) for _ in range(k)]
    rng.shuffle(stubs)
    stubs = _StubList(stubs)
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
