"""The Dynamic Distributed Self-Repairing (DDSR) overlay.

Paper section IV-C.  Each bot maintains a small peer list (its graph
neighbours) *and* knows the identities of its neighbours' neighbours (NoN).
Three mechanisms keep the overlay healthy:

* **Repairing** -- when a node ``u`` disappears, every pair of its neighbours
  ``(v, w)`` forms the edge ``(v, w)`` unless it already exists.  This is
  possible precisely because the survivors already knew each other through
  their NoN view of ``u``.
* **Pruning** -- repairs inflate degrees, so each neighbour of the deleted node
  drops its highest-degree peer (random tie-break) until its own degree is back
  within ``[d_min, d_max]``.
* **Forgetting** -- pruned peers' ``.onion`` addresses are forgotten, and bots
  periodically rotate addresses, so captured peer lists decay quickly.

The class below is a *pure graph* object -- node identifiers are whatever the
caller uses (integers in the resilience experiments, onion addresses in the
full botnet simulation).  It is deliberately independent of the Tor model so
the Figure 4/5/6 sweeps can run on thousands of nodes quickly.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from repro.core.errors import OverlayError
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph

NodeId = Hashable


class RepairPolicy(enum.Enum):
    """How the neighbours of a deleted node reconnect.

    ``CLIQUE`` is the paper's algorithm; the others are ablations used by the
    design-choice benchmarks, and ``NONE`` turns the overlay into the "normal
    graph" baseline of Figures 5 and 6.
    """

    CLIQUE = "clique"
    RING = "ring"
    SINGLE_EDGE = "single-edge"
    NONE = "none"


class PruningPolicy(enum.Enum):
    """Which peer an over-degree node drops first."""

    HIGHEST_DEGREE = "highest-degree"
    LOWEST_DEGREE = "lowest-degree"
    RANDOM = "random"
    NONE = "none"


@dataclass
class OverlayStats:
    """Counters describing the overlay's maintenance activity."""

    nodes_removed: int = 0
    repairs_performed: int = 0
    repair_edges_added: int = 0
    prune_operations: int = 0
    prune_edges_removed: int = 0
    addresses_forgotten: int = 0
    nodes_joined: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot for reports."""
        return {
            "nodes_removed": self.nodes_removed,
            "repairs_performed": self.repairs_performed,
            "repair_edges_added": self.repair_edges_added,
            "prune_operations": self.prune_operations,
            "prune_edges_removed": self.prune_edges_removed,
            "addresses_forgotten": self.addresses_forgotten,
            "nodes_joined": self.nodes_joined,
        }


@dataclass
class DDSRConfig:
    """Degree bounds and policies for a DDSR overlay."""

    d_min: int = 5
    d_max: int = 15
    repair_policy: RepairPolicy = RepairPolicy.CLIQUE
    pruning_policy: PruningPolicy = PruningPolicy.HIGHEST_DEGREE
    forgetting_enabled: bool = True

    def __post_init__(self) -> None:
        if self.d_min < 0:
            raise OverlayError(f"d_min must be >= 0, got {self.d_min}")
        if self.d_max < self.d_min:
            raise OverlayError(f"d_max ({self.d_max}) must be >= d_min ({self.d_min})")


class DDSROverlay:
    """A self-healing peer-to-peer overlay following the paper's DDSR rules."""

    def __init__(
        self,
        graph: Optional[UndirectedGraph] = None,
        *,
        config: Optional[DDSRConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.graph = graph if graph is not None else UndirectedGraph()
        self.config = config or DDSRConfig()
        self.rng = rng if rng is not None else random.Random(0)
        self.stats = OverlayStats()
        #: Addresses the overlay has "forgotten" (pruned or removed peers).
        self.forgotten: Set[NodeId] = set()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def k_regular(
        cls,
        n: int,
        k: int,
        *,
        config: Optional[DDSRConfig] = None,
        seed: int = 0,
    ) -> "DDSROverlay":
        """Build an overlay wired as a random k-regular graph on ``n`` nodes.

        Mirrors the paper's experimental setup ("we simulate the node deletion
        process in a k-regular graph (k = 5, 10, 15) of 5000 nodes").
        """
        rng = random.Random(seed)
        graph = k_regular_graph(n, k, rng=rng)
        if config is None:
            config = DDSRConfig(d_min=min(5, k), d_max=max(15, k))
        return cls(graph, config=config, rng=rng)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple],
        *,
        config: Optional[DDSRConfig] = None,
        seed: int = 0,
    ) -> "DDSROverlay":
        """Build an overlay from an explicit edge list (used by small examples)."""
        graph = UndirectedGraph(edges=edges)
        return cls(graph, config=config, rng=random.Random(seed))

    # ------------------------------------------------------------------
    # Queries (delegation to the underlying graph)
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self.graph

    def __len__(self) -> int:
        return len(self.graph)

    def nodes(self) -> List[NodeId]:
        """Surviving node identifiers."""
        return self.graph.nodes()

    def peers(self, node: NodeId) -> Set[NodeId]:
        """The peer list of ``node``."""
        return self.graph.neighbors(node)

    def degree(self, node: NodeId) -> int:
        """Current degree of ``node``."""
        return self.graph.degree(node)

    def neighbors_of_neighbors(self, node: NodeId) -> Set[NodeId]:
        """The NoN knowledge of ``node``."""
        return self.graph.neighbors_of_neighbors(node)

    def knows(self, node: NodeId, other: NodeId) -> bool:
        """Whether ``node`` currently knows ``other``'s address.

        A bot knows its peers and its peers' peers; everything else -- in
        particular pruned/forgotten addresses -- is unknown to it.  This is the
        property both the stealth analysis (section V-A) and the SOAP attack
        rely on.
        """
        if node not in self.graph or other not in self.graph:
            return False
        if self.graph.has_edge(node, other):
            return True
        return other in self.graph.neighbors_of_neighbors(node)

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, peers: Sequence[NodeId] = ()) -> None:
        """Join a new node and connect it to ``peers`` (existing nodes only).

        Each accepting peer applies the normal pruning rule afterwards, so a
        join can never push an existing bot past ``d_max``.
        """
        if node in self.graph:
            raise OverlayError(f"node {node!r} already in overlay")
        self.graph.add_node(node)
        accepted: list[NodeId] = []
        for peer in peers:
            if peer not in self.graph:
                raise OverlayError(f"cannot peer with unknown node {peer!r}")
            if peer == node:
                continue
            self.graph.add_edge(node, peer)
            accepted.append(peer)
        if self.config.pruning_policy is not PruningPolicy.NONE:
            for peer in accepted:
                if peer in self.graph:
                    self._prune_node(peer)
        self.stats.nodes_joined += 1

    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        """Create a peering between two existing nodes."""
        if u not in self.graph or v not in self.graph:
            raise OverlayError("both endpoints must already be overlay members")
        return self.graph.add_edge(u, v)

    def remove_node(self, node: NodeId, *, repair: bool = True) -> List[NodeId]:
        """Delete ``node`` (takedown / cleanup) and run the self-healing steps.

        Returns the list of former neighbours.  ``repair=False`` models a
        *simultaneous* mass-takedown where survivors get no chance to heal
        before the next deletion (Figure 6's scenario); the caller then invokes
        :meth:`repair_after_mass_removal` once, afterwards, if desired.
        """
        if node not in self.graph:
            raise OverlayError(f"node {node!r} not in overlay")
        neighbors = self.graph.remove_node(node)
        self.stats.nodes_removed += 1
        if self.config.forgetting_enabled:
            self.forgotten.add(node)
            self.stats.addresses_forgotten += 1
        if repair and self.config.repair_policy is not RepairPolicy.NONE:
            self._repair(neighbors)
            self._prune(neighbors)
        return neighbors

    def remove_nodes(self, nodes: Iterable[NodeId], *, repair: bool = True) -> int:
        """Delete several nodes sequentially (each followed by its repair)."""
        count = 0
        for node in nodes:
            if node in self.graph:
                self.remove_node(node, repair=repair)
                count += 1
        return count

    def remove_fraction(
        self,
        fraction: float,
        *,
        repair: bool = True,
        rng: Optional[random.Random] = None,
    ) -> List[NodeId]:
        """Delete a random ``fraction`` of surviving nodes, one at a time."""
        if not 0.0 <= fraction <= 1.0:
            raise OverlayError(f"fraction must be in [0, 1], got {fraction}")
        chooser = rng if rng is not None else self.rng
        nodes = self.graph.nodes()
        count = int(round(fraction * len(nodes)))
        victims = chooser.sample(nodes, count) if count else []
        self.remove_nodes(victims, repair=repair)
        return victims

    # ------------------------------------------------------------------
    # Self-healing internals
    # ------------------------------------------------------------------
    def _repair(self, former_neighbors: Sequence[NodeId]) -> int:
        """Reconnect the survivors of a deletion according to the repair policy."""
        survivors = [node for node in former_neighbors if node in self.graph]
        if len(survivors) < 2:
            return 0
        added = 0
        policy = self.config.repair_policy
        if policy is RepairPolicy.CLIQUE:
            for index, u in enumerate(survivors):
                for v in survivors[index + 1:]:
                    if self.graph.add_edge(u, v):
                        added += 1
        elif policy is RepairPolicy.RING:
            ordered = sorted(survivors, key=repr)
            for index, u in enumerate(ordered):
                v = ordered[(index + 1) % len(ordered)]
                if u != v and self.graph.add_edge(u, v):
                    added += 1
        elif policy is RepairPolicy.SINGLE_EDGE:
            u, v = self.rng.sample(survivors, 2)
            if self.graph.add_edge(u, v):
                added += 1
        self.stats.repairs_performed += 1
        self.stats.repair_edges_added += added
        return added

    def _prune(self, affected: Sequence[NodeId]) -> int:
        """Bring every affected node's degree back within ``[d_min, d_max]``."""
        if self.config.pruning_policy is PruningPolicy.NONE:
            return 0
        removed = 0
        for node in affected:
            if node not in self.graph:
                continue
            removed += self._prune_node(node)
        return removed

    def _prune_node(self, node: NodeId, victims: Optional[List[NodeId]] = None) -> int:
        """Prune ``node``'s peer list until its degree is at most ``d_max``.

        When ``victims`` is given, every pruned peer is appended to it (used
        by the SOAP attack to track benign-peer displacement without
        rescanning the peer list after every clone insertion).
        """
        removed = 0
        adjacency = self.graph._adjacency
        d_max = self.config.d_max
        while len(adjacency[node]) > d_max:
            victim = self._select_prune_victim(node)
            if victim is None:
                break
            # Never prune an edge whose removal would drop the *victim* below
            # d_min if we can avoid it; the paper's rule is purely
            # degree-of-victim driven, so this only reorders tie-breaks.
            self.graph.remove_edge(node, victim)
            removed += 1
            if victims is not None:
                victims.append(victim)
            self.stats.prune_operations += 1
            self.stats.prune_edges_removed += 1
            if self.config.forgetting_enabled:
                # Both endpoints forget each other's address (section IV-C).
                self.stats.addresses_forgotten += 1
        return removed

    def _select_prune_victim(self, node: NodeId) -> Optional[NodeId]:
        """Pick which peer ``node`` drops, according to the pruning policy.

        The degree-driven policies single-pass the (uncopied) adjacency set
        instead of materialising a peer->degree dict: pruning runs once per
        SOAP clone insertion, so this is one of the campaign's hottest lines.
        The rng tie-break is unchanged -- candidates are sorted by ``repr``
        before the draw, so candidate collection order cannot matter.
        """
        adjacency = self.graph._adjacency
        policy = self.config.pruning_policy
        if policy is PruningPolicy.RANDOM:
            peers = list(self.graph.neighbors(node))
            if not peers:
                return None
            return self.rng.choice(peers)
        highest = policy is PruningPolicy.HIGHEST_DEGREE
        extreme: Optional[int] = None
        candidates: List[NodeId] = []
        for peer in adjacency[node]:
            degree = len(adjacency[peer])
            if not highest:
                degree = -degree
            if extreme is None or degree > extreme:
                extreme = degree
                candidates = [peer]
            elif degree == extreme:
                candidates.append(peer)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return self.rng.choice(sorted(candidates, key=repr))

    def enforce_degree_bound(self, node: NodeId) -> int:
        """Apply the pruning rule to one node until its degree is within bounds.

        This is the behaviour a bot runs whenever its peer list grows past
        ``d_max`` -- after a repair, or after accepting a new peering request
        (which is exactly the step the SOAP attack exploits: the newly accepted
        low-degree clone survives pruning while a real peer is dropped).
        Returns the number of edges removed.
        """
        if node not in self.graph:
            raise OverlayError(f"node {node!r} not in overlay")
        if self.config.pruning_policy is PruningPolicy.NONE:
            return 0
        return self._prune_node(node)

    def enforce_degree_bound_collect(self, node: NodeId) -> List[NodeId]:
        """:meth:`enforce_degree_bound`, but returning the pruned peers.

        Same pruning decisions and rng consumption; only the bookkeeping
        differs.  The SOAP containment loop uses the victim list to update
        its benign-peer view incrementally instead of rescanning the
        target's peer list after every accepted clone.
        """
        if node not in self.graph:
            raise OverlayError(f"node {node!r} not in overlay")
        victims: List[NodeId] = []
        if self.config.pruning_policy is not PruningPolicy.NONE:
            self._prune_node(node, victims)
        return victims

    def repair_after_mass_removal(self, former_neighbor_sets: Iterable[Sequence[NodeId]]) -> int:
        """Run repair+prune for a batch of deletions that happened at once."""
        added = 0
        affected: Set[NodeId] = set()
        for neighbors in former_neighbor_sets:
            added += self._repair(list(neighbors))
            affected.update(node for node in neighbors if node in self.graph)
        self._prune(sorted(affected, key=repr))
        return added

    # ------------------------------------------------------------------
    # Invariant checks (used by tests and assertions in experiments)
    # ------------------------------------------------------------------
    def degree_bounds_satisfied(self) -> bool:
        """Whether every surviving node's degree is at most ``d_max``.

        ``d_min`` is a soft bound -- the paper notes it "is only applicable as
        long as there are enough surviving nodes in the network" -- so only the
        upper bound is a hard invariant after pruning.
        """
        return all(
            self.graph.degree(node) <= self.config.d_max for node in self.graph.nodes()
        )

    def max_degree(self) -> int:
        """Largest degree among surviving nodes."""
        return self.graph.max_degree()

    def connectivity_summary(self) -> "tuple[int, float]":
        """``(component_count, largest_component_fraction)`` of the overlay.

        Routed through :mod:`repro.graphs.backend`: the vectorized CSR kernels
        whenever numpy >= 2.0 imports, else the pure-Python reference.
        """
        from repro.graphs.backend import component_summary

        n = self.graph.number_of_nodes()
        if n == 0:
            return 0, 0.0
        components, largest = component_summary(self.graph)
        return components, largest / n

    def path_metric_summary(
        self,
        *,
        sample_size: "Optional[int]" = None,
        rng: "Optional[random.Random]" = None,
        closeness_sample: "Optional[int]" = None,
        path_workers: int = 1,
    ) -> "dict":
        """Path metrics of the overlay's largest component, in one extraction.

        Returns ``{components, largest_fraction, diameter, avg_path_length,
        avg_closeness}``.  With ``sample_size=None`` (and the default
        ``closeness_sample=None``) every metric is **exact**: diameter, ASPL
        and closeness all come from one full-population wave campaign
        (:func:`repro.graphs.backend.full_path_metrics` -- per-node
        eccentricity max and distance sums accumulated as the waves advance),
        affordable even at 100k nodes on the fast backend.  ``path_workers >
        1`` additionally shards the campaign's sources across a process pool
        (:func:`repro.runner.executor.sharded_full_path_metrics`); the merged
        int64 accumulators make the parallel result bit-identical to serial.
        A forced/auto-resolved *python* backend wins over ``path_workers``:
        sharding is a fast-backend facility, and an explicit reference-path
        request (or a graph below the auto threshold, where pool startup
        dwarfs the campaign) runs the serial reference instead -- the values
        are identical either way.

        With a ``sample_size`` the component is extracted once and both path
        estimators run with ``connected=True`` on sampled sources;
        ``closeness_sample`` then still defaults to the full population.
        All values are identical across graph backends.
        """
        from repro.graphs import backend

        graph = self.graph
        n = graph.number_of_nodes()
        if n == 0:
            return {
                "components": 0,
                "largest_fraction": 0.0,
                "diameter": 0.0,
                "avg_path_length": 0.0,
                "avg_closeness": 0.0,
            }
        if sample_size is None and closeness_sample is None:
            if backend.resolve_for() == "fast":
                from repro.runner.executor import sharded_full_path_metrics
                from repro.runner.journal import active_unit_scope

                # The sharded path also carries sub-unit checkpoint
                # journaling: inside a journaled campaign's in-parent unit
                # it is taken even serially, so every exact checkpoint
                # journals (and can replay) its accumulator shards.
                if path_workers > 1 or active_unit_scope() is not None:
                    return sharded_full_path_metrics(graph, workers=path_workers)
            return backend.full_path_metrics(graph)
        components, largest = backend.component_summary(graph)
        working = (
            graph if components == 1 else backend.largest_component_subgraph(graph)
        )
        return {
            "components": components,
            "largest_fraction": largest / n,
            "diameter": backend.diameter(
                working, sample_size=sample_size, rng=rng, connected=True
            ),
            "avg_path_length": backend.average_shortest_path_length(
                working, sample_size=sample_size, rng=rng, connected=True
            ),
            "avg_closeness": backend.average_closeness_centrality(
                working, sample_size=closeness_sample, rng=rng
            ),
        }

    def snapshot(self) -> UndirectedGraph:
        """A deep copy of the current overlay graph (for offline analysis)."""
        return self.graph.copy()
