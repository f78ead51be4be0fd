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
from itertools import compress
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from repro.core.errors import OverlayError
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.generators import k_regular_graph
from repro.obs.telemetry import current as _telemetry

NodeId = Hashable

#: Op pairs one call of the compiled deletion loop may return; it sizes the
#: call's buffer, and a batch that needs more takes several calls.
_KERNEL_OPS = 1 << 12

#: Bytes the compiled deletion loop may spend on its fixed-width peer rows;
#: a graph whose rows need more runs the Python loop.
_KERNEL_ROW_BYTES = 64 << 20

#: Plain int labels below this magnitude get repr-order codes
#: (:func:`_repr_keys`): 17 digits, a digit count and a sign fit in 63 bits.
_CODE_LIMIT = 10**17

# The io[] slots of ``ddsr.c``.
(
    _IO_NODES,
    _IO_WIDTH,
    _IO_D_MAX,
    _IO_HIGHEST,
    _IO_VICTIMS,
    _IO_NEXT,
    _IO_OPS,
    _IO_REMOVED,
    _IO_REPAIRS,
    _IO_EDGES,
    _IO_PRUNES,
) = range(11)


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
        """Delete several nodes sequentially (each followed by its repair).

        :meth:`remove_node` for every node of ``nodes`` that is still in
        the overlay when its turn comes (absent nodes and repeats are
        skipped); returns how many were removed.

        A list or tuple of victims is decided in one call into ``ddsr.c``
        (:func:`_remove_compiled`) when that call can replay the Python
        loop exactly -- ``repair=True``, clique repair, highest- or
        lowest-degree pruning, an exact ``random.Random``, only plain
        ``int``/``str`` labels -- and the graph has a CSR: it is packed
        (``UndirectedGraph.packed``, as the compiled pairing model builds
        it), or a measurement left a CSR mirror of its current state
        (``fast.cached_csr``).  C makes every removal, repair and
        tie-break decision on a replay of ``self.rng``.

        * On a **packed** graph, C's post-batch rows become the graph's
          next CSR and no adjacency set is ever built: the graph stays
          packed.  Survivors keep their order, but each node's peers
          follow C's row order, so iteration order differs from the other
          engines (no row depends on it; see below).
        * On a **set** graph, Python applies the returned op list to the
          adjacency sets, which then match the Python loop's in iteration
          order too.

        Anything else runs the Python loop below (materializing a packed
        graph first), which is also the oracle: every engine leaves the
        same neighbour sets, ``overlay.stats``, ``mutation_stamp``,
        ``forgotten`` and rng state.  With telemetry on, the gauge
        ``ddsr.engine`` (``packed``/``compiled``/``python``) names the
        path.

        A batch with ``repair=True`` ends by compacting
        (:meth:`UndirectedGraph.compact`) the set of every survivor that
        lost a peer to a removal in it: clique repair grows those sets'
        hash tables, which pruning never shrinks (under the other policies
        the rebuild only sizes the table anew).  Both set engines compact
        the same nodes, once each, so they still agree on iteration order.
        That order moves, and no row depends on it: the adjacency-order
        differential (``tests/core/test_adjacency_order.py``) scrambles
        every set after every batch.
        """
        removed = None
        packed = self.graph._packed is not None
        if repair and isinstance(nodes, (list, tuple)):
            removed = _remove_compiled(self, nodes)
        tel = _telemetry()
        if tel.enabled:
            engine = "packed" if packed else "compiled"
            tel.gauge("ddsr.engine", "python" if removed is None else engine)
        if removed is not None:
            return removed
        count = 0
        touched: List[NodeId] = []
        for node in nodes:
            if node in self.graph:
                touched += self.remove_node(node, repair=repair)
                count += 1
        if repair:
            self.graph.compact(touched)
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
        instead of materialising a peer->degree dict.  The rng tie-break is
        unchanged -- candidates are sorted by ``repr`` before the draw, so
        candidate collection order cannot matter.  That is what lets
        ``ddsr.c`` (batch deletion) and ``soap.c`` (SOAP's per-clone
        pruning) replay this rule on unordered peer rows.
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

    def path_metric_summary(self) -> "dict":
        """Exact path metrics of the overlay's largest component.

        Returns ``{components, largest_fraction, diameter, avg_path_length,
        avg_closeness}``.  Every metric is exact: diameter, ASPL and
        closeness all come from one full-population wave campaign
        (:func:`repro.graphs.backend.full_path_metrics` -- per-node
        eccentricity max and distance sums accumulated as the waves advance),
        affordable even at 100k nodes on the fast backend, where it runs
        through :func:`repro.runner.executor.sharded_full_path_metrics`:
        serially, journaled per checkpoint shard (in a journaled campaign's
        in-parent unit) or sharded across the worker pool
        (``REPRO_PATH_WORKERS=N``), bit-identical every way.  A *python*
        backend runs the serial reference instead, with identical values.
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
        if backend.resolve_for() == "fast":
            from repro.runner.executor import sharded_full_path_metrics

            return sharded_full_path_metrics(graph)
        return backend.full_path_metrics(graph)

    def snapshot(self) -> UndirectedGraph:
        """A deep copy of the current overlay graph (for offline analysis)."""
        return self.graph.copy()


def _repr_keys(labels: List[NodeId]):
    """Distinct int64 keys that sort like the labels' reprs, or ``None``.

    Plain ints below :data:`_CODE_LIMIT` in magnitude are encoded from
    their values, so no Python sort runs: a sign bit ('-' sorts before
    every digit), the magnitude's digits zero-padded to 17, then the digit
    count (equal padded digits mean one repr is a prefix of the other, and
    the shorter sorts first).  Other mixes of plain ints and strs get their
    rank among the sorted reprs (such labels have distinct reprs, so no
    tie-break can hinge on set order).  Any other label type: ``None``.
    """
    import numpy as np

    kinds = set(map(type, labels))
    if not kinds <= {int, str}:
        return None
    values = None
    if kinds <= {int} and labels:
        try:
            values = np.array(labels, dtype=np.int64)
        except OverflowError:
            pass
    if values is not None and -_CODE_LIMIT < values.min() and values.max() < _CODE_LIMIT:
        magnitude = np.abs(values).astype(np.uint64)
        powers = 10 ** np.arange(18, dtype=np.uint64)
        digits = np.searchsorted(powers[1:], magnitude, side="right") + 1
        codes = (
            (values >= 0).astype(np.uint64) << np.uint64(62)
            | magnitude * powers[17 - digits] << np.uint64(5)
            | digits.astype(np.uint64)
        )
        return codes.astype(np.int64)
    reprs = list(map(repr, labels))
    rank = np.empty(len(labels), dtype=np.int64)
    rank[sorted(range(len(reprs)), key=reprs.__getitem__)] = np.arange(len(labels))
    return rank


def _remove_compiled(overlay: DDSROverlay, batch: Sequence[NodeId]) -> Optional[int]:
    """:meth:`DDSROverlay.remove_nodes` with repair, decided by ``ddsr.c``.

    Returns the number of nodes removed, or ``None`` -- having changed
    nothing -- when the compiled loop cannot replay the Python one: a
    repair or pruning policy it does not model, an rng that is not an exact
    ``random.Random``, no numpy >= 2.0, no library, no CSR mirror cached
    for the graph's current state, labels it cannot rank, rows over
    :data:`_KERNEL_ROW_BYTES`, or a -1 from C: a row overflow (which its
    degree bound rules out) or an asymmetric snapshot, where a peer's row
    lacks the node that lists it (the Python loop then raises).

    C starts from the graph's CSR -- a packed graph's own, or the mirror
    the last measurement left on a set graph (``fast.cached_csr``;
    building one here would cost more than a small batch saves) -- and the
    rng's Mersenne Twister state (:class:`~repro.graphs._wavekernel.MTState`),
    and decides the whole batch first, as op pairs (see ``ddsr.c``).

    * **Packed graph.**  C's post-batch rows become the next snapshot
      (:func:`_next_csr`): survivors keep their label order, peers C's
      order.  No set is built; only the removal ops are read.
    * **Set graph.**  C's buffers are freed and the ops are applied in
      order (:func:`_apply_ops`), so every adjacency set sees the
      mutations the Python loop makes, in the same order.  The peers a
      ``(v, ~i)`` op pops with ``v`` are the list ``remove_node`` returns
      in the Python loop, so the batch ends by compacting the same
      survivors' sets.

    Either way ``mutation_stamp``, ``overlay.stats``, ``forgotten`` and the
    rng state are settled in bulk afterwards.
    """
    config = overlay.config
    if (
        config.repair_policy is not RepairPolicy.CLIQUE
        or config.pruning_policy
        not in (PruningPolicy.HIGHEST_DEGREE, PruningPolicy.LOWEST_DEGREE)
    ):
        return None
    from repro.graphs.backend import fast_available

    if not fast_available():
        return None
    # Imported here so that importing this module stays free of numpy and
    # of the loader's subprocess/ctypes machinery.
    import numpy as np

    from repro.graphs import _wavekernel
    from repro.graphs.fast import cached_csr

    if not _wavekernel.MTState.replays(overlay.rng):
        return None

    graph = overlay.graph
    csr = cached_csr(graph)
    if csr is None:
        return None
    kernel = _wavekernel.load_ddsr()
    if kernel is None:
        return None
    if not batch:
        return 0
    labels = csr.nodes
    key = _repr_keys(labels)
    if key is None:
        return None
    n = len(labels)
    # No degree exceeds this between removals (see ddsr.c).
    width = max(config.d_max, int(csr.degrees().max()) if n else 0, 1)
    if n * width * 4 > _KERNEL_ROW_BYTES:
        return None
    index_of = csr.index_of
    victims = np.fromiter(
        (index_of.get(node, -1) for node in batch), dtype=np.int32, count=len(batch)
    )
    room = max(_KERNEL_OPS, 3 * width * width)
    io = np.zeros(_IO_PRUNES + 1, dtype=np.int64)
    io[_IO_NODES] = n
    io[_IO_WIDTH] = width
    io[_IO_D_MAX] = config.d_max
    io[_IO_HIGHEST] = config.pruning_policy is PruningPolicy.HIGHEST_DEGREE
    io[_IO_VICTIMS] = len(batch)
    io[_IO_OPS] = room
    state = _wavekernel.MTState(overlay.rng)
    ops = np.empty(2 * room, dtype=np.int32)
    rows = np.empty(n * width, dtype=np.int32)
    degree = np.empty(n, dtype=np.int32)
    buffers = (
        io,
        np.frombuffer(state.words, dtype=np.uint32),
        key,
        rows,
        degree,
        np.empty(n, dtype=np.int32),
        victims,
        ops,
        np.empty(3 * width + 2 * width * width, dtype=np.int32),
        np.ascontiguousarray(csr.indptr, dtype=np.int64),
        np.ascontiguousarray(csr.indices, dtype=np.int32),
    )
    arguments = [buffer.ctypes.data for buffer in buffers]
    packed = graph._packed is not None
    chunks = []
    while io[_IO_NEXT] < len(batch):
        count = kernel(*arguments)
        if count < 0:
            return None
        if packed:
            # Only the removals matter here: (v, ~i) pairs, in order.
            slots = ops[1:2 * count:2]
            chunks.append(~slots[slots < 0])
        else:
            chunks.append(ops[:2 * count].copy())
    # C's other buffers go first: the next snapshot, or the adjacency sets
    # growing, can then reuse their memory instead of stacking above it.
    del buffers, key, ops
    if packed:
        gone = [batch[slot] for chunk in chunks for slot in chunk.tolist()]
        graph._packed = _next_csr(labels, rows, degree, width)
    else:
        del rows, degree
        gone = _apply_ops(graph, labels, batch, chunks)
    state.commit()
    removed, repairs, edges, prunes = map(int, io[_IO_REMOVED:])
    graph._mutations += removed + edges + prunes
    stats = overlay.stats
    stats.nodes_removed += removed
    stats.repairs_performed += repairs
    stats.repair_edges_added += edges
    stats.prune_operations += prunes
    stats.prune_edges_removed += prunes
    if config.forgetting_enabled:
        overlay.forgotten.update(gone)
        stats.addresses_forgotten += removed + prunes
    return removed


def _next_csr(labels: List[NodeId], rows, degree, width: int):
    """The CSR snapshot of ``ddsr.c``'s rows after a batch.

    Row ``i`` of ``rows`` (``width`` slots) holds the ``degree[i]`` peers
    of ``labels[i]`` in C's order, ``degree[i] == -1`` once removed.  The
    survivors keep their label order and their peers C's order, renumbered
    to the survivors' new indices.
    """
    import numpy as np

    from repro.graphs.fast import CSRGraph

    alive = degree >= 0
    in_row = np.arange(width, dtype=np.int32) < degree[:, None]
    renumber = np.cumsum(alive, dtype=np.int32) - 1
    indices = renumber[rows.reshape(-1, width)[in_row]]
    indptr = np.zeros(int(np.count_nonzero(alive)) + 1, dtype=np.int64)
    np.cumsum(degree[alive], out=indptr[1:])
    return CSRGraph(list(compress(labels, alive.tolist())), None, indptr, indices)


def _apply_ops(graph: UndirectedGraph, labels, batch, chunks) -> List[NodeId]:
    """Apply ``ddsr.c``'s op pairs to the adjacency sets, in order.

    Every set sees the mutations the Python loop makes, in the same order;
    the batch ends by compacting the sets of the survivors that lost a
    peer to a removal.  Returns the removed victims, in removal order.
    """
    adjacency = graph._adjacency
    gone: List[NodeId] = []
    touched: List[NodeId] = []
    for chunk in chunks:
        # A memoryview makes one int at a time; a list of a chunk's ints
        # would sit between the set tables growing now and fragment them.
        flat = iter(memoryview(chunk))
        for a, b in zip(flat, flat):
            if b < 0:
                label = labels[a]
                peers = adjacency.pop(label)
                for peer in peers:
                    adjacency[peer].discard(label)
                touched += peers
                gone.append(batch[~b])
            elif a < 0:
                u, w = labels[~a], labels[b]
                adjacency[u].discard(w)
                adjacency[w].discard(u)
            else:
                u, w = labels[a], labels[b]
                adjacency[u].add(w)
                adjacency[w].add(u)
    graph.compact(touched)
    return gone
