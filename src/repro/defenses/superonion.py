"""SuperOnionBots (paper section VII-B, Figure 8).

A SuperOnion construction fully exploits the decoupling Tor provides between a
physical host, its IP address and its onion addresses: each of the ``n``
physical hosts runs ``m`` virtual bots, and every virtual bot peers with ``i``
virtual bots of *other* hosts.  A single virtual bot is still susceptible to
SOAP containment, but the physical host survives as long as at least one of
its virtual bots is not contained.

To notice containment, every host periodically runs a connectivity self-probe:
each of its virtual bots floods a probe that should arrive at the host's other
``m - 1`` virtual bots through the overlay.  Because messages are encrypted
and indistinguishable -- and because the authorities are assumed legally unable
to *participate* in botnet activity by forwarding them -- defender clones do
not relay probes, so a contained virtual bot's probes silently vanish.  The
host then discards the soaped virtual bot and bootstraps a replacement using
peers learned from its still-healthy virtual bots.

This module implements the construction and the probe/recover loop so that the
SuperOnion-vs-SOAP arms race (``benchmarks/bench_superonion.py``) can be
simulated head-to-head against the basic OnionBot.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.adversary.soap import SoapAttack, attack_order, is_clone
from repro.core.ddsr import DDSRConfig, DDSROverlay
from repro.graphs.metrics import shortest_path_lengths_from
from repro.sim.rng import derive_seed


def virtual_node_id(host_index: int, serial: int) -> str:
    """Identifier of a virtual bot: ``so-<host>-<serial>``."""
    return f"so-{host_index:04d}-{serial:04d}"


def host_of(node: str) -> Optional[int]:
    """Host index encoded in a virtual-node identifier (None for clones)."""
    if not isinstance(node, str) or not node.startswith("so-"):
        return None
    try:
        return int(node.split("-")[1])
    except (IndexError, ValueError):
        return None


@dataclass
class SuperOnionHost:
    """One physical host running ``m`` virtual bots."""

    host_index: int
    virtual_nodes: List[str] = field(default_factory=list)
    replacements_made: int = 0
    _serial: itertools.count = field(default_factory=lambda: itertools.count(0), repr=False)

    def new_virtual_node(self) -> str:
        """Mint the identifier for a fresh virtual bot on this host."""
        return virtual_node_id(self.host_index, next(self._serial))

    def probe(self, overlay: DDSROverlay) -> List[str]:
        """Return the virtual bots whose connectivity probes failed.

        A probe from virtual bot ``a`` succeeds when at least one sibling of
        ``a`` is reachable from it through benign (non-clone) overlay paths.
        With a single sibling set per host the check is symmetric, so a bot is
        flagged exactly when it is cut off from every sibling.
        """
        present = [node for node in self.virtual_nodes if node in overlay.graph]
        soaped: List[str] = []
        if len(present) <= 1:
            return [node for node in self.virtual_nodes if node not in present]
        benign_nodes = [node for node in overlay.nodes() if not is_clone(node)]
        benign_graph = overlay.graph.subgraph(benign_nodes)
        for node in self.virtual_nodes:
            if node not in benign_graph:
                soaped.append(node)
                continue
            reachable = shortest_path_lengths_from(benign_graph, node)
            siblings = [sibling for sibling in present if sibling != node]
            if not any(sibling in reachable for sibling in siblings):
                soaped.append(node)
        return soaped


@dataclass
class SuperOnionSurvivalResult:
    """Outcome of a SOAP campaign against a SuperOnion network."""

    rounds: int
    hosts_total: int
    hosts_surviving: int
    virtual_nodes_total: int
    virtual_nodes_soaped: int
    virtual_nodes_replaced: int
    clones_spent: int
    #: ``(round, fraction of hosts with at least one healthy virtual bot)``.
    survival_timeline: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def host_survival_fraction(self) -> float:
        """Fraction of physical hosts that remained in the botnet."""
        if self.hosts_total == 0:
            return 0.0
        return self.hosts_surviving / self.hosts_total


class SuperOnionNetwork:
    """Builds and operates a SuperOnion overlay (Figure 8's ``n``, ``m``, ``i``)."""

    def __init__(
        self,
        *,
        hosts: int = 5,
        virtual_per_host: int = 3,
        peers_per_virtual: int = 2,
        config: Optional[DDSRConfig] = None,
        seed: int = 0,
    ) -> None:
        if hosts < 2:
            raise ValueError(f"a SuperOnion network needs at least 2 hosts, got {hosts}")
        if virtual_per_host < 2:
            raise ValueError(
                f"each host needs at least 2 virtual bots to self-probe, got {virtual_per_host}"
            )
        self.hosts_count = hosts
        self.virtual_per_host = virtual_per_host
        self.peers_per_virtual = peers_per_virtual
        self.seed = seed
        self.rng = random.Random(seed)
        self.config = config or DDSRConfig(d_min=1, d_max=max(6, peers_per_virtual * 3))
        self.overlay = DDSROverlay(config=self.config, rng=self.rng)
        self.hosts: Dict[int, SuperOnionHost] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for host_index in range(self.hosts_count):
            host = SuperOnionHost(host_index=host_index)
            for _ in range(self.virtual_per_host):
                node = host.new_virtual_node()
                host.virtual_nodes.append(node)
                self.overlay.graph.add_node(node)
            self.hosts[host_index] = host
        # Wire each virtual bot to ``i`` virtual bots on *other* hosts.
        all_nodes = [
            (host_index, node)
            for host_index, host in self.hosts.items()
            for node in host.virtual_nodes
        ]
        for host_index, node in all_nodes:
            existing = self.overlay.peers(node)
            candidates = [
                other
                for other_host, other in all_nodes
                if other_host != host_index and other not in existing
            ]
            needed = max(0, self.peers_per_virtual - self.overlay.degree(node))
            if needed == 0 or not candidates:
                continue
            peers = self.rng.sample(candidates, min(needed, len(candidates)))
            for peer in peers:
                self.overlay.graph.add_edge(node, peer)

    # ------------------------------------------------------------------
    def virtual_nodes(self) -> List[str]:
        """Every live virtual bot across every host."""
        return [node for host in self.hosts.values() for node in host.virtual_nodes]

    def healthy_virtual_nodes(self, host: SuperOnionHost) -> List[str]:
        """Virtual bots of ``host`` that currently have a benign peer."""
        healthy = []
        for node in host.virtual_nodes:
            if node not in self.overlay.graph:
                continue
            if any(not is_clone(peer) for peer in self.overlay.peers(node)):
                healthy.append(node)
        return healthy

    def host_survives(self, host: SuperOnionHost) -> bool:
        """A host survives while at least one of its virtual bots is unsoaped."""
        return bool(self.healthy_virtual_nodes(host))

    # ------------------------------------------------------------------
    def probe_and_recover(self) -> Tuple[int, int]:
        """One maintenance round: every host probes and replaces soaped bots.

        Returns ``(soaped_detected, replaced)``.
        """
        soaped_detected = 0
        replaced = 0
        for host in self.hosts.values():
            failed = host.probe(self.overlay)
            soaped_detected += len(failed)
            for node in failed:
                if self._replace_virtual_node(host, node):
                    replaced += 1
        return soaped_detected, replaced

    def _replace_virtual_node(self, host: SuperOnionHost, node: str) -> bool:
        """Discard a soaped virtual bot and bootstrap a replacement."""
        # Gather bootstrap peers from the host's healthy virtual bots.
        peer_pool: Set[str] = set()
        for sibling in host.virtual_nodes:
            if sibling == node or sibling not in self.overlay.graph:
                continue
            peer_pool.update(
                peer for peer in self.overlay.peers(sibling) if not is_clone(peer)
            )
        peer_pool.discard(node)
        if not peer_pool:
            return False  # The host has lost all benign connectivity.
        if node in self.overlay.graph:
            # The soaped identity is abandoned (its onion address is simply
            # never used again); remove it without triggering repair so the
            # clones gain nothing.
            self.overlay.remove_node(node, repair=False)
        if node in host.virtual_nodes:
            host.virtual_nodes.remove(node)
        new_node = host.new_virtual_node()
        peers = self.rng.sample(
            sorted(peer_pool), min(self.peers_per_virtual, len(peer_pool))
        )
        self.overlay.add_node(new_node, peers)
        host.virtual_nodes.append(new_node)
        host.replacements_made += 1
        return True

    # ------------------------------------------------------------------
    def withstand_soap(
        self,
        attack: SoapAttack,
        *,
        rounds: int = 10,
        targets_per_round: int = 3,
    ) -> SuperOnionSurvivalResult:
        """Run an interleaved SOAP-vs-recovery campaign.

        Each round the attacker contains up to ``targets_per_round`` virtual
        bots it knows about, then every host runs its probe-and-recover cycle.
        The result records how host-level survival evolves -- the paper's
        claim is that the physical hosts remain in the botnet indefinitely as
        long as one virtual bot per host stays clean.  The attacker walks its
        targets in :func:`~repro.adversary.soap.attack_order`, shuffled by a
        stream derived from the network seed, so ``self.rng`` draws exactly
        what it would without the attacker's ordering.
        """
        soaped_total = 0
        replaced_total = 0
        clones_spent = 0
        timeline: List[Tuple[int, float]] = []
        # The attacker starts knowing one random virtual bot's peers.
        start = self.rng.choice(self.virtual_nodes())
        known: Set[str] = {start}
        known.update(peer for peer in self.overlay.peers(start) if not is_clone(peer))
        order_rng = random.Random(derive_seed(self.seed, "attack-order"))

        for round_index in range(1, rounds + 1):
            # --- attacker phase -------------------------------------------------
            attacked = 0
            for target in attack_order(known, order_rng):
                if attacked >= targets_per_round:
                    break
                if target not in self.overlay.graph:
                    continue
                benign_peers = {
                    peer for peer in self.overlay.peers(target) if not is_clone(peer)
                }
                if not benign_peers:
                    continue  # already contained
                result = attack.contain_node(self.overlay, target)
                clones_spent += result.clones_used
                attacked += 1
                known.update(result.learned_addresses)
            # --- botnet maintenance phase --------------------------------------
            soaped, replaced = self.probe_and_recover()
            soaped_total += soaped
            replaced_total += replaced
            surviving = sum(1 for host in self.hosts.values() if self.host_survives(host))
            timeline.append((round_index, surviving / self.hosts_count))

        surviving = sum(1 for host in self.hosts.values() if self.host_survives(host))
        return SuperOnionSurvivalResult(
            rounds=rounds,
            hosts_total=self.hosts_count,
            hosts_surviving=surviving,
            virtual_nodes_total=self.hosts_count * self.virtual_per_host,
            virtual_nodes_soaped=soaped_total,
            virtual_nodes_replaced=replaced_total,
            clones_spent=clones_spent,
            survival_timeline=timeline,
        )
