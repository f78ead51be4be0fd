"""Experiment runners reproducing every evaluation artifact of the paper.

Each ``run_*`` function regenerates the data behind one table or figure.  The
default parameters are sized to finish in seconds on a laptop; pass the
paper's parameters (``n=5000`` or ``15000``, ``fractions`` up to 0.95, etc.)
to reproduce the original scale.  Shapes -- which curve wins, where knees and
crossovers sit, the ~40 % partition threshold -- are preserved at the smaller
defaults; the README's "Reproducing the paper" section says how to run them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary.soap import SoapAttack, SoapCampaignResult
from repro.baselines.normal_graph import NormalOverlay
from repro.core.botnet import OnionBotnet
from repro.core.ddsr import DDSRConfig, DDSROverlay, PruningPolicy, RepairPolicy
from repro.defenses.hsdir_takeover import HsdirInterception, InterceptionResult
from repro.defenses.pow import PowAdmission, PowParameters
from repro.defenses.superonion import SuperOnionNetwork, SuperOnionSurvivalResult
from repro.graphs.backend import (
    average_closeness_centrality,
    average_degree_centrality,
    diameter,
    number_connected_components,
)
from repro.sim.engine import Simulator
from repro.tor.network import TorNetwork, TorNetworkConfig
from repro.workloads.deletion import DeletionSchedule


# ----------------------------------------------------------------------
# Figure 3 -- repair walk-through on a small 3-regular graph
# ----------------------------------------------------------------------
@dataclass
class Fig3Result:
    """Trace of the self-repair walk-through (Figure 3)."""

    steps: List[Dict[str, float]] = field(default_factory=list)

    def final_connected(self) -> bool:
        """Whether the overlay stayed connected through every deletion."""
        return bool(self.steps) and self.steps[-1]["components"] == 1


def run_fig3_walkthrough(n: int = 12, k: int = 3, deletions: int = 8, seed: int = 0) -> Fig3Result:
    """Reproduce Figure 3: delete nodes one by one from a small 3-regular graph.

    The paper's figure removes nodes from a 12-node, 3-regular graph and shows
    the dashed repair edges keeping the survivors connected; the returned
    trace records, after every deletion, how many repair edges were added and
    that the overlay stayed connected.
    """
    overlay = DDSROverlay.k_regular(n, k, seed=seed)
    rng = random.Random(seed)
    result = Fig3Result()
    for step in range(deletions):
        nodes = overlay.nodes()
        if len(nodes) <= 2:
            break
        victim = rng.choice(nodes)
        edges_before = overlay.stats.repair_edges_added
        overlay.remove_node(victim)
        result.steps.append(
            {
                "step": float(step + 1),
                "survivors": float(len(overlay)),
                "repair_edges_added": float(overlay.stats.repair_edges_added - edges_before),
                "components": float(number_connected_components(overlay.graph)),
                "max_degree": float(overlay.max_degree()),
            }
        )
    return result


# ----------------------------------------------------------------------
# Figure 4 -- closeness / degree centrality, with and without pruning
# ----------------------------------------------------------------------
@dataclass
class Fig4Result:
    """One Figure 4 curve: a (degree, pruning) combination."""

    n: int
    degree: int
    pruning: bool
    deletions: List[int] = field(default_factory=list)
    closeness: List[float] = field(default_factory=list)
    degree_centrality: List[float] = field(default_factory=list)
    max_degree: List[int] = field(default_factory=list)

    def label(self) -> str:
        """Series label as it would appear in the figure legend."""
        suffix = "with pruning" if self.pruning else "without pruning"
        return f"deg = {self.degree} ({suffix})"


def run_fig4_centrality(
    *,
    n: int = 1000,
    degrees: Sequence[int] = (5, 10, 15),
    max_fraction: float = 0.3,
    checkpoints: int = 6,
    pruning: bool = True,
    seed: int = 0,
) -> List[Fig4Result]:
    """Reproduce Figure 4 (a--d): centralities under incremental deletions.

    For each ``k`` in ``degrees`` a k-regular overlay of ``n`` nodes loses
    ``max_fraction`` of its nodes one at a time (repair after every deletion);
    average closeness and degree centrality are recorded at ``checkpoints``
    evenly spaced points.  ``pruning`` switches between the 4a/4c and 4b/4d
    variants.  The paper uses ``n=5000`` and 30 % deletions.

    Closeness is exact (every node a BFS source).  The fast backend's
    symmetric per-node wave accumulation keeps that affordable well past the
    paper's 5000 nodes; the pure-Python reference pays O(n * (n + m)) per
    checkpoint.
    """
    results: List[Fig4Result] = []
    for degree in degrees:
        config = DDSRConfig(
            d_min=min(5, degree),
            d_max=max(15, degree),
            pruning_policy=PruningPolicy.HIGHEST_DEGREE if pruning else PruningPolicy.NONE,
        )
        overlay = DDSROverlay.k_regular(n, degree, config=config, seed=seed)
        schedule = DeletionSchedule.random(overlay.nodes(), max_fraction, seed=seed + degree)
        total = len(schedule)
        batch = max(1, total // checkpoints)
        result = Fig4Result(n=n, degree=degree, pruning=pruning)

        def record(deleted: int) -> None:
            result.deletions.append(deleted)
            result.closeness.append(average_closeness_centrality(overlay.graph))
            result.degree_centrality.append(average_degree_centrality(overlay.graph))
            result.max_degree.append(overlay.max_degree())

        record(0)
        deleted = 0
        for victims in schedule.batches(batch):
            deleted += overlay.remove_nodes(victims)
            record(deleted)
        results.append(result)
    return results


# ----------------------------------------------------------------------
# Figure 5 -- DDSR vs normal graph: components, degree centrality, diameter
# ----------------------------------------------------------------------
@dataclass
class Fig5Result:
    """The six Figure 5 series for one network size."""

    n: int
    k: int
    deletions: List[int] = field(default_factory=list)
    ddsr_components: List[int] = field(default_factory=list)
    normal_components: List[int] = field(default_factory=list)
    ddsr_degree_centrality: List[float] = field(default_factory=list)
    normal_degree_centrality: List[float] = field(default_factory=list)
    ddsr_diameter: List[float] = field(default_factory=list)
    normal_diameter: List[float] = field(default_factory=list)

    def ddsr_stays_connected_until(self) -> float:
        """Fraction of deletions up to which the DDSR overlay stayed connected."""
        if not self.deletions:
            return 0.0
        last_connected = 0
        for deleted, components in zip(self.deletions, self.ddsr_components):
            if components <= 1:
                last_connected = deleted
        return last_connected / self.n if self.n else 0.0

    def normal_partitions_at(self) -> Optional[float]:
        """Deletion fraction at which the normal graph first partitions."""
        for deleted, components in zip(self.deletions, self.normal_components):
            if components > 1 and deleted > 0:
                return deleted / self.n
        return None


def run_fig5_resilience(
    *,
    n: int = 1000,
    k: int = 10,
    max_fraction: float = 0.95,
    checkpoints: int = 12,
    seed: int = 0,
) -> Fig5Result:
    """Reproduce Figure 5: DDSR vs normal graph under incremental deletions.

    Both overlays start from the *same* k-regular wiring and see the *same*
    victim schedule.  The paper uses ``n=5000`` (left column) and ``n=15000``
    (right column) with ``k=10``.  Diameters are exact, over the largest
    component of each overlay.
    """
    ddsr = DDSROverlay.k_regular(n, k, seed=seed)
    normal = NormalOverlay.matching(ddsr)
    schedule = DeletionSchedule.random(ddsr.nodes(), max_fraction, seed=seed + 7)
    total = len(schedule)
    batch = max(1, total // checkpoints)
    result = Fig5Result(n=n, k=k)

    def record(deleted: int) -> None:
        result.deletions.append(deleted)
        ddsr_components = number_connected_components(ddsr.graph)
        normal_components = number_connected_components(normal.graph)
        result.ddsr_components.append(ddsr_components)
        result.normal_components.append(normal_components)
        result.ddsr_degree_centrality.append(average_degree_centrality(ddsr.graph))
        result.normal_degree_centrality.append(average_degree_centrality(normal.graph))
        # The component counts were just computed, so the diameter calls can
        # skip their own component scan when the graph is still connected.
        result.ddsr_diameter.append(
            diameter(ddsr.graph, connected=ddsr_components == 1)
        )
        result.normal_diameter.append(
            diameter(normal.graph, connected=normal_components == 1)
        )

    record(0)
    deleted = 0
    for victims in schedule.batches(batch):
        deleted += ddsr.remove_nodes(victims)
        normal.remove_nodes(victims)
        record(deleted)
    return result


# ----------------------------------------------------------------------
# Figure 6 -- simultaneous-takedown partition threshold vs network size
# ----------------------------------------------------------------------
@dataclass
class Fig6Result:
    """Partition thresholds for a range of network sizes (Figure 6)."""

    k: int
    sizes: List[int] = field(default_factory=list)
    nodes_to_partition: List[int] = field(default_factory=list)
    fractions: List[float] = field(default_factory=list)

    def mean_fraction(self) -> float:
        """Average partition-threshold fraction across sizes (paper: ~0.4)."""
        if not self.fractions:
            return 0.0
        return sum(self.fractions) / len(self.fractions)


def run_fig6_partition_threshold(
    *,
    sizes: Sequence[int] = (200, 500, 1000, 2000),
    k: int = 10,
    seed: int = 0,
    resolution: float = 0.05,
    trials_per_fraction: int = 2,
    workers: int = 1,
    cache=None,
) -> Fig6Result:
    """Reproduce Figure 6: nodes that must be removed *at once* to partition.

    For each size a 10-regular graph is built and increasing random victim
    sets are removed simultaneously (no repair in between) until the survivors
    split.  The paper sweeps n = 1000 ... 15000 and finds the threshold to sit
    at roughly 40 % of the nodes; pass ``sizes=range(1000, 15001, 1000)`` to
    match it exactly.

    The per-size computations run through the :mod:`repro.runner` executor
    (the ``fig6-partition-threshold`` scenario), so ``workers > 1`` shards
    sizes across processes -- the paper-scale sweep is embarrassingly
    parallel -- and passing a :class:`repro.runner.cache.ResultCache` makes
    re-runs and extended sweeps incremental.  Output is independent of the
    worker count.
    """
    from repro.runner.executor import run_scenario

    sizes = [int(size) for size in sizes]
    run = run_scenario(
        "fig6-partition-threshold",
        params={"k": k, "resolution": resolution, "trials_per_fraction": trials_per_fraction},
        grid={"size": sizes},
        seed=seed,
        workers=workers,
        cache=cache,
    )
    result = Fig6Result(k=k)
    # With trials=1 the unit schedule order is exactly the grid (sizes) order.
    for size, metrics in zip(sizes, run.unit_metrics):
        result.sizes.append(size)
        result.fractions.append(metrics["fraction"])
        result.nodes_to_partition.append(int(metrics["nodes_to_partition"]))
    return result


# ----------------------------------------------------------------------
# SOAP campaign (Figure 7 / section VI-B)
# ----------------------------------------------------------------------
@dataclass
class SoapExperimentResult:
    """SOAP campaign outcome plus the benign-subgraph containment summary."""

    campaign: SoapCampaignResult
    benign_components: Dict[str, int]
    n: int
    k: int

    @property
    def neutralized(self) -> bool:
        """Whether the whole botnet ended up contained."""
        return self.campaign.neutralized


def run_soap_campaign(
    *,
    n: int = 300,
    k: int = 10,
    seed: int = 0,
    initial_compromised: int = 1,
    admission=None,
    max_targets: Optional[int] = None,
) -> SoapExperimentResult:
    """Run a full SOAP campaign against a fresh k-regular OnionBot overlay.

    ``admission`` accepts a peering-admission policy (PoW / rate limiting) to
    reproduce the section VII-A counter-countermeasure analysis; the default
    open admission reproduces the basic OnionBot, which SOAP fully neutralizes.
    """
    overlay = DDSROverlay.k_regular(n, k, seed=seed)
    rng = random.Random(seed + 13)
    compromised = rng.sample(overlay.nodes(), initial_compromised)
    attack_kwargs = {"rng": random.Random(seed + 17)}
    if admission is not None:
        attack_kwargs["admission"] = admission
    attack = SoapAttack(**attack_kwargs)
    campaign = attack.run_campaign(overlay, compromised, max_targets=max_targets)
    benign = SoapAttack.benign_subgraph_components(overlay)
    return SoapExperimentResult(campaign=campaign, benign_components=benign, n=n, k=k)


# ----------------------------------------------------------------------
# HSDir interception (section VI-A)
# ----------------------------------------------------------------------
@dataclass
class HsdirExperimentResult:
    """HSDir interception outcome, before and after the target rotates."""

    interception: InterceptionResult
    denial_before_rotation: bool
    reachable_after_rotation: bool
    relays_required: int


def run_hsdir_interception(*, relays: int = 40, seed: int = 0) -> HsdirExperimentResult:
    """Reproduce the HSDir-interception mitigation and its limitation.

    A bot's hidden service is targeted: the defender injects crafted relays,
    waits out the 25-hour flag delay, and censors the descriptors -- denying
    access to that address.  The bot then rotates to its next-period address
    (which the defender cannot predict without the bot key), and becomes
    reachable again, demonstrating why the paper considers this mitigation
    insufficient on its own.
    """
    simulator = Simulator(seed=seed)
    network = TorNetwork(simulator, TorNetworkConfig(num_relays=relays))
    network.bootstrap()

    from repro.core.addressing import AddressPlan
    from repro.crypto.kdf import kdf
    from repro.crypto.keys import KeyPair

    botmaster = KeyPair.from_seed(b"hsdir-experiment-botmaster")
    bot_key = kdf("onionbot.bot-key", b"hsdir-experiment-bot")
    plan = AddressPlan(botmaster_public=botmaster.public, bot_key=bot_key)

    host = network.host_service(plan.keypair_at(simulator.now), lambda payload, conn: b"ack")
    target_address = host.onion_address

    defender = HsdirInterception(network)
    interception = defender.intercept(target_address)
    # The bot republishes its descriptor for the (now censored) address.
    network.publish_descriptor(host)
    denial_before = False
    try:
        network.lookup_descriptor(target_address)
    except Exception:
        denial_before = True

    # The bot rotates to its next-period address and republishes.
    new_keypair = plan.keypair_at(simulator.now + 86400.0)
    simulator.run_for(86400.0)
    network.rotate_service_key(host, new_keypair)
    reachable_after = True
    try:
        network.lookup_descriptor(host.onion_address)
    except Exception:
        reachable_after = False

    return HsdirExperimentResult(
        interception=interception,
        denial_before_rotation=denial_before,
        reachable_after_rotation=reachable_after,
        relays_required=defender.collateral_relays(),
    )


# ----------------------------------------------------------------------
# SuperOnion vs SOAP (section VII / Figure 8)
# ----------------------------------------------------------------------
def run_superonion_vs_soap(
    *,
    hosts: int = 5,
    virtual_per_host: int = 3,
    peers_per_virtual: int = 2,
    rounds: int = 8,
    targets_per_round: int = 3,
    seed: int = 0,
) -> Tuple[SuperOnionSurvivalResult, SoapExperimentResult]:
    """Head-to-head: SuperOnion hosts vs a basic overlay of equal size under SOAP.

    Returns ``(superonion_result, basic_result)``: the SuperOnion network uses
    the Figure 8 parameters (n hosts x m virtual bots, i peers each) with its
    probe-and-recover loop, while the basic OnionBot overlay of ``hosts * m``
    nodes faces the same attacker without any recovery.
    """
    network = SuperOnionNetwork(
        hosts=hosts,
        virtual_per_host=virtual_per_host,
        peers_per_virtual=peers_per_virtual,
        seed=seed,
    )
    super_attack = SoapAttack(rng=random.Random(seed + 23))
    super_result = network.withstand_soap(
        super_attack, rounds=rounds, targets_per_round=targets_per_round
    )
    basic_result = run_soap_campaign(
        n=hosts * virtual_per_host,
        k=min(peers_per_virtual * 2, hosts * virtual_per_host - 1),
        seed=seed,
    )
    return super_result, basic_result


# ----------------------------------------------------------------------
# Proof-of-work trade-off (section VII-A)
# ----------------------------------------------------------------------
@dataclass
class PowTradeoffPoint:
    """One point of the PoW sweep: attack cost vs botnet recovery cost."""

    escalation_factor: float
    work_budget_per_clone: float
    containment_fraction: float
    clones_created: int
    attacker_work: float
    requests_rejected: int
    repair_work_cost: float


def run_pow_tradeoff(
    *,
    n: int = 200,
    k: int = 8,
    seed: int = 0,
    escalation_factors: Sequence[float] = (1.0, 1.5, 2.0, 3.0),
    work_budget_per_clone: float = 64.0,
) -> List[PowTradeoffPoint]:
    """Sweep the PoW escalation factor and measure both sides of the trade-off.

    Higher escalation makes SOAP containment stall (clone requests get
    rejected once the price exceeds the defender's per-clone budget) but also
    prices the botnet's own repair traffic; the repair cost column quantifies
    the "decreased flexibility and recoverability" the paper warns about.
    """
    points: List[PowTradeoffPoint] = []
    for factor in escalation_factors:
        admission = PowAdmission(
            PowParameters(
                base_work=1.0,
                escalation_factor=factor,
                work_budget_per_clone=work_budget_per_clone,
            )
        )
        result = run_soap_campaign(n=n, k=k, seed=seed, admission=admission)
        # Cost of self-repair under the same pricing: a 30 % gradual takedown.
        overlay = DDSROverlay.k_regular(n, k, seed=seed + 1)
        overlay.remove_fraction(0.3, rng=random.Random(seed + 2))
        repair_cost = admission.params.base_work * overlay.stats.repair_edges_added
        points.append(
            PowTradeoffPoint(
                escalation_factor=factor,
                work_budget_per_clone=work_budget_per_clone,
                containment_fraction=result.campaign.containment_fraction,
                clones_created=result.campaign.clones_created,
                attacker_work=result.campaign.work_spent,
                requests_rejected=result.campaign.requests_rejected,
                repair_work_cost=repair_cost,
            )
        )
    return points


# ----------------------------------------------------------------------
# Integrated botnet smoke experiment (used by examples and tests)
# ----------------------------------------------------------------------
def run_integrated_botnet(
    *,
    bots: int = 30,
    seed: int = 0,
    takedown_fraction: float = 0.2,
) -> Dict[str, float]:
    """End-to-end run of the full botnet simulation.

    Builds a botnet over the in-memory Tor network, broadcasts a command,
    takes down a fraction of the bots, rotates addresses, and broadcasts
    again -- returning the coverage numbers the integration tests assert on.
    """
    net = OnionBotnet(seed=seed)
    net.build(bots)
    first = net.broadcast_command("report-status")
    victims = net.active_labels()[: int(takedown_fraction * bots)]
    net.take_down(victims)
    net.advance_to_next_period()
    second = net.broadcast_command("report-status")
    stats = net.stats()
    return {
        "bots": float(bots),
        "coverage_before": first.coverage,
        "coverage_after": second.coverage,
        "active_after": float(stats.active_bots),
        "components_after": float(stats.connected_components),
        "max_degree_after": float(stats.max_degree),
    }
