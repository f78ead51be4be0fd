"""Built-in scenario registrations.

Two families live here:

* **wrappers** around the per-figure ``run_*`` experiment functions in
  :mod:`repro.analysis.experiments`, flattening their rich result objects
  into the scalar metrics the runner aggregates and caches;
* **composed scenarios** (``composed=True``) that cross subsystem boundaries
  the flat ``run_*`` API never could: SOAP under background churn,
  SuperOnion recovery under combined seizure + SOAP pressure, and HSDir
  interception against a botnet that keeps recruiting while the defender's
  relays wait out the 25-hour flag delay.

Every scenario is a pure function of ``(seed, **params)`` returning flat
``{metric: float}`` -- that contract is what makes results cacheable and the
parallel executor bit-identical to the serial one.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from repro.runner.registry import scenario
from repro.sim.rng import RandomStreams, derive_seed


# ======================================================================
# Wrappers around the per-figure experiment runners
# ======================================================================
@scenario(
    name="fig3-walkthrough",
    description="Figure 3: self-repair walk-through on a small 3-regular graph",
    defaults={"n": 12, "k": 3, "deletions": 8},
)
def fig3_walkthrough(*, seed: int, n: int, k: int, deletions: int) -> Dict[str, float]:
    from repro.analysis.experiments import run_fig3_walkthrough

    result = run_fig3_walkthrough(n=n, k=k, deletions=deletions, seed=seed)
    return {
        "steps": float(len(result.steps)),
        "final_connected": float(result.final_connected()),
        "survivors": result.steps[-1]["survivors"] if result.steps else float(n),
        "repair_edges_total": sum(step["repair_edges_added"] for step in result.steps),
        "max_degree": max((step["max_degree"] for step in result.steps), default=0.0),
    }


@scenario(
    name="fig4-centrality",
    description="Figure 4: centrality under incremental deletions (one degree curve)",
    version="2",
    defaults={
        "n": 300,
        "degree": 10,
        "pruning": True,
        "max_fraction": 0.3,
        "checkpoints": 4,
    },
)
def fig4_centrality(
    *,
    seed: int,
    n: int,
    degree: int,
    pruning: bool,
    max_fraction: float,
    checkpoints: int,
) -> Dict[str, float]:
    from repro.analysis.experiments import run_fig4_centrality

    curve = run_fig4_centrality(
        n=n,
        degrees=(degree,),
        max_fraction=max_fraction,
        checkpoints=checkpoints,
        pruning=pruning,
        seed=seed,
    )[0]
    return {
        "initial_closeness": curve.closeness[0],
        "final_closeness": curve.closeness[-1],
        "closeness_drop": curve.closeness[0] - curve.closeness[-1],
        "final_degree_centrality": curve.degree_centrality[-1],
        "max_degree_observed": float(max(curve.max_degree)),
    }


def fig5_summary(result) -> Dict[str, float]:
    """Flatten a :class:`~repro.analysis.experiments.Fig5Result` to metrics.

    ``normal_partition_fraction`` is -1.0 when the normal graph never
    partitioned in the run (a sentinel keeps the metric aggregatable).
    """
    partition_at = result.normal_partitions_at()
    return {
        "ddsr_stays_connected_until": result.ddsr_stays_connected_until(),
        "normal_partition_fraction": -1.0 if partition_at is None else partition_at,
        "max_ddsr_components": float(max(result.ddsr_components)),
        "max_normal_components": float(max(result.normal_components)),
        "ddsr_final_degree_centrality": result.ddsr_degree_centrality[-2],
        "normal_final_degree_centrality": result.normal_degree_centrality[-2],
        "ddsr_initial_diameter": result.ddsr_diameter[0],
        "ddsr_late_diameter": result.ddsr_diameter[-2],
    }


@scenario(
    name="fig5-resilience",
    description="Figure 5: DDSR vs normal graph under incremental deletions",
    version="2",
    defaults={"n": 300, "k": 10, "max_fraction": 0.95, "checkpoints": 10},
)
def fig5_resilience(
    *, seed: int, n: int, k: int, max_fraction: float, checkpoints: int
) -> Dict[str, float]:
    from repro.analysis.experiments import run_fig5_resilience

    result = run_fig5_resilience(
        n=n,
        k=k,
        max_fraction=max_fraction,
        checkpoints=checkpoints,
        seed=seed,
    )
    return fig5_summary(result)


@scenario(
    name="fig6-partition-threshold",
    description="Figure 6: simultaneous-takedown partition threshold for one size",
    defaults={"size": 500, "k": 10, "resolution": 0.05, "trials_per_fraction": 2},
)
def fig6_partition_threshold(
    *, seed: int, size: int, k: int, resolution: float, trials_per_fraction: int
) -> Dict[str, float]:
    from repro.graphs.generators import k_regular_graph
    from repro.graphs.partition import minimum_partition_fraction

    rng = random.Random(seed)
    graph = k_regular_graph(size, k, rng=rng)
    fraction = minimum_partition_fraction(
        graph, rng=rng, resolution=resolution, trials_per_fraction=trials_per_fraction
    )
    return {
        "fraction": fraction,
        "nodes_to_partition": float(int(round(fraction * size))),
    }


@scenario(
    name="soap-campaign",
    description="SOAP clone campaign against a fresh k-regular OnionBot overlay",
    defaults={"n": 150, "k": 10, "initial_compromised": 1, "max_targets": None},
)
def soap_campaign(
    *, seed: int, n: int, k: int, initial_compromised: int, max_targets: Optional[int]
) -> Dict[str, float]:
    from repro.analysis.experiments import run_soap_campaign

    result = run_soap_campaign(
        n=n, k=k, seed=seed, initial_compromised=initial_compromised, max_targets=max_targets
    )
    return {
        "containment_fraction": result.campaign.containment_fraction,
        "neutralized": float(result.neutralized),
        "clones_created": float(result.campaign.clones_created),
        "clones_per_bot": result.campaign.clones_per_bot,
        "work_spent": result.campaign.work_spent,
        "requests_rejected": float(result.campaign.requests_rejected),
        "benign_nontrivial_components": float(
            result.benign_components["nontrivial_components"]
        ),
    }


@scenario(
    name="pow-tradeoff",
    description="PoW admission trade-off: one escalation-factor point",
    defaults={"n": 120, "k": 8, "escalation_factor": 2.0, "work_budget_per_clone": 64.0},
)
def pow_tradeoff(
    *, seed: int, n: int, k: int, escalation_factor: float, work_budget_per_clone: float
) -> Dict[str, float]:
    from repro.analysis.experiments import run_pow_tradeoff

    point = run_pow_tradeoff(
        n=n,
        k=k,
        seed=seed,
        escalation_factors=(escalation_factor,),
        work_budget_per_clone=work_budget_per_clone,
    )[0]
    return {
        "containment_fraction": point.containment_fraction,
        "clones_created": float(point.clones_created),
        "attacker_work": point.attacker_work,
        "requests_rejected": float(point.requests_rejected),
        "repair_work_cost": point.repair_work_cost,
    }


@scenario(
    name="hsdir-interception",
    description="HSDir interception of one hidden service, then key rotation",
    defaults={"relays": 40},
)
def hsdir_interception(*, seed: int, relays: int) -> Dict[str, float]:
    from repro.analysis.experiments import run_hsdir_interception

    result = run_hsdir_interception(relays=relays, seed=seed)
    return {
        "denial_before_rotation": float(result.denial_before_rotation),
        "reachable_after_rotation": float(result.reachable_after_rotation),
        "relays_required": float(result.relays_required),
        "control_fraction": result.interception.control_fraction,
    }


@scenario(
    name="superonion-vs-soap",
    description="SuperOnion hosts vs a basic overlay of equal size under SOAP",
    version="3",
    defaults={
        "hosts": 5,
        "virtual_per_host": 3,
        "peers_per_virtual": 2,
        "rounds": 8,
        "targets_per_round": 3,
    },
)
def superonion_vs_soap(
    *,
    seed: int,
    hosts: int,
    virtual_per_host: int,
    peers_per_virtual: int,
    rounds: int,
    targets_per_round: int,
) -> Dict[str, float]:
    from repro.analysis.experiments import run_superonion_vs_soap

    super_result, basic_result = run_superonion_vs_soap(
        hosts=hosts,
        virtual_per_host=virtual_per_host,
        peers_per_virtual=peers_per_virtual,
        rounds=rounds,
        targets_per_round=targets_per_round,
        seed=seed,
    )
    return {
        "superonion_host_survival": super_result.host_survival_fraction,
        "virtual_nodes_soaped": float(super_result.virtual_nodes_soaped),
        "virtual_nodes_replaced": float(super_result.virtual_nodes_replaced),
        "clones_spent": float(super_result.clones_spent),
        "basic_neutralized": float(basic_result.neutralized),
        "basic_containment_fraction": basic_result.campaign.containment_fraction,
    }


@scenario(
    name="integrated-botnet",
    description="End-to-end botnet: build, broadcast, takedown, rotate, broadcast",
    defaults={"bots": 20, "takedown_fraction": 0.2},
)
def integrated_botnet(*, seed: int, bots: int, takedown_fraction: float) -> Dict[str, float]:
    from repro.analysis.experiments import run_integrated_botnet

    return dict(run_integrated_botnet(bots=bots, seed=seed, takedown_fraction=takedown_fraction))


# ======================================================================
# Ablations (ported from benchmarks/bench_ablations.py onto the runner)
# ======================================================================
@scenario(
    name="ablation-repair-policy",
    description="DDSR repair-policy ablation under gradual deletions",
    defaults={"policy": "clique", "n": 300, "k": 10, "fraction": 0.7},
)
def ablation_repair_policy(
    *, seed: int, policy: str, n: int, k: int, fraction: float
) -> Dict[str, float]:
    from repro.core.ddsr import DDSRConfig, DDSROverlay, RepairPolicy
    from repro.graphs.backend import largest_component_fraction, number_connected_components

    config = DDSRConfig(d_min=5, d_max=15, repair_policy=RepairPolicy(policy))
    overlay = DDSROverlay.k_regular(n, k, config=config, seed=derive_seed(seed, "wiring"))
    overlay.remove_fraction(fraction, rng=random.Random(derive_seed(seed, "victims")))
    return {
        "components": float(number_connected_components(overlay.graph)),
        "largest_component_fraction": largest_component_fraction(overlay.graph),
        "repair_edges_added": float(overlay.stats.repair_edges_added),
        "max_degree": float(overlay.max_degree()),
    }


@scenario(
    name="ablation-pruning-policy",
    description="DDSR pruning-victim-selection ablation under gradual deletions",
    defaults={"policy": "highest-degree", "n": 300, "k": 10, "fraction": 0.5},
)
def ablation_pruning_policy(
    *, seed: int, policy: str, n: int, k: int, fraction: float
) -> Dict[str, float]:
    from repro.core.ddsr import DDSRConfig, DDSROverlay, PruningPolicy
    from repro.graphs.backend import largest_component_fraction, number_connected_components

    config = DDSRConfig(d_min=5, d_max=15, pruning_policy=PruningPolicy(policy))
    overlay = DDSROverlay.k_regular(n, k, config=config, seed=derive_seed(seed, "wiring"))
    overlay.remove_fraction(fraction, rng=random.Random(derive_seed(seed, "victims")))
    return {
        "components": float(number_connected_components(overlay.graph)),
        "largest_component_fraction": largest_component_fraction(overlay.graph),
        "prune_operations": float(overlay.stats.prune_operations),
        "max_degree": float(overlay.max_degree()),
    }


# ======================================================================
# At-scale scenarios (vectorized CSR graph backend; 100k+ nodes)
# ======================================================================
@scenario(
    name="resilience-at-scale",
    description="Fig-5-style gradual takedown resilience sweep at 100k nodes",
    version="3",
    shard_size=1,
    defaults={
        "n": 100_000,
        "k": 10,
        "max_fraction": 0.5,
        "checkpoints": 5,
        "metric_sample": None,
        "closeness_sample": None,
    },
)
def resilience_at_scale(
    *,
    seed: int,
    n: int,
    k: int,
    max_fraction: float,
    checkpoints: int,
    metric_sample: Optional[int],
    closeness_sample: Optional[int],
) -> Dict[str, float]:
    """Figure 5's gradual-takedown sweep at sizes the paper could not reach.

    A k-regular DDSR overlay loses ``max_fraction`` of its nodes one at a
    time (repair after every deletion), in batches of ``len(schedule) //
    checkpoints`` victims (one more, smaller batch when that leaves a
    remainder).  Before the first batch and after each one, components,
    degree centrality and the path metrics are measured through
    :meth:`~repro.core.ddsr.DDSROverlay.path_metric_summary`, but only the
    components of the intermediate checkpoints are used (for
    ``stayed_connected_until_fraction``): the path metrics and degree
    centrality are returned for the initial and the final overlay.  Every path
    metric is exact: diameter, ASPL and closeness all come from one
    full-population wave campaign per checkpoint, so the 100k-node
    resilience curves report exact values where the paper sampled diameter
    and path length.  ``REPRO_PATH_WORKERS=N`` source-shards each campaign
    across a process pool, bit-identically to serial; the overlay's exact
    campaigns read it themselves (an environment knob, not a parameter:
    performance settings must not perturb unit seeds or cache identity).

    ``metric_sample`` and ``closeness_sample`` accept only ``None`` and
    change nothing: they stay in ``defaults`` so that the pinned benchmark
    rows and the cache keys of this scenario keep their bytes, until a
    benchmark re-pin drops them (ROADMAP item 2).
    """
    from repro.core.ddsr import DDSROverlay
    from repro.core.errors import ConfigError
    from repro.graphs import backend
    from repro.workloads.deletion import DeletionSchedule

    for name, value in (
        ("metric_sample", metric_sample),
        ("closeness_sample", closeness_sample),
    ):
        if value is not None:
            raise ConfigError(
                f"resilience-at-scale: {name}={value!r} is refused; path metrics "
                f"are exact only and {name} accepts only null (the key goes with "
                f"the benchmark-goldens re-pin, ROADMAP item 2)"
            )

    overlay = DDSROverlay.k_regular(n, k, seed=derive_seed(seed, "wiring"))
    schedule = DeletionSchedule.random(
        overlay.nodes(), max_fraction, seed=derive_seed(seed, "victims")
    )
    batch = max(1, len(schedule) // checkpoints) if len(schedule) else 1

    def measure() -> Dict[str, float]:
        summary = overlay.path_metric_summary()
        return {
            "components": float(summary["components"]),
            "largest_fraction": summary["largest_fraction"],
            "diameter": summary["diameter"],
            "avg_path_length": summary["avg_path_length"],
            "avg_closeness": summary["avg_closeness"],
            "degree_centrality": backend.average_degree_centrality(overlay.graph),
        }

    initial = measure()
    deleted = 0
    connected_until = 0
    still_connected = initial["components"] == 1.0
    final = initial
    for victims in schedule.batches(batch):
        deleted += overlay.remove_nodes(victims)
        final = measure()
        # Only advance while the overlay has never split: repairs can
        # re-join a partitioned overlay at a later checkpoint, which must
        # not retroactively count as uninterrupted connectivity.
        if still_connected and final["components"] == 1.0:
            connected_until = deleted
        else:
            still_connected = False
    return {
        "n": float(n),
        "deleted": float(deleted),
        "survivors": float(len(overlay)),
        "stayed_connected_until_fraction": connected_until / n if n else 0.0,
        "final_components": final["components"],
        "final_largest_fraction": final["largest_fraction"],
        "initial_diameter": initial["diameter"],
        "final_diameter": final["diameter"],
        "initial_avg_path_length": initial["avg_path_length"],
        "final_avg_path_length": final["avg_path_length"],
        "initial_avg_closeness": initial["avg_closeness"],
        "final_avg_closeness": final["avg_closeness"],
        "final_degree_centrality": final["degree_centrality"],
        "repair_edges_added": float(overlay.stats.repair_edges_added),
        "max_degree": float(overlay.max_degree()),
    }


@scenario(
    name="partition-threshold-at-scale",
    description="Fig-6 simultaneous-takedown partition threshold at 100k nodes",
    shard_size=1,
    defaults={"size": 100_000, "k": 10, "resolution": 0.05, "trials_per_fraction": 1},
)
def partition_threshold_at_scale(
    *, seed: int, size: int, k: int, resolution: float, trials_per_fraction: int
) -> Dict[str, float]:
    """Figure 6's partition-threshold search at 100k nodes.

    Identical search to ``fig6-partition-threshold`` -- random victim sets of
    increasing size removed simultaneously until the survivors split -- but
    each trial's component check runs on a masked CSR (no survivor-subgraph
    construction), extending the sweep an order of magnitude past the paper's
    largest network.  Also reports the component structure at the threshold.
    """
    from repro.graphs.generators import k_regular_graph
    from repro.graphs.partition import minimum_partition_fraction, partition_after_fraction

    rng = random.Random(seed)
    graph = k_regular_graph(size, k, rng=rng)
    fraction = minimum_partition_fraction(
        graph, rng=rng, resolution=resolution, trials_per_fraction=trials_per_fraction
    )
    report = partition_after_fraction(
        graph, fraction, rng=random.Random(derive_seed(seed, "report"))
    )
    return {
        "fraction": fraction,
        "nodes_to_partition": float(int(round(fraction * size))),
        "surviving_at_threshold": float(report.surviving_nodes),
        "components_at_threshold": float(report.component_count),
        "largest_fraction_at_threshold": report.largest_fraction,
        "isolated_at_threshold": float(report.isolated_nodes),
    }


@scenario(
    name="soap-at-scale",
    description="SOAP containment campaign against a 50k-node OnionBot overlay",
    shard_size=1,
    defaults={"n": 50_000, "k": 10, "initial_compromised": 1, "max_targets": None},
)
def soap_at_scale(
    *, seed: int, n: int, k: int, initial_compromised: int, max_targets: Optional[int]
) -> Dict[str, float]:
    """Figure 7's containment campaign at sizes the paper never simulated.

    The same experiment as ``soap-campaign`` -- seed a few compromised bots,
    spread containment through learned peer lists until the botnet is
    neutralized -- but sized an order of magnitude past the paper's overlay.
    Tractable because of this layer stack: the vectorized
    :class:`~repro.adversary.soap.SoapAttack` campaign (deque FIFO, degree
    buckets, id-array bookkeeping) and the CSR benign-subgraph kernel, which
    builds a compact CSR of the benign nodes straight from the adjacency.
    Also reports how quickly containment spreads (targets to half coverage).
    """
    from repro.adversary.soap import SoapAttack
    from repro.core.ddsr import DDSROverlay

    overlay = DDSROverlay.k_regular(n, k, seed=derive_seed(seed, "wiring"))
    chooser = random.Random(derive_seed(seed, "compromise"))
    compromised = chooser.sample(overlay.nodes(), initial_compromised)
    attack = SoapAttack(rng=random.Random(derive_seed(seed, "attack")))
    campaign = attack.run_campaign(overlay, compromised, max_targets=max_targets)
    benign = SoapAttack.benign_subgraph_components(overlay)
    half = next(
        (processed for processed, fraction in campaign.timeline if fraction >= 0.5),
        0,
    )
    return {
        "n": float(n),
        "containment_fraction": campaign.containment_fraction,
        "neutralized": float(campaign.neutralized),
        "clones_created": float(campaign.clones_created),
        "clones_per_bot": campaign.clones_per_bot,
        "peering_requests": float(campaign.peering_requests),
        "targets_to_half_containment": float(half),
        "benign_components": float(benign["components"]),
        "benign_nontrivial_components": float(benign["nontrivial_components"]),
        "benign_largest_component": float(benign["largest_component"]),
    }


@scenario(
    name="soap-admission-grid",
    description="PoW / rate-limit admission sweep for SOAP containment at 50k nodes",
    shard_size=1,
    defaults={
        "n": 50_000,
        "k": 10,
        "initial_compromised": 1,
        "admission": "open",
        "pow_escalation": 2.0,
        "pow_budget": 256.0,
        "rate_base_delay": 60.0,
        "rate_per_degree_delay": 30.0,
        "rate_patience": 3600.0,
    },
)
def soap_admission_grid(
    *,
    seed: int,
    n: int,
    k: int,
    initial_compromised: int,
    admission: str,
    pow_escalation: float,
    pow_budget: float,
    rate_base_delay: float,
    rate_per_degree_delay: float,
    rate_patience: float,
) -> Dict[str, float]:
    """Section VII-A's counter-countermeasure trade-off, an order of magnitude up.

    ``soap-at-scale`` runs open admission only; here the 50k-node overlay
    defends itself with the paper's PoW or rate-limit peering admission
    (swept via the ``admission`` axis: ``open`` / ``pow`` / ``rate-limit``
    with their policy-strength parameters), measuring what the defense costs
    the attacker (work, rejections, clones) against how far containment
    still spreads -- and what the same pricing would charge the botnet's own
    repair traffic, the "decreased flexibility" the paper warns about.
    """
    from repro.adversary.soap import SoapAttack, open_admission
    from repro.core.ddsr import DDSROverlay
    from repro.defenses.pow import PowAdmission, PowParameters
    from repro.defenses.rate_limit import RateLimitedAdmission, RateLimitParameters

    if admission == "open":
        policy = open_admission
    elif admission == "pow":
        policy = PowAdmission(
            PowParameters(
                escalation_factor=pow_escalation,
                work_budget_per_clone=pow_budget,
            )
        )
    elif admission == "rate-limit":
        policy = RateLimitedAdmission(
            RateLimitParameters(
                base_delay=rate_base_delay,
                per_degree_delay=rate_per_degree_delay,
                max_acceptable_delay=rate_patience,
            )
        )
    else:
        raise ValueError(
            f"unknown admission policy {admission!r}; "
            "expected 'open', 'pow' or 'rate-limit'"
        )

    overlay = DDSROverlay.k_regular(n, k, seed=derive_seed(seed, "wiring"))
    chooser = random.Random(derive_seed(seed, "compromise"))
    compromised = chooser.sample(overlay.nodes(), initial_compromised)
    attack = SoapAttack(rng=random.Random(derive_seed(seed, "attack")), admission=policy)
    campaign = attack.run_campaign(overlay, compromised)
    benign = SoapAttack.benign_subgraph_components(overlay)

    defense_work = getattr(policy, "total_work_charged", 0.0)
    defense_delay = getattr(policy, "total_delay_charged", 0.0)
    # The flip side of the trade-off: after the campaign a 10% takedown hits
    # the overlay and the survivors heal; the same admission pricing charges
    # every repair edge its entry cost ("decreased flexibility and
    # recoverability", section VII-A).
    baseline_repairs = overlay.stats.repair_edges_added
    overlay.remove_fraction(0.1, rng=random.Random(derive_seed(seed, "heal")))
    heal_edges = overlay.stats.repair_edges_added - baseline_repairs
    # Each policy prices legitimate repairs through its own canonical helper
    # (the same accounting bench_pow_tradeoff reports), not an ad-hoc rate.
    if admission == "pow":
        heal_cost = policy.repair_cost(heal_edges)
    elif admission == "rate-limit":
        heal_cost = policy.repair_delay(overlay, heal_edges)
    else:
        heal_cost = 0.0
    return {
        "n": float(n),
        "containment_fraction": campaign.containment_fraction,
        "neutralized": float(campaign.neutralized),
        "clones_created": float(campaign.clones_created),
        "clones_per_bot": campaign.clones_per_bot,
        "peering_requests": float(campaign.peering_requests),
        "requests_rejected": float(campaign.requests_rejected),
        "attacker_work": campaign.work_spent,
        "defense_work_charged": float(defense_work),
        "defense_delay_charged": float(defense_delay),
        "heal_repair_edges": float(heal_edges),
        "heal_cost_under_policy": float(heal_cost),
        "benign_components": float(benign["components"]),
        "benign_nontrivial_components": float(benign["nontrivial_components"]),
    }


# ======================================================================
# Composed scenarios -- combinations the flat run_* API cannot express
# ======================================================================
@scenario(
    name="soap-under-churn",
    description="SOAP campaign against an overlay with live join/leave churn",
    composed=True,
    version="3",
    defaults={
        "n": 120,
        "k": 8,
        "join_rate": 3.0,
        "leave_rate": 1.5,
        "hours": 8.0,
        "targets_per_hour": 4,
    },
)
def soap_under_churn(
    *,
    seed: int,
    n: int,
    k: int,
    join_rate: float,
    leave_rate: float,
    hours: float,
    targets_per_hour: int,
) -> Dict[str, float]:
    """SOAP vs a *living* botnet.

    ``run_soap_campaign`` attacks a frozen overlay; here new infections keep
    joining (re-opening benign edges behind the attacker) and benign hosts
    keep leaving while the campaign runs, so containment is a race instead of
    a sweep.  Reuses :class:`repro.workloads.churn.ChurnModel` for the event
    stream and the standard SOAP attacker.
    """
    from repro.adversary.soap import SoapAttack, attack_order, is_clone
    from repro.core.ddsr import DDSROverlay
    from repro.workloads.churn import ChurnKind, ChurnModel

    streams = RandomStreams(seed)
    overlay = DDSROverlay.k_regular(n, k, seed=derive_seed(seed, "wiring"))
    churn = ChurnModel(
        join_rate=join_rate, leave_rate=leave_rate, seed=derive_seed(seed, "churn")
    )
    events = churn.generate(hours)
    attack = SoapAttack(rng=streams.stream("soap"))

    start = streams.choice("initial-compromise", overlay.nodes())
    known = {start} | {peer for peer in overlay.peers(start) if not is_clone(peer)}
    joins = leaves = 0
    targets_attacked = targets_contained = 0
    clones_created = 0

    def benign_nodes():
        return [node for node in overlay.nodes() if not is_clone(node)]

    next_event = 0
    for hour in range(math.ceil(hours)):
        horizon = (hour + 1) * 3600.0
        # --- churn phase: replay this hour's joins and leaves ------------
        while next_event < len(events) and events[next_event].time <= horizon:
            event = events[next_event]
            next_event += 1
            if event.kind is ChurnKind.JOIN:
                candidates = benign_nodes()
                if len(candidates) < 2:
                    continue
                degree = min(k, len(candidates))
                peers = streams.sample("join-peers", candidates, degree)
                overlay.add_node(event.label, peers)
                joins += 1
            else:
                candidates = [node for node in benign_nodes() if node != start]
                if len(candidates) <= 2:
                    continue
                victim = streams.choice("leave-victim", candidates)
                overlay.remove_node(victim)
                known.discard(victim)
                leaves += 1
        # --- attack phase: contain what the attacker currently knows -----
        attacked_this_hour = 0
        for target in attack_order(known, streams.stream("attack-order")):
            if attacked_this_hour >= targets_per_hour:
                break
            if target not in overlay.graph:
                known.discard(target)
                continue
            benign_peers = [p for p in overlay.peers(target) if not is_clone(p)]
            if not benign_peers:
                continue
            result = attack.contain_node(overlay, target)
            clones_created += result.clones_used
            targets_attacked += 1
            if result.contained:
                targets_contained += 1
            known.update(result.learned_addresses)
            attacked_this_hour += 1

    final_benign = benign_nodes()
    contained_now = sum(
        1
        for node in final_benign
        if overlay.peers(node) and all(is_clone(peer) for peer in overlay.peers(node))
    )
    return {
        "final_benign_population": float(len(final_benign)),
        "joins_applied": float(joins),
        "leaves_applied": float(leaves),
        "targets_attacked": float(targets_attacked),
        "targets_contained": float(targets_contained),
        "contained_fraction": contained_now / len(final_benign) if final_benign else 0.0,
        "clones_created": float(clones_created),
        "neutralized": float(bool(final_benign) and contained_now == len(final_benign)),
    }


@scenario(
    name="takedown-superonion",
    description="SuperOnion recovery under combined host seizures and SOAP",
    composed=True,
    version="2",
    defaults={
        "hosts": 6,
        "virtual_per_host": 3,
        "peers_per_virtual": 2,
        "rounds": 6,
        "takedown_per_round": 2,
        "targets_per_round": 2,
    },
)
def takedown_superonion(
    *,
    seed: int,
    hosts: int,
    virtual_per_host: int,
    peers_per_virtual: int,
    rounds: int,
    takedown_per_round: int,
    targets_per_round: int,
) -> Dict[str, float]:
    """Two-front adversary against a SuperOnion deployment.

    ``run_superonion_vs_soap`` only models the SOAP front.  Here each round a
    defender also *seizes* random virtual bots outright (a takedown, via the
    overlay's repair path) before SOAP strikes and the hosts run their
    probe-and-recover cycle -- measuring whether virtualization still keeps
    physical hosts alive when clones and seizures land together.
    """
    from repro.adversary.soap import SoapAttack, attack_order, is_clone
    from repro.defenses.superonion import SuperOnionNetwork

    streams = RandomStreams(seed)
    network = SuperOnionNetwork(
        hosts=hosts,
        virtual_per_host=virtual_per_host,
        peers_per_virtual=peers_per_virtual,
        seed=derive_seed(seed, "superonion"),
    )
    attack = SoapAttack(rng=streams.stream("soap"))

    start = streams.choice("initial-compromise", network.virtual_nodes())
    known = {start} | {p for p in network.overlay.peers(start) if not is_clone(p)}
    seized = soaped_total = replaced_total = clones_spent = attacks_launched = 0

    for _ in range(rounds):
        # --- seizure phase: take down random virtual bots -----------------
        present = [node for node in network.virtual_nodes() if node in network.overlay.graph]
        count = min(takedown_per_round, max(0, len(present) - 1))
        if count:
            for victim in streams.sample("seizure", present, count):
                network.overlay.remove_node(victim)
                known.discard(victim)
                seized += 1
        # --- SOAP phase ----------------------------------------------------
        attacked = 0
        for target in attack_order(known, streams.stream("attack-order")):
            if attacked >= targets_per_round:
                break
            if target not in network.overlay.graph:
                known.discard(target)
                continue
            if not any(not is_clone(p) for p in network.overlay.peers(target)):
                continue
            result = attack.contain_node(network.overlay, target)
            clones_spent += result.clones_used
            known.update(result.learned_addresses)
            attacked += 1
            attacks_launched += 1
        # --- recovery phase ------------------------------------------------
        soaped, replaced = network.probe_and_recover()
        soaped_total += soaped
        replaced_total += replaced

    surviving = sum(1 for host in network.hosts.values() if network.host_survives(host))
    return {
        "host_survival_fraction": surviving / hosts,
        "hosts_surviving": float(surviving),
        "virtual_nodes_seized": float(seized),
        "virtual_nodes_flagged": float(soaped_total),
        "virtual_nodes_replaced": float(replaced_total),
        "clones_spent": float(clones_spent),
        "soap_attacks_launched": float(attacks_launched),
    }


@scenario(
    name="hsdir-growth-interception",
    description="HSDir interception against a botnet that keeps recruiting",
    composed=True,
    defaults={"initial_bots": 10, "recruits": 4, "intercept_targets": 2},
)
def hsdir_growth_interception(
    *, seed: int, initial_bots: int, recruits: int, intercept_targets: int
) -> Dict[str, float]:
    """Interception races bootstrap growth and address rotation.

    ``run_hsdir_interception`` censors a single standalone hidden service.
    Here the defender intercepts live bot addresses inside a full
    :class:`~repro.core.botnet.OnionBotnet` while the botnet *keeps growing*
    through :class:`~repro.core.recruitment.RecruitmentCampaign` during the
    defender's 25-hour flag delay, then rotates addresses -- quantifying how
    little a per-address takedown buys against a growing, rotating botnet.
    """
    from repro.core.botnet import OnionBotnet
    from repro.core.recruitment import RecruitmentCampaign
    from repro.defenses.hsdir_takeover import HsdirInterception

    net = OnionBotnet(seed=seed)
    net.build(initial_bots)
    coverage_initial = net.broadcast_command("report-status").coverage

    defender = HsdirInterception(net.tor)
    targets = net.active_labels()[: max(0, intercept_targets)]
    denials = 0
    for label in targets:
        result = defender.intercept(net.onion_of(label))
        if result.denial_achieved:
            denials += 1

    # The interception wait advanced simulated time past rotation boundaries;
    # rotate so every bot's hosted address matches the current period again.
    net.advance_to_next_period()

    # Growth continues while (and after) the defender is busy.
    campaign = RecruitmentCampaign(net)
    recruited = campaign.recruit(recruits) if recruits > 0 else None

    reachable_after = 0
    for label in targets:
        try:
            net.tor.lookup_descriptor(net.onion_of(label))
            reachable_after += 1
        except Exception:
            pass
    coverage_final = net.broadcast_command("report-status").coverage
    stats = net.stats()
    return {
        "bots_initial": float(initial_bots),
        "bots_recruited": float(recruited.recruited if recruited else 0),
        "recruit_success_rate": recruited.success_rate if recruited else 0.0,
        "interceptions_attempted": float(len(targets)),
        "denial_fraction": denials / len(targets) if targets else 0.0,
        "reachable_after_rotation_fraction": reachable_after / len(targets) if targets else 0.0,
        "relays_injected": float(defender.collateral_relays()),
        "coverage_initial": coverage_initial,
        "coverage_final": coverage_final,
        "active_bots_final": float(stats.active_bots),
        "components_final": float(stats.connected_components),
    }
