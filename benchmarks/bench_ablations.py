"""Ablation benchmarks for the design choices called out in DESIGN.md.

These do not correspond to a specific paper figure; they justify the DDSR
design decisions quantitatively:

* repair policy (clique vs ring vs single edge vs none);
* pruning victim selection (highest-degree vs random vs lowest-degree);
* SOAP clone degree announcement (low/clique degree vs truthful inflated
  degree -- implemented by pre-wiring clones together so their graph degree
  is high, which makes them the pruning victims and stalls the attack);
* DDSR vs a Kademlia-style structured overlay under mass takedown.

The repair-policy and pruning-policy ablations run through the
:mod:`repro.runner` subsystem (registered ``ablation-*`` scenarios swept via
:func:`repro.runner.executor.run_scenario`), so the same grid can be
re-executed from the CLI -- e.g.::

    python -m repro.runner sweep ablation-repair-policy \
        --grid policy=clique,ring,single-edge,none --trials 5 --workers 4
"""

from __future__ import annotations

import random

from conftest import emit

from repro.analysis.reporting import render_result_rows
from repro.baselines.kademlia import KademliaOverlay
from repro.core.ddsr import DDSROverlay
from repro.graphs.metrics import number_connected_components
from repro.runner.executor import run_scenario


def test_ablation_repair_policy(benchmark):
    """Clique repair keeps the overlay whole; weaker policies fragment sooner."""

    def run():
        return run_scenario(
            "ablation-repair-policy",
            params={"n": 300, "k": 10, "fraction": 0.7},
            grid={"policy": ["clique", "ring", "single-edge", "none"]},
            seed=100,
        ).rows()

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — repair policy under 70% gradual deletions", render_result_rows(rows))
    by_policy = {row["policy"]: row for row in rows}
    assert by_policy["clique"]["components"] == 1
    assert by_policy["none"]["components"] > by_policy["clique"]["components"]
    assert by_policy["clique"]["largest_component_fraction"] >= by_policy["single-edge"]["largest_component_fraction"]


def test_ablation_pruning_policy(benchmark):
    """Dropping the highest-degree peer preserves reachability best."""

    def run():
        return run_scenario(
            "ablation-pruning-policy",
            params={"n": 300, "k": 10, "fraction": 0.5},
            grid={"policy": ["highest-degree", "random", "lowest-degree"]},
            seed=101,
        ).rows()

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — pruning victim selection under 50% deletions", render_result_rows(rows))
    assert all(row["max_degree"] <= 15 for row in rows)
    best = max(rows, key=lambda row: row["largest_component_fraction"])
    assert best["policy"] in ("highest-degree", "random")


def test_ablation_soap_clone_degree_announcement(benchmark):
    """SOAP depends on clones *looking* low-degree; high-degree clones get pruned instead."""

    def run():
        from repro.adversary.soap import SoapAttack

        # Baseline: standard SOAP (clone degree 1 at acceptance time).
        low_overlay = DDSROverlay.k_regular(150, 10, seed=102)
        low_attack = SoapAttack(rng=random.Random(3))
        low = low_attack.contain_node(low_overlay, low_overlay.nodes()[0])

        # Ablation: clones pre-wired into a dense clique so their degree is
        # higher than the target's real peers; the target's pruning rule then
        # evicts the clones themselves.
        high_overlay = DDSROverlay.k_regular(150, 10, seed=102)
        target = high_overlay.nodes()[0]
        clones = [f"soap-clone-9{i:05d}" for i in range(40)]
        for clone in clones:
            high_overlay.graph.add_node(clone)
        for i, a in enumerate(clones):
            for b in clones[i + 1:]:
                high_overlay.graph.add_edge(a, b)
        displaced = 0
        for clone in clones:
            benign_before = sum(
                1 for peer in high_overlay.peers(target) if not str(peer).startswith("soap-clone")
            )
            high_overlay.graph.add_edge(clone, target)
            high_overlay.enforce_degree_bound(target)
            benign_after = sum(
                1 for peer in high_overlay.peers(target) if not str(peer).startswith("soap-clone")
            )
            displaced += max(0, benign_before - benign_after)
        high_contained = all(
            str(peer).startswith("soap-clone") for peer in high_overlay.peers(target)
        )
        return {
            "low_degree_clones_contained_target": low.contained,
            "low_degree_clones_used": low.clones_used,
            "high_degree_clones_contained_target": high_contained,
            "high_degree_clones_displaced_benign_peers": displaced,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — SOAP clone degree announcement", render_result_rows([result]))
    assert result["low_degree_clones_contained_target"] is True
    assert result["high_degree_clones_contained_target"] is False


def test_ablation_ddsr_vs_kademlia_under_takedown(benchmark):
    """DDSR keeps a connected overlay with ~k peers; Kademlia keeps large tables
    and degrades lookup success under mass takedown."""

    def run():
        ddsr = DDSROverlay.k_regular(300, 10, seed=103)
        ddsr.remove_fraction(0.5, rng=random.Random(9))
        kademlia = KademliaOverlay.build(300, seed=103, bootstrap_contacts=24)
        healthy_rate = kademlia.lookup_success_rate(trials=80)
        kademlia.remove_fraction(0.5)
        degraded_rate = kademlia.lookup_success_rate(trials=80)
        return {
            "ddsr_components_after_50pct": number_connected_components(ddsr.graph),
            "ddsr_max_degree": ddsr.max_degree(),
            "kademlia_avg_routing_state": round(kademlia.average_routing_state(), 1),
            "kademlia_lookup_success_before": round(healthy_rate, 2),
            "kademlia_lookup_success_after": round(degraded_rate, 2),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation — DDSR vs Kademlia-style overlay", render_result_rows([result]))
    assert result["ddsr_components_after_50pct"] == 1
    assert result["ddsr_max_degree"] <= 15
    assert result["kademlia_avg_routing_state"] > 15
