"""Tests for the SuperOnionBot construction."""

import math
import random

import pytest

from repro.adversary.soap import SoapAttack, is_clone
from repro.defenses.superonion import SuperOnionNetwork, host_of, virtual_node_id


class TestConstruction:
    def test_figure8_parameters(self):
        network = SuperOnionNetwork(hosts=5, virtual_per_host=3, peers_per_virtual=2, seed=1)
        assert len(network.virtual_nodes()) == 15
        # Every virtual node peers only with virtual nodes of other hosts.
        for node in network.virtual_nodes():
            owner = host_of(node)
            for peer in network.overlay.peers(node):
                assert host_of(peer) != owner

    def test_every_virtual_node_has_enough_peers(self):
        network = SuperOnionNetwork(hosts=6, virtual_per_host=3, peers_per_virtual=2, seed=2)
        assert all(network.overlay.degree(node) >= 2 for node in network.virtual_nodes())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SuperOnionNetwork(hosts=1)
        with pytest.raises(ValueError):
            SuperOnionNetwork(hosts=3, virtual_per_host=1)

    def test_virtual_node_id_roundtrip(self):
        node = virtual_node_id(7, 3)
        assert host_of(node) == 7
        assert host_of("soap-clone-000001") is None


class TestProbeAndRecover:
    def test_healthy_network_detects_nothing(self):
        network = SuperOnionNetwork(hosts=4, virtual_per_host=3, seed=3)
        soaped, replaced = network.probe_and_recover()
        assert soaped == 0
        assert replaced == 0

    def test_soaped_virtual_node_is_detected_and_replaced(self):
        network = SuperOnionNetwork(hosts=5, virtual_per_host=3, peers_per_virtual=2, seed=4)
        attack = SoapAttack(rng=random.Random(0))
        victim = network.virtual_nodes()[0]
        result = attack.contain_node(network.overlay, victim)
        assert result.contained
        soaped, replaced = network.probe_and_recover()
        assert soaped >= 1
        assert replaced >= 1
        # The replacement is a fresh virtual node with benign peers.
        owner = network.hosts[host_of(victim)]
        assert victim not in owner.virtual_nodes
        assert all(
            any(not is_clone(peer) for peer in network.overlay.peers(node))
            for node in owner.virtual_nodes
            if node in network.overlay.graph
        )

    def test_host_survives_while_one_virtual_node_is_clean(self):
        network = SuperOnionNetwork(hosts=4, virtual_per_host=3, peers_per_virtual=2, seed=5)
        host = network.hosts[0]
        attack = SoapAttack(rng=random.Random(1))
        attack.contain_node(network.overlay, host.virtual_nodes[0])
        assert network.host_survives(host)


class TestSurvivalUnderSoap:
    def test_superonion_outlives_basic_onionbot(self):
        network = SuperOnionNetwork(hosts=6, virtual_per_host=3, peers_per_virtual=2, seed=6)
        attack = SoapAttack(rng=random.Random(2))
        result = network.withstand_soap(attack, rounds=6, targets_per_round=2)
        # The paper's claim: hosts keep re-bootstrapping virtual nodes, so the
        # physical botnet survives the SOAP campaign.
        assert result.host_survival_fraction >= 0.5
        assert result.virtual_nodes_replaced >= 1
        assert len(result.survival_timeline) == 6

    def test_survival_timeline_fractions_are_valid(self):
        network = SuperOnionNetwork(hosts=4, virtual_per_host=3, seed=7)
        attack = SoapAttack(rng=random.Random(3))
        result = network.withstand_soap(attack, rounds=3, targets_per_round=1)
        assert all(0.0 <= fraction <= 1.0 for _, fraction in result.survival_timeline)
        assert result.hosts_total == 4


#: One ``superonion-vs-soap`` campaign, its unit rows printed as JSON.
_CAMPAIGN = (
    "import json\n"
    "from repro.runner.executor import run_scenario\n"
    "result = run_scenario('superonion-vs-soap', trials=4, seed=0)\n"
    "print(json.dumps(result.unit_metrics, sort_keys=True))\n"
)


def test_superonion_vs_soap_rows_do_not_depend_on_the_hash_seed():
    """String-set iteration order follows ``PYTHONHASHSEED``; the targets
    the attacker picks, and so every row, must not."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    rows = []
    for hash_seed in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", _CAMPAIGN],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        rows.append(done.stdout)
    assert rows[0] == rows[1]


#: Figure 8's construction (n=5 hosts, m=3 virtual bots, i=2 peers), as in
#: ``benchmarks/bench_superonion.py``, over a fixed seed set.
FIG8 = dict(hosts=5, virtual_per_host=3, peers_per_virtual=2, rounds=8, targets_per_round=3)
FIG8_SEEDS = range(60)


#: Fig. 8's claim as a fraction of seeds: 54 of ``FIG8_SEEDS`` keep at least
#: one host when the attacker walks :func:`repro.adversary.soap.attack_order`
#: (the same shuffle drawn from another stream kept 53).
FIG8_SURVIVING = 0.9


def _fig8_survival(seeds=FIG8_SEEDS):
    from repro.analysis.experiments import run_superonion_vs_soap

    return [
        run_superonion_vs_soap(seed=seed, **FIG8)[0].host_survival_fraction
        for seed in seeds
    ]


@pytest.fixture(scope="module")
def fig8_natural():
    """Host survival per seed of ``FIG8_SEEDS`` with the shipped node ids."""
    return _fig8_survival()


def test_fig8_hosts_survive_on_most_seeds(fig8_natural):
    """The paper's Figure 8 claim, as a fraction of seeds.

    The bound is ``FIG8_SURVIVING`` less two binomial standard deviations
    over the 60 seeds (54 - 4.6, so 49 seeds), which leaves room for a
    change that only reorders rng draws.  The host-major walk that
    ``attack_order`` replaced kept hosts on 42 of these seeds (mean
    survival 0.38 against 0.67), well below it.
    """
    seeds = len(fig8_natural)
    allowance = 2 * math.sqrt(seeds * FIG8_SURVIVING * (1 - FIG8_SURVIVING))
    bound = math.floor(seeds * FIG8_SURVIVING - allowance)
    assert bound == 49
    assert sum(fraction > 0 for fraction in fig8_natural) >= bound


def test_fig8_survival_does_not_depend_on_node_names(monkeypatch, fig8_natural):
    """Renaming differential: ids that do not sort host-major.

    Every virtual bot gets a hash tag in front of its host field, so the
    string order of ids no longer groups a host's bots.  Mean host survival
    over the seed set must stay within two standard errors of the
    difference of the means; the host-major walk the shuffle replaced missed
    that bound by a factor of three (0.38 against 0.69).
    """
    import hashlib
    import statistics

    from repro.defenses import superonion

    def scrambled_id(host_index, serial):
        tag = hashlib.sha256(f"{host_index}/{serial}".encode()).hexdigest()[:8]
        return f"so-{tag}-{host_index:04d}-{serial:04d}"

    monkeypatch.setattr(superonion, "virtual_node_id", scrambled_id)
    network = SuperOnionNetwork(hosts=5, virtual_per_host=3, seed=0)
    ids = network.virtual_nodes()
    assert sorted(ids) != sorted(ids, key=lambda node: node.split("-")[2])
    renamed = _fig8_survival()
    spread = 2 * math.sqrt(
        (statistics.pvariance(fig8_natural) + statistics.pvariance(renamed)) / len(renamed)
    )
    assert abs(statistics.mean(fig8_natural) - statistics.mean(renamed)) <= spread


def test_attack_order_is_a_shuffle_of_the_sorted_targets():
    from repro.adversary.soap import attack_order

    known = {"so-0001-0000", "so-0000-0001", "so-0000-0000", "so-0002-0003"}
    order = attack_order(known, random.Random(5))
    assert sorted(order) == sorted(known)
    # The order depends on the stream alone, not on the set's own order.
    assert attack_order(set(reversed(sorted(known))), random.Random(5)) == order
    orders = {tuple(attack_order(known, random.Random(seed))) for seed in range(20)}
    assert len(orders) > 1
