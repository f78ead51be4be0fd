"""Tests for the SuperOnionBot construction."""

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
