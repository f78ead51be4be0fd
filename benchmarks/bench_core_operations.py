"""Micro-benchmarks of the core operations the experiments are built from.

These quantify the simulator's own performance (not a paper figure): the cost
of a single DDSR repair, an address rotation, envelope sealing/opening, a
hidden-service connection through the Tor model, and a command flood through a
small live botnet.  They use pytest-benchmark's normal calibrated timing (many
rounds), unlike the experiment-level benches which run once.
"""

from __future__ import annotations

import itertools
import random

from repro.core.botnet import OnionBotnet
from repro.core.ddsr import DDSROverlay
from repro.core.messaging import build_envelope, open_envelope
from repro.crypto.keys import KeyPair
from repro.graphs.metrics import average_closeness_centrality
from repro.sim.engine import Simulator
from repro.tor.network import TorNetwork, TorNetworkConfig


def test_bench_ddsr_single_repair(benchmark):
    """Cost of removing one node and running repair + pruning."""
    overlay = DDSROverlay.k_regular(2000, 10, seed=110)
    pool = overlay.nodes()
    random.Random(0).shuffle(pool)
    victim_iter = iter(pool)

    def remove_one():
        victim = next(victim_iter)
        if victim in overlay.graph:
            overlay.remove_node(victim)

    benchmark.pedantic(remove_one, rounds=200, iterations=1)


def test_bench_closeness_centrality(benchmark):
    """Exact closeness centrality on a 2000-node overlay (the Fig. 4 metric)."""
    overlay = DDSROverlay.k_regular(2000, 10, seed=111)
    benchmark(lambda: average_closeness_centrality(overlay.graph))


def test_bench_envelope_roundtrip(benchmark):
    """Seal + whiten + open one fixed-size C&C envelope."""
    key = b"benchmark-key-material-32-bytes!"
    payload = b'{"command": "report-status", "sequence": "12345"}' * 4
    randomness = b"benchmark-randomness-0123456789abcdef"

    def roundtrip():
        envelope = build_envelope(payload, key, randomness)
        return open_envelope(envelope, key)

    assert benchmark(roundtrip) == payload


def test_bench_hidden_service_connection(benchmark):
    """One rendezvous connection + payload exchange through the Tor model."""
    simulator = Simulator(seed=112)
    network = TorNetwork(simulator, TorNetworkConfig(num_relays=40))
    network.bootstrap()
    host = network.host_service(KeyPair.from_seed(b"bench-service"), lambda p, c: b"ack")
    address = host.onion_address

    benchmark(lambda: network.send_to("bench-client", address, b"ping" * 64))


def test_bench_broadcast_through_live_botnet(benchmark):
    """Flooding one signed command through a 30-bot botnet over the Tor model."""
    net = OnionBotnet(seed=113)
    net.build(30)
    counter = itertools.count()

    def flood():
        return net.broadcast_command(f"report-status-{next(counter)}")

    report = benchmark.pedantic(flood, rounds=5, iterations=1)
    assert report.coverage == 1.0


def test_bench_address_rotation_derivation(benchmark):
    """Deriving one period's keypair + onion address (done by every bot daily)."""
    from repro.core.addressing import current_onion_address

    botmaster = KeyPair.from_seed(b"bench-botmaster")
    bot_key = b"bench-bot-key"
    times = itertools.count(start=0, step=86400)

    benchmark(lambda: current_onion_address(botmaster.public, bot_key, float(next(times))))
