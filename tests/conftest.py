"""Shared pytest configuration and fixtures.

The ``src`` directory is added to ``sys.path`` so the suite also runs in
environments where the editable install could not be performed (e.g. fully
offline machines without the ``wheel`` package).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.botnet import OnionBotnet  # noqa: E402
from repro.core.ddsr import DDSROverlay  # noqa: E402
from repro.runner import faults  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.tor.network import TorNetwork, TorNetworkConfig  # noqa: E402


@pytest.fixture(autouse=True)
def _no_armed_fault_plane():
    """No test may leave a fault spec armed for the tests that follow.

    An armed plane is process state: every later campaign in the session,
    and every pool task it ships, would fire it.
    """
    yield
    leaked = faults.active()
    assert leaked is None, f"test left the fault plane armed: {leaked.spec}"


@pytest.fixture
def simulator() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def tor_network(simulator: Simulator) -> TorNetwork:
    """A bootstrapped in-memory Tor network with a modest relay population."""
    network = TorNetwork(simulator, TorNetworkConfig(num_relays=30))
    network.bootstrap()
    return network


@pytest.fixture
def small_overlay() -> DDSROverlay:
    """A 60-node, 6-regular DDSR overlay."""
    return DDSROverlay.k_regular(60, 6, seed=42)


@pytest.fixture
def small_botnet() -> OnionBotnet:
    """A fully built 16-bot OnionBotnet simulation."""
    net = OnionBotnet(seed=99)
    net.build(16)
    return net
