"""Adjacency iteration order is not a result.

Every DDSR-family scenario row must be byte-identical whatever order the
adjacency sets iterate in after a deletion batch.  That is what lets
:meth:`DDSROverlay.remove_nodes` compact the sets repair inflated
(:meth:`UndirectedGraph.compact`), which moves their order, and what lets
a packed overlay (``UndirectedGraph.packed``) take C's row order for its
peers.  Each case runs a scenario four ways, on both removal engines:

* ``uncompacted`` -- the compaction turned off (the sets keep their
  repair-time tables and order);
* ``natural`` -- the shipped code (a k-regular overlay stays packed through
  its removals when the compiled engines run);
* ``materialized`` -- every overlay's graph touched right after
  construction, so it lives on adjacency sets throughout;
* ``scrambled`` -- after every ``remove_nodes`` batch, every adjacency set
  is rebuilt in a new iteration order (shuffled insertion into a table of a
  random size), and the scramble counts how many sets' order it changed.

The rows of all four must be equal, and the scramble must have changed the
order of most sets, so the differential cannot pass vacuously.

SOAP is the exception on record: its rows do depend on the adjacency order
the overlay has when it is generated (the campaign hands peers to the
compiled containment loop and learns addresses in set order).  The last
test pins that dependence until SOAP walks peers in a canonical order.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.ddsr import DDSROverlay
from repro.graphs import _wavekernel
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.backend import fast_available
from repro.obs import telemetry
from repro.runner.registry import get_scenario
from tests.core.test_ddsr_compiled import _engine

#: Small-size DDSR-family cases: (scenario, params, seed).
DDSR_CASES = [
    (
        "fig4-centrality",
        {"n": 120, "degree": 6, "pruning": True, "max_fraction": 0.3, "checkpoints": 3},
        2024,
    ),
    (
        "fig5-resilience",
        {"n": 120, "k": 10, "max_fraction": 0.9, "checkpoints": 6},
        77,
    ),
    ("resilience-at-scale", {"n": 300, "k": 8, "max_fraction": 0.3, "checkpoints": 4}, 5),
    ("ablation-repair-policy", {"policy": "clique", "n": 150, "k": 8, "fraction": 0.5}, 1),
    ("ablation-repair-policy", {"policy": "ring", "n": 150, "k": 8, "fraction": 0.5}, 1),
    ("ablation-repair-policy", {"policy": "single-edge", "n": 150, "k": 8, "fraction": 0.5}, 1),
    ("ablation-repair-policy", {"policy": "none", "n": 150, "k": 8, "fraction": 0.5}, 1),
    ("ablation-pruning-policy", {"policy": "lowest-degree", "n": 150, "k": 8, "fraction": 0.5}, 2),
    ("ablation-pruning-policy", {"policy": "random", "n": 150, "k": 8, "fraction": 0.5}, 2),
    ("pow-tradeoff", {"n": 60, "k": 6}, 3),
    ("soap-admission-grid", {"n": 300, "k": 8}, 4),
]

IDS = [f"{name}-{params.get('policy', 'default')}" for name, params, _ in DDSR_CASES]


class _Pad:
    """A placeholder with a chosen hash, equal to nothing but itself."""

    __slots__ = ("_hash",)

    def __init__(self, value: int) -> None:
        self._hash = value

    def __hash__(self) -> int:
        return self._hash


class Scrambler:
    """Rebuilds every adjacency set of a graph in a new iteration order."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sets = 0
        self.changed = 0

    def __call__(self, graph: UndirectedGraph) -> None:
        rng = self.rng
        adjacency = graph._adjacency
        for node, peers in adjacency.items():
            order = list(peers)
            rng.shuffle(order)
            # Pads inserted first and then discarded leave a larger table
            # (and displaced probe slots) behind, so the peers land at other
            # positions than in a table sized for them.
            pads = [_Pad(rng.getrandbits(61)) for _ in range(rng.choice((0, 8, 40, 200)))]
            fresh = set(pads)
            fresh.update(order)
            fresh.difference_update(pads)
            assert fresh == peers
            adjacency[node] = fresh
            if len(order) > 1:
                self.sets += 1
                self.changed += list(fresh) != list(peers)


def _row(name, params, seed, *, engine, mode):
    """The scenario's row as JSON, and the scrambler (or ``None``)."""
    scrambler = None
    with _engine(engine), pytest.MonkeyPatch.context() as patch:
        if mode == "uncompacted":
            patch.setattr(UndirectedGraph, "compact", lambda self, nodes: None)
        elif mode == "scrambled":
            scrambler = Scrambler(seed)
            remove_nodes = DDSROverlay.remove_nodes

            def scrambling(self, nodes, *, repair=True):
                removed = remove_nodes(self, nodes, repair=repair)
                scrambler(self.graph)
                return removed

            patch.setattr(DDSROverlay, "remove_nodes", scrambling)
        elif mode == "materialized":
            init = DDSROverlay.__init__

            def materializing(self, *args, **kwargs):
                init(self, *args, **kwargs)
                self.graph._adjacency

            patch.setattr(DDSROverlay, "__init__", materializing)
        with telemetry.collecting() as collector:
            row = get_scenario(name).call(seed=seed, **params)
    gauge = collector.snapshot()["gauges"].get("ddsr.engine")
    return json.dumps(row, sort_keys=True), scrambler, gauge


@pytest.mark.parametrize("engine", ["compiled", "python"])
@pytest.mark.parametrize("name,params,seed", DDSR_CASES, ids=IDS)
def test_ddsr_rows_do_not_depend_on_adjacency_order(name, params, seed, engine):
    if engine == "compiled" and (not fast_available() or _wavekernel.load_ddsr() is None):
        pytest.skip("no numpy >= 2.0 or no working C compiler")
    uncompacted, _, _ = _row(name, params, seed, engine=engine, mode="uncompacted")
    natural, _, gauge = _row(name, params, seed, engine=engine, mode="natural")
    materialized, _, set_gauge = _row(name, params, seed, engine=engine, mode="materialized")
    scrambled, scrambler, _ = _row(name, params, seed, engine=engine, mode="scrambled")
    assert natural == uncompacted
    assert materialized == natural
    assert scrambled == natural
    assert scrambler.sets > 0
    assert scrambler.changed > scrambler.sets / 2, (scrambler.changed, scrambler.sets)
    if name == "resilience-at-scale":
        # Packed, the overlay removes through C's rows; on sets, its
        # checkpoints leave a CSR mirror, so the compiled loop runs.
        assert gauge == ("packed" if engine == "compiled" else "python")
        assert set_gauge == engine


@pytest.mark.parametrize(
    "name,params",
    [
        ("soap-campaign", {"n": 150, "k": 10}),
        ("soap-at-scale", {"n": 400, "k": 10}),
    ],
)
def test_soap_rows_move_with_generation_order(name, params, monkeypatch):
    """On record: SOAP rows follow the adjacency order at generation.

    When SOAP walks peers in a canonical order this becomes an equality.
    """
    natural = get_scenario(name).call(seed=0, **params)
    scrambler = Scrambler(0)
    k_regular = DDSROverlay.k_regular.__func__

    def scrambled_k_regular(cls, *args, **kwargs):
        overlay = k_regular(cls, *args, **kwargs)
        scrambler(overlay.graph)
        return overlay

    monkeypatch.setattr(DDSROverlay, "k_regular", classmethod(scrambled_k_regular))
    scrambled = get_scenario(name).call(seed=0, **params)
    assert scrambler.changed > scrambler.sets / 2
    assert scrambled != natural
