"""The compiled DDSR deletion loop vs the Python loop.

``DDSROverlay.remove_nodes`` hands a list of victims to ``ddsr.c`` (on a
replay of ``overlay.rng``'s Mersenne Twister) when it can replay the Python
deletion loop exactly, and runs the Python loop otherwise.  Every test here
runs the same removals twice -- ``compiled`` (the shipped dispatch) and
``python`` (the library forced away) -- and asserts they are identical:
every node's adjacency in iteration order, ``overlay.stats``,
``mutation_stamp``, ``overlay.rng``'s state, ``forgotten`` in iteration
order and the returned counts.  The ``ddsr.engine`` gauge proves which
engine ran.

Those overlays are materialized right after construction (``_overlay``),
so the compiled loop runs on the adjacency sets.  A k-regular overlay
left packed keeps its graph as a CSR and removes through C's rows
(``ddsr.engine`` = ``packed``), whose peer order is C's: the ``packed``
tests compare it with the Python loop on neighbour *sets*, node order and
everything else above, and check the graph never materialized.
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.adversary.soap import SoapAttack
from repro.core import ddsr
from repro.core.ddsr import DDSRConfig, DDSROverlay, PruningPolicy, RepairPolicy
from repro.graphs import _wavekernel
from repro.graphs.adjacency import UndirectedGraph
from repro.graphs.backend import fast_available
from repro.obs import telemetry

HIGHEST = PruningPolicy.HIGHEST_DEGREE
LOWEST = PruningPolicy.LOWEST_DEGREE


@pytest.fixture
def compiled():
    """Skip unless the compiled loop can run here."""
    if not fast_available() or _wavekernel.load_ddsr() is None:
        pytest.skip("no numpy >= 2.0 or no working C compiler")


@contextlib.contextmanager
def _engine(name):
    with pytest.MonkeyPatch.context() as patch:
        if name == "python":
            patch.setattr(_wavekernel, "load_ddsr", lambda: None)
        yield


def _overlay(n, k, seed, policy=HIGHEST, d_max=None, relabel=None, packed=False, **config):
    """A k-regular overlay, its labels optionally mapped through ``relabel``.

    Materialized (on adjacency sets) unless ``packed``.
    """
    config = DDSRConfig(
        d_min=min(5, k), d_max=d_max or max(15, k), pruning_policy=policy, **config
    )
    overlay = DDSROverlay.k_regular(n, k, config=config, seed=seed)
    if packed:
        return overlay
    adjacency = overlay.graph._adjacency
    if relabel is not None:
        overlay.graph = UndirectedGraph.from_neighbor_rows(
            [relabel(node) for node in adjacency],
            [[relabel(peer) for peer in peers] for peers in adjacency.values()],
        )
    return overlay


def _batches(overlay, fraction, count, seed):
    """``count`` victim lists covering ``fraction`` of the overlay."""
    victims = random.Random(seed).sample(overlay.nodes(), int(fraction * len(overlay)))
    size = max(1, -(-len(victims) // count))
    return [victims[start:start + size] for start in range(0, len(victims), size)]


def _fingerprint(overlay, removed):
    return (
        removed,
        [(node, list(peers)) for node, peers in overlay.graph._adjacency.items()],
        overlay.stats.as_dict(),
        overlay.graph.mutation_stamp,
        overlay.rng.getstate(),
        list(overlay.forgotten),
    )


def _set_fingerprint(overlay, removed):
    """:func:`_fingerprint` with neighbour sets in place of iteration order."""
    return (
        removed,
        [(node, sorted(peers)) for node, peers in overlay.graph._adjacency.items()],
        *_fingerprint(overlay, removed)[2:],
    )


def _measured(overlay):
    """Leave a CSR mirror on the graph, as a checkpoint's measurement does."""
    if fast_available():
        from repro.graphs import fast

        fast.csr_of(overlay.graph)


def _run(engine, build, batches, **kwargs):
    """Remove ``batches`` on ``engine``, each after a measurement.

    Returns ``(fingerprint, ddsr.engine gauge)``.
    """
    overlay = build()
    removed = []
    with _engine(engine), telemetry.collecting() as collector:
        for batch in batches(overlay):
            _measured(overlay)
            removed.append(overlay.remove_nodes(batch, **kwargs))
    gauge = collector.snapshot()["gauges"].get("ddsr.engine")
    return _fingerprint(overlay, removed), gauge


def _assert_engines_agree(build, batches, **kwargs):
    """Compiled and Python runs are identical; returns the fingerprint."""
    python, gauge = _run("python", build, batches, **kwargs)
    assert gauge == "python"
    compiled, gauge = _run("compiled", build, batches, **kwargs)
    assert gauge == "compiled"
    assert compiled == python
    return python


@pytest.mark.parametrize("policy", [HIGHEST, LOWEST], ids=["highest", "lowest"])
@pytest.mark.parametrize("n,k,seed", [(60, 6, 0), (300, 8, 7), (500, 10, 42)])
def test_removals_identical(compiled, n, k, seed, policy):
    fingerprint = _assert_engines_agree(
        lambda: _overlay(n, k, seed, policy),
        lambda overlay: _batches(overlay, 0.3, 3, seed),
    )
    assert fingerprint[2]["repair_edges_added"] > 0
    assert fingerprint[2]["prune_operations"] > 0


PACKED_CASES = {
    "60-6-highest": (dict(n=60, k=6, seed=0), 0.3, 3),
    "300-8-lowest": (dict(n=300, k=8, seed=7, policy=LOWEST), 0.3, 3),
    "500-10-highest": (dict(n=500, k=10, seed=42), 0.5, 4),
    "tight-highest": (dict(n=400, k=6, seed=3, d_max=6), 0.4, 4),
    "tight-lowest": (dict(n=400, k=6, seed=3, policy=LOWEST, d_max=6), 0.4, 4),
    "no-forgetting": (dict(n=200, k=8, seed=4, forgetting_enabled=False), 0.3, 2),
}


@pytest.mark.parametrize("case", sorted(PACKED_CASES))
def test_packed_removals_match_python(compiled, case):
    """A packed overlay's removals leave what the Python loop leaves, as sets.

    The graph stays packed through every batch (no materialization, no CSR
    build), and only peer order may differ from the Python loop's.
    """
    params, fraction, count = PACKED_CASES[case]
    build = lambda: _overlay(**params, packed=True)  # noqa: E731
    batches = lambda overlay: _batches(overlay, fraction, count, params["seed"])  # noqa: E731
    python = _overlay(**params, packed=True)
    removed = []
    with _engine("python"):
        for batch in batches(python):
            removed.append(python.remove_nodes(batch))
    expected = _set_fingerprint(python, removed)
    overlay = build()
    removed = []
    with telemetry.collecting() as collector:
        for batch in batches(overlay):
            removed.append(overlay.remove_nodes(batch))
        assert overlay.graph._packed is not None
    snapshot = collector.snapshot()
    assert snapshot["gauges"]["ddsr.engine"] == "packed"
    assert "graph.materialize" not in snapshot["counters"]
    assert "csr.cache.build" not in snapshot["counters"]
    assert overlay.graph.nodes() == python.graph.nodes()
    assert overlay.max_degree() == python.max_degree()
    assert _set_fingerprint(overlay, removed) == expected
    assert expected[2]["repair_edges_added"] > 0


def test_packed_duplicate_absent_and_equal_victims(compiled):
    def batches(overlay):
        nodes = overlay.nodes()
        return [
            [nodes[3], nodes[3], "absent", 10**30, nodes[8], -1],
            (float(nodes[20]), True, nodes[3], nodes[40]),
            [],
            [nodes[50]] * 3,
        ]

    fingerprints = []
    for engine in ("python", "auto"):
        overlay = _overlay(120, 6, 2, d_max=6, packed=True)
        with _engine(engine):
            removed = [overlay.remove_nodes(batch) for batch in batches(overlay)]
        fingerprints.append(_set_fingerprint(overlay, removed))
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0][0] == [2, 3, 0, 1]


@pytest.mark.parametrize("policy", [HIGHEST, LOWEST], ids=["highest", "lowest"])
def test_tight_degree_bound_forces_ties(compiled, policy):
    """``d_max == k``: every repair overflows and most prunes draw a tie-break."""
    build = lambda: _overlay(400, 6, 3, policy, d_max=6)  # noqa: E731
    batches = lambda overlay: _batches(overlay, 0.4, 4, 3)  # noqa: E731
    fingerprint = _assert_engines_agree(build, batches)
    # The tie-breaks drew from the rng.
    assert fingerprint[4] != build().rng.getstate()


RELABELS = {
    # 9 sorts after 10 and 100, negatives before non-negatives.
    "ints-repr-order": lambda node: node * 7 - 1000,
    "ints-beyond-int64": lambda node: node + 2**70 if node % 3 else -node,
    "strings": lambda node: f"bot-{node}",
    "onions": lambda node: f"{random.Random(node).getrandbits(80):020x}.onion",
}


@pytest.mark.parametrize("policy", [HIGHEST, LOWEST], ids=["highest", "lowest"])
@pytest.mark.parametrize("labels", sorted(RELABELS))
def test_labels_ordered_by_repr(compiled, labels, policy):
    _assert_engines_agree(
        lambda: _overlay(300, 8, 11, policy, d_max=9, relabel=RELABELS[labels]),
        lambda overlay: _batches(overlay, 0.3, 3, 11),
    )


def test_mixed_int_and_clone_labels(compiled):
    """What a SOAP campaign leaves behind: int bots plus ``soap-clone-*`` peers."""

    def build():
        overlay = _overlay(200, 8, 5, d_max=9)
        SoapAttack(rng=random.Random(6)).run_campaign(overlay, [0], max_targets=20)
        return overlay

    def batches(overlay):
        nodes = overlay.nodes()
        assert any(isinstance(node, str) for node in nodes)
        return _batches(overlay, 0.3, 3, 5)

    _assert_engines_agree(build, batches)


def test_duplicate_absent_and_equal_victims(compiled):
    def batches(overlay):
        nodes = overlay.nodes()
        return [
            [nodes[3], nodes[3], "absent", 10**30, nodes[8], -1],
            (float(nodes[20]), True, nodes[3], nodes[40]),
            [],
            [nodes[50]] * 3,
        ]

    fingerprint = _assert_engines_agree(lambda: _overlay(120, 6, 2, d_max=6), batches)
    assert fingerprint[0] == [2, 3, 0, 1]
    assert 20.0 in fingerprint[5] and True in fingerprint[5]


def test_forgetting_disabled(compiled):
    fingerprint = _assert_engines_agree(
        lambda: _overlay(200, 8, 4, forgetting_enabled=False),
        lambda overlay: _batches(overlay, 0.3, 2, 4),
    )
    assert fingerprint[5] == [] and fingerprint[2]["addresses_forgotten"] == 0


def test_irregular_graph_with_hubs(compiled):
    """Nodes above ``d_max`` from the start, isolated nodes and a lone edge."""

    def build():
        rng = random.Random(9)
        graph = UndirectedGraph(nodes=range(150))
        for hub in (0, 1, 2):
            for peer in rng.sample(range(3, 150), 40):
                graph.add_edge(hub, peer)
        for _ in range(200):
            u, v = rng.sample(range(3, 140), 2)
            graph.add_edge(u, v)
        graph.add_edge(145, 146)
        return DDSROverlay(graph, config=DDSRConfig(d_min=2, d_max=7), rng=random.Random(3))

    _assert_engines_agree(build, lambda overlay: [[0, 145, 149, 5], _batches(overlay, 0.4, 1, 9)[0]])


def test_many_kernel_calls_per_batch(compiled, monkeypatch):
    """A batch whose ops outgrow one call's buffer is decided in several calls."""
    calls = []
    kernel = _wavekernel.load_ddsr()

    def counted(*arguments):
        calls.append(1)
        return kernel(*arguments)

    monkeypatch.setattr(ddsr, "_KERNEL_OPS", 1)
    build = lambda: _overlay(2000, 8, 1)  # noqa: E731
    batches = lambda overlay: _batches(overlay, 0.2, 1, 1)  # noqa: E731
    python, _ = _run("python", build, batches)
    monkeypatch.setattr(_wavekernel, "load_ddsr", lambda: counted)
    chunked, gauge = _run("auto", build, batches)
    assert gauge == "compiled"
    assert chunked == python
    assert len(calls) > 10


def test_remove_fraction(compiled):
    def batches(overlay):
        _measured(overlay)
        overlay.remove_fraction(0.1)
        return _batches(overlay, 0.2, 4, 8)

    _assert_engines_agree(lambda: _overlay(300, 8, 8), batches)


def test_no_measurement_runs_python(compiled):
    """Without a CSR mirror of the current graph the Python loop runs."""
    overlay = _overlay(300, 8, 8)
    with telemetry.collecting() as collector:
        overlay.remove_nodes(overlay.nodes()[:10])
    assert collector.snapshot()["gauges"]["ddsr.engine"] == "python"
    _measured(overlay)
    overlay.graph.add_edge(overlay.nodes()[0], "newcomer")
    with telemetry.collecting() as collector:
        overlay.remove_nodes(overlay.nodes()[:10])
    assert collector.snapshot()["gauges"]["ddsr.engine"] == "python"


# ----------------------------------------------------------------------
# Every removal the compiled loop cannot replay runs in Python
# ----------------------------------------------------------------------


class _Random(random.Random):
    """A ``random.Random`` subclass: it may override its draws."""


def _with_rng_subclass():
    overlay = _overlay(120, 6, 8, d_max=6)
    state = overlay.rng.getstate()
    overlay.rng = _Random()
    overlay.rng.setstate(state)
    return overlay


FALLBACKS = {
    "no-library": (lambda: _overlay(120, 6, 8, d_max=6), {}),
    "no-repair": (lambda: _overlay(120, 6, 8, d_max=6), {"repair": False}),
    "ring-repair": (lambda: _overlay(120, 6, 8, repair_policy=RepairPolicy.RING), {}),
    "single-edge-repair": (
        lambda: _overlay(120, 6, 8, repair_policy=RepairPolicy.SINGLE_EDGE),
        {},
    ),
    "no-repair-policy": (lambda: _overlay(120, 6, 8, repair_policy=RepairPolicy.NONE), {}),
    "random-pruning": (lambda: _overlay(120, 6, 8, PruningPolicy.RANDOM, d_max=6), {}),
    "no-pruning": (lambda: _overlay(120, 6, 8, PruningPolicy.NONE, d_max=6), {}),
    "rng-subclass": (_with_rng_subclass, {}),
    "tuple-labels": (lambda: _overlay(120, 6, 8, d_max=6, relabel=lambda node: (node,)), {}),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_runs_python(case, monkeypatch):
    build, kwargs = FALLBACKS[case]
    if case == "no-library":
        monkeypatch.setattr(_wavekernel, "load_ddsr", lambda: None)
    batches = lambda overlay: _batches(overlay, 0.3, 2, 8)  # noqa: E731
    python, _ = _run("python", build, batches, **kwargs)
    fingerprint, gauge = _run("auto", build, batches, **kwargs)
    assert gauge == "python"
    assert fingerprint == python


def test_fallback_for_a_victim_iterator(compiled):
    """Only a list or tuple is handed to C; an iterator runs lazily in Python."""
    overlay = _overlay(120, 6, 8, d_max=6)
    _measured(overlay)
    with telemetry.collecting() as collector:
        assert overlay.remove_nodes(iter(overlay.nodes()[:10])) == 10
    assert collector.snapshot()["gauges"]["ddsr.engine"] == "python"


#: Ints whose reprs sort unlike their values; the second set also holds
#: labels too wide for the repr codes, which then get repr ranks.
INT_LABELS = {
    "codes": [0, 1, 9, 10, 11, 19, 100, 99, 101, -1, -9, -10, -100, 10**17 - 1,
              -(10**17 - 1), 10**16, 12, 120, 1200, 121, -12, -120, 7, -7],
    "ranks": [0, 1, 9, 10, 11, 19, 100, 99, 101, -1, -9, -10, -100, 2**63 - 1,
              -(2**63), 10**18, 10**18 - 1, 10**17, 12, 120, 1200, 121, -12, -120],
}


@pytest.mark.parametrize("labels", sorted(INT_LABELS))
def test_repr_keys_sort_like_reprs(labels):
    pytest.importorskip("numpy")
    rng = random.Random(5)
    values = INT_LABELS[labels] + [rng.randrange(-(10**17) + 1, 10**17) for _ in range(2000)]
    values += [rng.randrange(-2000, 2000) for _ in range(2000)]
    if labels == "ranks":
        values += ["bot-3", "bot-10"]
    values = list(dict.fromkeys(values))
    keys = ddsr._repr_keys(values).tolist()
    assert len(set(keys)) == len(values)
    assert [value for _, value in sorted(zip(keys, values))] == sorted(values, key=repr)


@pytest.mark.parametrize("policy", [HIGHEST, LOWEST], ids=["highest", "lowest"])
@pytest.mark.parametrize("labels", sorted(INT_LABELS))
def test_int_repr_order_in_c(compiled, labels, policy):
    """C's tie-breaks see plain ints in repr order, as ``sorted(key=repr)``.

    Removing the hub leaves its leaves one clique of equal degrees, one
    above ``d_max``: each leaf then prunes one peer out of a tie, picked by
    index from the repr-sorted tie, so any order C got wrong shows up as a
    different pruned edge.
    """
    values = INT_LABELS[labels]
    hub = 10**6
    config = DDSRConfig(d_min=0, d_max=len(values) - 2, pruning_policy=policy)
    fingerprint = _assert_engines_agree(
        lambda: DDSROverlay.from_edges([(hub, value) for value in values], config=config),
        lambda overlay: [[hub]],
    )
    assert fingerprint[2]["repair_edges_added"] == len(values) * (len(values) - 1) // 2
    assert fingerprint[2]["prune_operations"] > len(values) // 3


# ----------------------------------------------------------------------
# Memory: no set keeps the table repair grew it to
# ----------------------------------------------------------------------


def _loose_sets(overlay, nodes):
    """``(bytes, bytes rebuilt)`` summed over the sets of ``nodes`` still present."""
    import sys

    adjacency = overlay.graph._adjacency
    sets = [adjacency[node] for node in set(nodes) if node in adjacency]
    return sum(map(sys.getsizeof, sets)), sum(sys.getsizeof(set(s)) for s in sets)


def _campaign_sets(engine, touched=None, compacting=True):
    """A 2k/5 campaign in 6 batches, one ``_loose_sets`` reading per batch.

    Each reading covers the survivors that lost a peer to a removal in
    that batch: the lists ``remove_node`` returned (the Python loop calls
    it), or ``touched[i]`` for batch ``i`` when given.  Returns the overlay,
    the node lists and the readings.
    """
    overlay = _overlay(2000, 5, 0)
    lost = []
    remove_node = overlay.remove_node

    def spying(node, **kwargs):
        neighbors = remove_node(node, **kwargs)
        lost[-1].extend(neighbors)
        return neighbors

    overlay.remove_node = spying
    readings = []
    with _engine(engine), pytest.MonkeyPatch.context() as patch:
        if not compacting:
            patch.setattr(UndirectedGraph, "compact", lambda self, nodes: None)
        for index, batch in enumerate(_batches(overlay, 0.1, 6, 0)):
            _measured(overlay)
            lost.append([])
            overlay.remove_nodes(batch)
            if touched is not None:
                lost[-1] = touched[index]
            readings.append(_loose_sets(overlay, lost[-1]))
    return overlay, lost, readings


def test_repair_leaves_no_inflated_sets(compiled):
    """Memory regression test with no RSS in it.

    Clique repair grows a survivor's set past 20 peers, and pruning never
    shrinks the table back.  After every batch, on both engines, the sets of
    the survivors that lost a peer to a removal must take exactly the bytes
    of the same sets rebuilt.  Only those sets: at k=5 the generator's
    5-peer sets, filled one insert at a time, already hold twice the slots
    ``set(s)`` sizes, and repair never touched them.
    """
    python, touched, readings = _campaign_sets("python")
    assert len(readings) == 6 and all(touched)
    assert all(held == rebuilt for held, rebuilt in readings)
    compiled, _, readings = _campaign_sets("compiled", touched)
    assert _fingerprint(compiled, []) == _fingerprint(python, [])
    assert all(held == rebuilt for held, rebuilt in readings)
    # Without the compaction the later batches leave inflated sets.
    _, _, readings = _campaign_sets("python", compacting=False)
    held, rebuilt = map(sum, zip(*readings))
    assert held > rebuilt


#: Removes 150 victims from a 400/6 overlay whose adjacency lost one side of
#: 200 edges, with a CSR mirror of that adjacency cached, on the shipped
#: dispatch or with the library forced away (``python``); prints the
#: exception's name, or ``ok``.
_ASYMMETRIC = """
import random, sys
from repro.core.ddsr import DDSRConfig, DDSROverlay
from repro.graphs import _wavekernel, fast
if sys.argv[1] == "python":
    _wavekernel.load_ddsr = lambda: None
overlay = DDSROverlay.k_regular(400, 6, config=DDSRConfig(d_min=5, d_max=15), seed=0)
adjacency = overlay.graph._adjacency
rng = random.Random(1)
edges = sorted((u, v) for u in adjacency for v in adjacency[u] if u < v)
for u, v in rng.sample(edges, 200):
    adjacency[u].discard(v)
fast.csr_of(overlay.graph)
try:
    overlay.remove_nodes(rng.sample(sorted(adjacency), 150))
except Exception as exc:
    print(type(exc).__name__)
else:
    print("ok")
"""


def test_asymmetric_adjacency_fails_like_python(compiled):
    """A CSR snapshot where a peer's row lacks the node that lists it makes
    ``ddsr.c`` give up (-1), so the Python loop runs and raises, as it does
    without the library; the compiled loop must never take the process down
    with a signal."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    outcomes = []
    for engine in ("python", "shipped"):
        done = subprocess.run(
            [sys.executable, "-c", _ASYMMETRIC, engine],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, (engine, done.returncode, done.stderr)
        outcomes.append(done.stdout.strip())
    assert outcomes == ["KeyError", "KeyError"]
