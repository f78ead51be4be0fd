"""The compiled SOAP containment loop vs the Python loop and the oracle.

``SoapAttack.run_campaign`` runs each target's clone/prune loop in ``soap.c``
(on a replay of ``overlay.rng``'s Mersenne Twister) when it can replay the
Python loop exactly, and on the Python ``contain_node`` otherwise.  Every
test here runs the same campaign on three engines -- ``compiled``,
``python`` (the library forced away) and ``reference``
(:class:`~repro.adversary.soap.ReferenceSoapAttack`) -- and asserts they
are identical: the result object, ``overlay.rng``'s state,
``overlay.stats``, ``mutation_stamp``, every node's adjacency in iteration
order and the attack's clone counter.  The ``soap.engine`` gauge proves
which engine ran.
"""

from __future__ import annotations

import contextlib
import itertools
import random

import pytest

from repro.adversary import soap
from repro.adversary.soap import AdmissionDecision, ReferenceSoapAttack, SoapAttack
from repro.core.ddsr import DDSRConfig, DDSROverlay, PruningPolicy
from repro.graphs import _wavekernel
from repro.obs import telemetry

HIGHEST = PruningPolicy.HIGHEST_DEGREE
LOWEST = PruningPolicy.LOWEST_DEGREE


@pytest.fixture
def compiled():
    """Skip unless the compiled loop loads here."""
    if _wavekernel.load_soap() is None:
        pytest.skip("no working C compiler")


@contextlib.contextmanager
def _engine(name):
    with pytest.MonkeyPatch.context() as patch:
        if name == "python":
            patch.setattr(_wavekernel, "load_soap", lambda: None)
        yield


def _overlay(n, k, seed, policy=HIGHEST, d_max=None):
    config = DDSRConfig(d_min=min(5, k), d_max=d_max or max(15, k), pruning_policy=policy)
    return DDSROverlay.k_regular(n, k, config=config, seed=seed)


def _fingerprint(overlay, attack, result):
    return (
        result,
        overlay.rng.getstate(),
        overlay.stats.as_dict(),
        overlay.graph.mutation_stamp,
        [(node, list(peers)) for node, peers in overlay.graph._adjacency.items()],
        next(attack._clone_counter),
    )


def _run(engine, overlay, *, seed=0, counter=None, attack_kwargs=None, campaign_kwargs=None):
    """One campaign on ``engine``: ``(fingerprint, soap.engine gauge)``."""
    cls = ReferenceSoapAttack if engine == "reference" else SoapAttack
    attack = cls(rng=random.Random(seed + 17), **(attack_kwargs or {}))
    if counter is not None:
        attack._clone_counter = itertools.count(counter)
    compromised = random.Random(seed + 13).sample(sorted(overlay.nodes(), key=repr), 2)
    with _engine(engine), telemetry.collecting() as collector:
        result = attack.run_campaign(overlay, compromised, **(campaign_kwargs or {}))
    gauge = collector.snapshot()["gauges"].get("soap.engine")
    return _fingerprint(overlay, attack, result), gauge


def _assert_engines_agree(build, **kwargs):
    """Compiled, Python and reference runs are identical."""
    reference, _ = _run("reference", build(), **kwargs)
    python, gauge = _run("python", build(), **kwargs)
    assert gauge == "python"
    assert python == reference
    compiled, gauge = _run("compiled", build(), **kwargs)
    assert gauge == "compiled"
    assert compiled == reference
    return reference


@pytest.mark.parametrize("policy", [HIGHEST, LOWEST], ids=["highest", "lowest"])
@pytest.mark.parametrize("n,k,seed", [(60, 6, 0), (120, 10, 7), (200, 8, 42)])
def test_campaign_engines_identical(compiled, n, k, seed, policy):
    kwargs = {"attack_kwargs": {"max_clones_per_node": 25}} if policy is LOWEST else {}
    _assert_engines_agree(lambda: _overlay(n, k, seed, policy), seed=seed, **kwargs)


@pytest.mark.parametrize("policy", [HIGHEST, LOWEST], ids=["highest", "lowest"])
def test_campaign_engines_identical_with_max_targets_and_tight_bound(compiled, policy):
    _assert_engines_agree(
        lambda: _overlay(90, 8, 5, policy, d_max=9),
        seed=5,
        attack_kwargs={"max_clones_per_node": 12},
        campaign_kwargs={"max_targets": 11},
    )


@pytest.mark.parametrize("policy", [HIGHEST, LOWEST], ids=["highest", "lowest"])
def test_clone_tie_break_across_a_million(compiled, policy):
    """Past 999999 the clone reprs stop sorting by number; C must follow repr."""
    fingerprint = _assert_engines_agree(
        lambda: _overlay(40, 6, 3, policy),
        seed=3,
        counter=999_990,
        attack_kwargs={"max_clones_per_node": 30},
    )
    nodes = [node for node, _ in fingerprint[4]]
    assert "soap-clone-999999" in nodes and "soap-clone-1000000" in nodes


def test_campaign_engines_identical_across_kernel_calls(compiled, monkeypatch):
    """A target whose clones span several kernel calls resumes exactly."""
    monkeypatch.setattr(soap, "_KERNEL_CLONES", 3)
    for policy in (HIGHEST, LOWEST):
        _assert_engines_agree(
            lambda: _overlay(60, 6, 11, policy),
            seed=11,
            attack_kwargs={"max_clones_per_node": 20},
        )


def test_zero_clone_budget(compiled):
    _assert_engines_agree(
        lambda: _overlay(30, 4, 2), seed=2, attack_kwargs={"max_clones_per_node": 0}
    )


@pytest.mark.parametrize("seed", range(6))
def test_second_attack_on_the_same_overlay_matches_reference(seed):
    """A second attack re-mints names the first one left in the graph.

    The re-minted clone is an existing node, not a fresh degree-1 leaf, so
    the inline pruner must take the general step (the compiled loop never
    starts on an overlay that already holds clones).
    """

    def second(engine):
        overlay = DDSROverlay.k_regular(200, 6, seed=seed)
        cls = ReferenceSoapAttack if engine == "reference" else SoapAttack
        nodes = overlay.nodes()
        cls(rng=random.Random(1)).run_campaign(overlay, [nodes[0]], max_targets=40)
        with telemetry.collecting() as collector:
            attack = cls(rng=random.Random(2))
            result = attack.run_campaign(overlay, [nodes[1]])
        gauge = collector.snapshot()["gauges"].get("soap.engine")
        return _fingerprint(overlay, attack, result), gauge

    reference, _ = second("reference")
    fingerprint, gauge = second("auto")
    assert fingerprint == reference
    assert gauge == "python"


def test_interrupted_campaign_hands_back_rng_and_counter(compiled, monkeypatch):
    """``^C`` between targets leaves the rng and counter where they stood."""
    (stopped, _) = _run("compiled", _overlay(80, 8, 4), seed=4, campaign_kwargs={"max_targets": 6})
    real = soap._CompiledContainment.contain
    calls = []

    def interrupting(self, target):
        if len(calls) == 6:
            raise KeyboardInterrupt
        calls.append(target)
        return real(self, target)

    monkeypatch.setattr(soap._CompiledContainment, "contain", interrupting)
    overlay = _overlay(80, 8, 4)
    attack = SoapAttack(rng=random.Random(4 + 17))
    compromised = random.Random(4 + 13).sample(sorted(overlay.nodes(), key=repr), 2)
    with pytest.raises(KeyboardInterrupt):
        attack.run_campaign(overlay, compromised)
    assert len(calls) == 6
    assert _fingerprint(overlay, attack, None)[1:] == stopped[1:]


# ----------------------------------------------------------------------
# Every campaign the compiled loop cannot replay runs in Python
# ----------------------------------------------------------------------


class _Random(random.Random):
    """A ``random.Random`` subclass: it may override its draws."""


class _Impostor:
    """A benign node whose repr sorts among the clones' reprs."""

    def __repr__(self):
        return "'soap-clone-5'"


#: One instance, so that every run's overlay holds the same node.
_IMPOSTOR = _Impostor()


class _OwnContainNode(SoapAttack):
    def contain_node(self, overlay, target):
        return super().contain_node(overlay, target)


def _accept(target, requester, overlay):
    return AdmissionDecision(accepted=True)


def _with_rng_subclass():
    overlay = _overlay(60, 6, 8)
    state = overlay.rng.getstate()
    overlay.rng = _Random()
    overlay.rng.setstate(state)
    return overlay


def _with_clone(name):
    def build():
        overlay = _overlay(60, 6, 8)
        overlay.graph.add_edge(name, overlay.nodes()[5])
        return overlay

    return build


FALLBACKS = {
    "no-library": (lambda: _overlay(60, 6, 8), {}),
    "rng-subclass": (_with_rng_subclass, {}),
    "admission": (lambda: _overlay(60, 6, 8), {"admission": _accept}),
    "work-budget": (lambda: _overlay(60, 6, 8), {"work_budget": 1e9}),
    "time-budget": (lambda: _overlay(60, 6, 8), {"time_budget": 1e9}),
    "random-pruning": (lambda: _overlay(60, 6, 8, PruningPolicy.RANDOM), {}),
    "no-pruning": (lambda: _overlay(60, 6, 8, PruningPolicy.NONE), {}),
    "clone-in-overlay": (_with_clone("soap-clone-000003"), {}),
    "clone-repr-in-overlay": (_with_clone(_IMPOSTOR), {}),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_runs_python_and_matches_reference(compiled, case, monkeypatch):
    build, attack_kwargs = FALLBACKS[case]
    if case == "no-library":
        monkeypatch.setattr(_wavekernel, "load_soap", lambda: None)
    reference, _ = _run("reference", build(), seed=8, attack_kwargs=attack_kwargs)
    fingerprint, gauge = _run("auto", build(), seed=8, attack_kwargs=attack_kwargs)
    assert gauge == "python"
    assert fingerprint == reference


def test_fallback_for_an_overridden_contain_node(compiled):
    overlay = _overlay(60, 6, 8)
    with telemetry.collecting() as collector:
        _OwnContainNode(rng=random.Random(1)).run_campaign(overlay, [overlay.nodes()[0]])
    assert collector.snapshot()["gauges"]["soap.engine"] == "python"


def test_fallback_for_a_stepped_clone_counter(compiled):
    def run(engine):
        overlay = _overlay(60, 6, 8)
        attack = SoapAttack(rng=random.Random(1))
        attack._clone_counter = itertools.count(5, 2)
        with _engine(engine), telemetry.collecting() as collector:
            result = attack.run_campaign(overlay, [overlay.nodes()[0]])
        return _fingerprint(overlay, attack, result), collector.snapshot()["gauges"]

    fingerprint, gauges = run("auto")
    assert gauges["soap.engine"] == "python"
    assert fingerprint == run("python")[0]
