"""Differential tests: the vectorized SOAP campaign vs the reference oracle.

:class:`~repro.adversary.soap.SoapAttack` replaces the original containment
loops with batched bookkeeping (incremental benign-peer views fed by pruning
victims, degree buckets, a deque FIFO, id-indexed flag arrays) and routes the
benign-subgraph summary over the CSR backend.
:class:`~repro.adversary.soap.ReferenceSoapAttack` preserves the original
implementation end to end.  Every test here runs both against identically
seeded overlays and asserts **equality of the full result objects** -- per
node results, timelines, rng-consuming tie-breaks, overlay stats, and the
final graph itself.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.adversary.soap import AdmissionDecision, ReferenceSoapAttack, SoapAttack
from repro.core.ddsr import DDSRConfig, DDSROverlay, PruningPolicy
from repro.defenses.pow import PowAdmission, PowParameters
from repro.defenses.rate_limit import RateLimitedAdmission, RateLimitParameters
from repro.graphs import backend


def _campaign(cls, *, n, k, seed, attack_kwargs=None, campaign_kwargs=None):
    overlay = DDSROverlay.k_regular(n, k, seed=seed)
    chooser = random.Random(seed + 13)
    compromised = chooser.sample(overlay.nodes(), 2)
    attack = cls(rng=random.Random(seed + 17), **(attack_kwargs or {}))
    result = attack.run_campaign(overlay, compromised, **(campaign_kwargs or {}))
    return overlay, attack, result


def _assert_overlays_identical(reference, vectorized):
    assert sorted(map(repr, reference.graph.nodes())) == sorted(
        map(repr, vectorized.graph.nodes())
    )
    assert set(map(frozenset, reference.graph.edges())) == set(
        map(frozenset, vectorized.graph.edges())
    )
    assert reference.stats.as_dict() == vectorized.stats.as_dict()


@pytest.mark.parametrize("n,k,seed", [(60, 6, 0), (120, 10, 7), (200, 8, 42)])
def test_campaign_identical_to_reference(n, k, seed):
    ref_overlay, ref_attack, ref = _campaign(ReferenceSoapAttack, n=n, k=k, seed=seed)
    opt_overlay, opt_attack, opt = _campaign(SoapAttack, n=n, k=k, seed=seed)
    assert opt == ref
    assert opt_attack.rng.getstate() == ref_attack.rng.getstate()
    _assert_overlays_identical(ref_overlay, opt_overlay)


def test_campaign_identical_under_pow_admission():
    admission = dict(
        attack_kwargs={
            "admission": PowAdmission(
                PowParameters(base_work=1.0, escalation_factor=2.0, work_budget_per_clone=8.0)
            )
        }
    )
    _, _, ref = _campaign(ReferenceSoapAttack, n=80, k=8, seed=3, **admission)
    admission["attack_kwargs"]["admission"] = PowAdmission(
        PowParameters(base_work=1.0, escalation_factor=2.0, work_budget_per_clone=8.0)
    )
    _, _, opt = _campaign(SoapAttack, n=80, k=8, seed=3, **admission)
    assert opt == ref
    assert opt.requests_rejected == ref.requests_rejected > 0


def test_campaign_identical_under_rate_limit():
    def kwargs():
        return {
            "attack_kwargs": {
                "admission": RateLimitedAdmission(
                    RateLimitParameters(
                        base_delay=30.0, per_degree_delay=20.0, max_acceptable_delay=400.0
                    )
                ),
                "time_budget": 30_000.0,
            }
        }

    _, _, ref = _campaign(ReferenceSoapAttack, n=60, k=6, seed=9, **kwargs())
    _, _, opt = _campaign(SoapAttack, n=60, k=6, seed=9, **kwargs())
    assert opt == ref


def test_campaign_identical_with_max_targets_and_budgets():
    extras = dict(campaign_kwargs={"max_targets": 11})
    _, _, ref = _campaign(
        ReferenceSoapAttack,
        n=90,
        k=8,
        seed=5,
        attack_kwargs={"work_budget": 40.0, "max_clones_per_node": 25},
        **extras,
    )
    _, _, opt = _campaign(
        SoapAttack,
        n=90,
        k=8,
        seed=5,
        attack_kwargs={"work_budget": 40.0, "max_clones_per_node": 25},
        **extras,
    )
    assert opt == ref


@pytest.mark.parametrize(
    "policy",
    [
        PruningPolicy.HIGHEST_DEGREE,
        PruningPolicy.LOWEST_DEGREE,
        PruningPolicy.RANDOM,
        PruningPolicy.NONE,
    ],
)
def test_contain_node_identical_across_pruning_policies(policy):
    """The inline bucket pruner (and its general-path fallback) match exactly."""

    def build():
        config = DDSRConfig(d_min=3, d_max=8, pruning_policy=policy)
        return DDSROverlay.k_regular(40, 6, config=config, seed=21)

    ref_overlay = build()
    opt_overlay = build()
    ref_attack = ReferenceSoapAttack(rng=random.Random(31))
    opt_attack = SoapAttack(rng=random.Random(31))
    for target in list(ref_overlay.nodes())[:10]:
        ref = ref_attack.contain_node(ref_overlay, target)
        opt = opt_attack.contain_node(opt_overlay, target)
        assert opt == ref
    _assert_overlays_identical(ref_overlay, opt_overlay)


@pytest.mark.parametrize(
    "policy",
    [
        PruningPolicy.HIGHEST_DEGREE,
        PruningPolicy.LOWEST_DEGREE,
        PruningPolicy.RANDOM,
        PruningPolicy.NONE,
    ],
)
def test_reference_pruner_anchored_to_ddsr(policy):
    """The oracle's pruning replica must track the *real* DDSR pruner.

    The differential tests compare ``SoapAttack`` against
    ``ReferenceSoapAttack``, whose ``_enforce_degree_bound_original`` (and,
    transitively, the vectorized attack's inline bucket pruner) re-implement
    ``DDSROverlay.enforce_degree_bound``.  This anchor catches drift: any
    change to DDSR's victim selection, stats accounting or forgetting rule
    must show up as a divergence here.
    """

    def build():
        config = DDSRConfig(d_min=3, d_max=6, pruning_policy=policy)
        overlay = DDSROverlay.k_regular(30, 5, config=config, seed=51)
        rng = random.Random(52)
        # Push several nodes over the bound the way SOAP does: extra edges.
        for node in list(overlay.nodes())[:8]:
            for _ in range(4):
                other = rng.choice([n for n in overlay.nodes() if n != node])
                overlay.graph.add_edge(node, other)
        overlay.rng = random.Random(53)
        return overlay

    ddsr_overlay = build()
    replica_overlay = build()
    for node in list(ddsr_overlay.nodes())[:8]:
        removed = ddsr_overlay.enforce_degree_bound(node)
        replica_removed = ReferenceSoapAttack._enforce_degree_bound_original(
            replica_overlay, node
        )
        assert replica_removed == removed
    _assert_overlays_identical(ddsr_overlay, replica_overlay)
    assert ddsr_overlay.rng.getstate() == replica_overlay.rng.getstate()


def test_inline_clone_minting_matches_new_clone():
    """contain_node inlines the clone-id format; it must track ``_new_clone``.

    A drift between the two would otherwise surface as a confusing overlay
    mismatch in the differential tests; this pins the format directly.
    """
    overlay = DDSROverlay.k_regular(12, 4, seed=61)
    attack = SoapAttack(rng=random.Random(62))
    attack.contain_node(overlay, overlay.nodes()[0])
    minted = sorted(node for node in overlay.nodes() if isinstance(node, str))
    assert minted, "containment should have minted clones"
    oracle = SoapAttack(rng=random.Random(0))
    expected = [oracle._new_clone() for _ in minted]
    assert minted == expected


def test_contain_node_missing_target_matches_reference():
    overlay = DDSROverlay.k_regular(20, 4, seed=1)
    ref = ReferenceSoapAttack(rng=random.Random(2)).contain_node(overlay, "ghost")
    opt = SoapAttack(rng=random.Random(2)).contain_node(overlay, "ghost")
    assert opt == ref
    assert not opt.contained


@pytest.mark.parametrize("graph_backend", ["python", "fast"])
def test_benign_subgraph_components_identical(graph_backend):
    """The induced CSR summary equals the subgraph walk on finished overlays."""
    pytest.importorskip("numpy")
    overlay, _, _ = _campaign(SoapAttack, n=90, k=8, seed=11)
    with backend.using("python"):
        reference = SoapAttack.benign_subgraph_components(overlay)
    with backend.using(graph_backend):
        assert SoapAttack.benign_subgraph_components(overlay) == reference


def test_benign_subgraph_components_mid_campaign():
    pytest.importorskip("numpy")
    overlay = DDSROverlay.k_regular(70, 6, seed=13)
    attack = SoapAttack(rng=random.Random(14))
    attack.run_campaign(overlay, [overlay.nodes()[0]], max_targets=8)
    with backend.using("python"):
        reference = SoapAttack.benign_subgraph_components(overlay)
    with backend.using("fast"):
        assert SoapAttack.benign_subgraph_components(overlay) == reference


# ----------------------------------------------------------------------
# The campaign pauses the cyclic garbage collector and restores it
# ----------------------------------------------------------------------


@pytest.fixture
def collector():
    """Start each test with the collector enabled and nothing frozen; restore."""
    was_enabled = gc.isenabled()
    assert gc.get_freeze_count() == 0
    gc.enable()
    yield
    gc.unfreeze()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_campaign_restores_enabled_collector_and_matches_reference(collector):
    ref_overlay, ref_attack, ref = _campaign(ReferenceSoapAttack, n=120, k=10, seed=7)
    assert gc.isenabled()
    opt_overlay, opt_attack, opt = _campaign(SoapAttack, n=120, k=10, seed=7)
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
    assert opt == ref
    assert opt_attack.rng.getstate() == ref_attack.rng.getstate()
    _assert_overlays_identical(ref_overlay, opt_overlay)


def test_campaign_leaves_disabled_collector_disabled(collector):
    gc.disable()
    _campaign(SoapAttack, n=60, k=6, seed=0)
    assert not gc.isenabled()


def test_campaign_keeps_caller_frozen_objects_frozen(collector):
    _campaign(SoapAttack, n=60, k=6, seed=0)
    assert gc.get_freeze_count() == 0
    gc.freeze()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    _campaign(SoapAttack, n=60, k=6, seed=0)
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_campaign_restores_collector_when_admission_raises(collector):
    calls = []

    def failing(target, requester, overlay):
        calls.append(requester)
        if len(calls) == 5:
            raise RuntimeError("admission failed")
        return AdmissionDecision(accepted=True)

    with pytest.raises(RuntimeError, match="admission failed"):
        _campaign(SoapAttack, n=60, k=6, seed=0, attack_kwargs={"admission": failing})
    assert len(calls) == 5
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_collector_paused_in_run_campaign_not_in_contain_node(collector):
    seen = []

    def probe(target, requester, overlay):
        seen.append(gc.isenabled())
        return AdmissionDecision(accepted=True)

    _campaign(SoapAttack, n=60, k=6, seed=0, attack_kwargs={"admission": probe})
    assert seen and not any(seen)
    seen.clear()
    overlay = DDSROverlay.k_regular(60, 6, seed=0)
    SoapAttack(rng=random.Random(1), admission=probe).contain_node(overlay, overlay.nodes()[0])
    assert seen and all(seen)
