"""Tests for the per-figure experiment runners (small-scale sanity runs)."""

import pytest

from repro.analysis.experiments import (
    run_fig3_walkthrough,
    run_fig4_centrality,
    run_fig5_resilience,
    run_fig6_partition_threshold,
    run_hsdir_interception,
    run_integrated_botnet,
    run_pow_tradeoff,
    run_soap_campaign,
    run_superonion_vs_soap,
)


class TestFig3:
    def test_walkthrough_stays_connected(self):
        result = run_fig3_walkthrough(n=12, k=3, deletions=8, seed=1)
        assert result.final_connected()
        assert all(step["components"] == 1 for step in result.steps)
        assert any(step["repair_edges_added"] > 0 for step in result.steps)


class TestFig4:
    def test_one_curve_per_degree(self):
        results = run_fig4_centrality(n=150, degrees=(5, 10), checkpoints=3)
        assert [r.degree for r in results] == [5, 10]
        assert all(len(r.deletions) == len(r.closeness) == len(r.degree_centrality) for r in results)

    def test_pruning_bounds_max_degree(self):
        with_pruning = run_fig4_centrality(
            n=150, degrees=(10,), checkpoints=3, pruning=True
        )[0]
        without = run_fig4_centrality(
            n=150, degrees=(10,), checkpoints=3, pruning=False
        )[0]
        assert max(with_pruning.max_degree) <= 15
        assert max(without.max_degree) > 15

    def test_closeness_remains_stable_under_deletions(self):
        result = run_fig4_centrality(n=200, degrees=(10,), checkpoints=4)[0]
        assert result.closeness[-1] > 0.3
        assert result.label().startswith("deg = 10")


class TestFig5:
    def test_ddsr_vs_normal_divergence(self):
        result = run_fig5_resilience(n=200, k=10, checkpoints=8, max_fraction=0.9)
        # DDSR stays in one component far longer than the normal graph.
        assert result.ddsr_stays_connected_until() > 0.5
        assert max(result.normal_components) > max(result.ddsr_components)
        # Normal graph eventually partitions.
        assert result.normal_partitions_at() is not None

    def test_series_lengths_match(self):
        result = run_fig5_resilience(n=120, k=10, checkpoints=4)
        n_points = len(result.deletions)
        assert (
            len(result.ddsr_components)
            == len(result.normal_components)
            == len(result.ddsr_diameter)
            == len(result.normal_diameter)
            == n_points
        )


class TestFig6:
    def test_threshold_is_substantial_for_10_regular(self):
        result = run_fig6_partition_threshold(sizes=(150, 300), k=10, trials_per_fraction=1)
        assert len(result.fractions) == 2
        assert all(fraction >= 0.2 for fraction in result.fractions)
        assert result.mean_fraction() >= 0.2
        assert result.nodes_to_partition[0] == int(round(result.fractions[0] * 150))


class TestSoapExperiment:
    def test_basic_onionbot_is_neutralized(self):
        result = run_soap_campaign(n=80, k=6, seed=1)
        assert result.neutralized
        assert result.benign_components["nontrivial_components"] == 0

    def test_max_targets_partial_campaign(self):
        result = run_soap_campaign(n=80, k=6, seed=1, max_targets=3)
        assert not result.neutralized


class TestHsdirExperiment:
    def test_denial_then_escape_by_rotation(self):
        result = run_hsdir_interception(relays=30, seed=2)
        assert result.denial_before_rotation
        assert result.reachable_after_rotation
        assert result.relays_required == 6


class TestSuperOnionExperiment:
    def test_superonion_survives_where_basic_falls(self):
        super_result, basic_result = run_superonion_vs_soap(
            hosts=5, virtual_per_host=3, rounds=5, targets_per_round=2, seed=3
        )
        assert basic_result.neutralized
        assert super_result.host_survival_fraction > 0.0


class TestPowTradeoff:
    def test_escalation_reduces_containment(self):
        points = run_pow_tradeoff(n=60, k=6, escalation_factors=(1.0, 2.0), seed=4)
        by_factor = {point.escalation_factor: point for point in points}
        assert by_factor[1.0].containment_fraction == pytest.approx(1.0)
        assert by_factor[2.0].containment_fraction < by_factor[1.0].containment_fraction
        assert by_factor[2.0].requests_rejected > 0


class TestIntegratedBotnet:
    def test_end_to_end_coverage(self):
        result = run_integrated_botnet(bots=12, seed=5, takedown_fraction=0.25)
        assert result["coverage_before"] == 1.0
        assert result["coverage_after"] == 1.0
        assert result["components_after"] == 1.0
