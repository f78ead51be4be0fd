"""Tests for takedown strategies."""

import random

import pytest

from repro.adversary.takedown import (
    GradualTakedown,
    RandomTakedown,
    SimultaneousTakedown,
    TargetedDegreeTakedown,
    victim_schedule,
)
from repro.core.ddsr import DDSROverlay


def overlay(n: int = 150, k: int = 10, seed: int = 0) -> DDSROverlay:
    return DDSROverlay.k_regular(n, k, seed=seed)


class TestRandomTakedown:
    def test_removes_requested_count(self):
        target = overlay()
        result = RandomTakedown(count=30, rng=random.Random(1)).execute(target)
        assert result.removed == 30
        assert result.surviving_nodes == 120
        assert result.strategy == "random"

    def test_overlay_repairs_and_stays_connected(self):
        target = overlay()
        result = RandomTakedown(count=60, rng=random.Random(2)).execute(target)
        assert not result.partitioned
        assert result.repairs_performed == 60
        assert result.max_degree <= target.config.d_max

    def test_cannot_remove_more_than_population(self):
        target = overlay(n=20, k=4)
        result = RandomTakedown(count=100, rng=random.Random(3)).execute(target)
        assert result.surviving_nodes == 0


class TestTargetedDegreeTakedown:
    def test_targets_highest_degree_nodes(self):
        target = overlay()
        # Inflate one node's degree so it becomes the obvious first victim.
        hub = target.nodes()[0]
        for other in target.nodes()[1:20]:
            if not target.graph.has_edge(hub, other):
                target.graph.add_edge(hub, other)
        result = TargetedDegreeTakedown(count=1, rng=random.Random(0)).execute(target)
        assert result.victims == [hub]

    def test_overlay_withstands_targeted_campaign(self):
        target = overlay()
        result = TargetedDegreeTakedown(count=45, rng=random.Random(1)).execute(target)
        assert not result.partitioned


class TestSimultaneousTakedown:
    def test_no_repair_happens_during_mass_removal(self):
        target = overlay()
        SimultaneousTakedown(fraction=0.2, rng=random.Random(1)).execute(target)
        assert target.stats.repair_edges_added == 0

    def test_small_fraction_does_not_partition(self):
        target = overlay(n=200)
        result = SimultaneousTakedown(fraction=0.1, rng=random.Random(2)).execute(target)
        assert not result.partitioned

    def test_huge_fraction_partitions(self):
        target = overlay(n=200)
        result = SimultaneousTakedown(fraction=0.85, rng=random.Random(3)).execute(target)
        assert result.partitioned

    def test_post_repair_option_heals_survivors(self):
        target = overlay(n=200)
        result = SimultaneousTakedown(
            fraction=0.3, rng=random.Random(4), allow_post_repair=True
        ).execute(target)
        assert target.stats.repair_edges_added > 0
        assert not result.partitioned

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            SimultaneousTakedown(fraction=1.5).execute(overlay(n=20, k=4))


class TestGradualTakedown:
    def test_checkpoints_are_produced(self):
        target = overlay()
        results = GradualTakedown(fraction=0.4, checkpoints=4, rng=random.Random(1)).execute_with_checkpoints(target)
        assert len(results) >= 4
        assert results[-1].removed == pytest.approx(60, abs=1)

    def test_execute_returns_final_state(self):
        target = overlay()
        result = GradualTakedown(fraction=0.3, rng=random.Random(1)).execute(target)
        assert result.surviving_nodes == 105

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GradualTakedown(fraction=2.0).execute(overlay(n=20, k=4))
        with pytest.raises(ValueError):
            GradualTakedown(fraction=0.1, checkpoints=0).execute(overlay(n=20, k=4))


class TestVictimSchedule:
    def test_schedule_size(self):
        nodes = list(range(100))
        assert len(victim_schedule(nodes, 0.25, random.Random(0))) == 25

    def test_schedule_is_reproducible(self):
        nodes = list(range(100))
        assert victim_schedule(nodes, 0.5, random.Random(7)) == victim_schedule(
            nodes, 0.5, random.Random(7)
        )

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            victim_schedule([1, 2, 3], -0.1)


class TestGradualPathMetrics:
    def test_path_metrics_off_by_default(self):
        result = GradualTakedown(fraction=0.2, rng=random.Random(2)).execute(
            overlay()
        )
        assert result.path_metrics is None

    def test_exact_path_metrics_when_sample_is_none(self):
        """metric_sample=None records exact full-population metrics."""
        from repro.graphs import backend

        target = overlay()
        strategy = GradualTakedown(
            fraction=0.3,
            checkpoints=2,
            rng=random.Random(4),
            path_metrics=True,
            metric_sample=None,
        )
        results = strategy.execute_with_checkpoints(target)
        final = results[-1]
        summary = backend.full_path_metrics(target.graph)
        assert final.path_metrics == {
            "diameter": summary["diameter"],
            "avg_path_length": summary["avg_path_length"],
            "avg_closeness": summary["avg_closeness"],
        }
        assert final.connected_components == summary["components"]

    def test_exact_path_metrics_identical_across_backends(self):
        pytest.importorskip("numpy")
        from repro.graphs import backend

        def run():
            strategy = GradualTakedown(
                fraction=0.3,
                checkpoints=2,
                rng=random.Random(4),
                path_metrics=True,
                metric_sample=None,
            )
            return [
                checkpoint.path_metrics
                for checkpoint in strategy.execute_with_checkpoints(overlay())
            ]

        with backend.using("python"):
            reference = run()
        with backend.using("fast"):
            assert run() == reference

    def test_path_metrics_recorded_per_checkpoint(self):
        target = overlay()
        strategy = GradualTakedown(
            fraction=0.3,
            checkpoints=3,
            rng=random.Random(2),
            path_metrics=True,
            metric_sample=8,
            metric_rng=random.Random(11),
        )
        results = strategy.execute_with_checkpoints(target)
        assert results
        for checkpoint in results:
            metrics = checkpoint.path_metrics
            assert set(metrics) == {"diameter", "avg_path_length", "avg_closeness"}
            assert metrics["diameter"] >= 1.0
            assert metrics["avg_closeness"] > 0.0
