"""Tests for the DDSR self-healing overlay (the paper's core algorithm)."""

import random

import pytest

from repro.core.ddsr import DDSRConfig, DDSROverlay, PruningPolicy, RepairPolicy
from repro.core.errors import OverlayError
from repro.graphs.metrics import number_connected_components


class TestConstruction:
    def test_k_regular_builder(self):
        overlay = DDSROverlay.k_regular(60, 6, seed=1)
        assert len(overlay) == 60
        assert all(overlay.degree(node) == 6 for node in overlay.nodes())

    def test_from_edges_builder(self):
        overlay = DDSROverlay.from_edges([(0, 1), (1, 2)])
        assert len(overlay) == 3
        assert overlay.degree(1) == 2

    def test_default_config_bounds_around_k(self):
        overlay = DDSROverlay.k_regular(40, 10, seed=1)
        assert overlay.config.d_min == 5
        assert overlay.config.d_max == 15

    def test_invalid_config_rejected(self):
        with pytest.raises(OverlayError):
            DDSRConfig(d_min=10, d_max=5)


class TestRepairStep:
    def test_figure3_scenario_neighbors_form_clique(self):
        """Removing node 7 makes its former neighbours pairwise connected."""
        overlay = DDSROverlay.k_regular(12, 3, seed=7)
        victim = overlay.nodes()[0]
        neighbors = sorted(overlay.peers(victim), key=repr)
        overlay.remove_node(victim)
        for index, u in enumerate(neighbors):
            for v in neighbors[index + 1:]:
                assert overlay.graph.has_edge(u, v)

    def test_repair_keeps_overlay_connected_through_heavy_deletion(self):
        overlay = DDSROverlay.k_regular(150, 10, seed=3)
        overlay.remove_fraction(0.6, rng=random.Random(1))
        assert number_connected_components(overlay.graph) == 1

    def test_no_repair_policy_behaves_like_normal_graph(self):
        config = DDSRConfig(d_min=0, d_max=10**9, repair_policy=RepairPolicy.NONE,
                            pruning_policy=PruningPolicy.NONE)
        overlay = DDSROverlay.k_regular(100, 4, config=config, seed=5)
        overlay.remove_fraction(0.5, rng=random.Random(2))
        assert overlay.stats.repair_edges_added == 0
        assert number_connected_components(overlay.graph) > 1

    def test_ring_repair_adds_fewer_edges_than_clique(self):
        clique = DDSROverlay.k_regular(100, 8, seed=9)
        ring = DDSROverlay.k_regular(
            100, 8, config=DDSRConfig(repair_policy=RepairPolicy.RING), seed=9
        )
        victims = clique.nodes()[:20]
        clique.remove_nodes(list(victims))
        ring.remove_nodes(list(victims))
        assert ring.stats.repair_edges_added < clique.stats.repair_edges_added

    def test_repair_counters(self):
        overlay = DDSROverlay.k_regular(30, 4, seed=1)
        overlay.remove_node(overlay.nodes()[0])
        assert overlay.stats.nodes_removed == 1
        assert overlay.stats.repairs_performed == 1
        assert overlay.stats.repair_edges_added > 0

    def test_removing_unknown_node_raises(self):
        overlay = DDSROverlay.k_regular(10, 2, seed=1)
        with pytest.raises(OverlayError):
            overlay.remove_node("missing")


class TestPruning:
    def test_degree_bound_maintained_under_deletions(self):
        overlay = DDSROverlay.k_regular(200, 10, seed=2)
        overlay.remove_fraction(0.3, rng=random.Random(3))
        assert overlay.degree_bounds_satisfied()
        assert overlay.max_degree() <= overlay.config.d_max

    def test_without_pruning_degrees_grow(self):
        config = DDSRConfig(d_min=5, d_max=15, pruning_policy=PruningPolicy.NONE)
        overlay = DDSROverlay.k_regular(200, 10, config=config, seed=2)
        overlay.remove_fraction(0.3, rng=random.Random(3))
        assert overlay.max_degree() > 15

    def test_enforce_degree_bound_public_api(self):
        overlay = DDSROverlay.k_regular(30, 4, config=DDSRConfig(d_min=2, d_max=4), seed=1)
        node = overlay.nodes()[0]
        # Manually over-connect the node.
        for other in overlay.nodes():
            if other != node and not overlay.graph.has_edge(node, other):
                overlay.graph.add_edge(node, other)
        assert overlay.degree(node) > 4
        removed = overlay.enforce_degree_bound(node)
        assert removed > 0
        assert overlay.degree(node) <= 4

    def test_enforce_degree_bound_unknown_node(self):
        overlay = DDSROverlay.k_regular(10, 2, seed=1)
        with pytest.raises(OverlayError):
            overlay.enforce_degree_bound("missing")

    def test_prune_victim_is_highest_degree_peer(self):
        overlay = DDSROverlay.from_edges(
            [("t", "a"), ("t", "b"), ("t", "c"), ("a", "b"), ("a", "c"), ("a", "d")],
            config=DDSRConfig(d_min=1, d_max=2),
        )
        overlay.enforce_degree_bound("t")
        # "a" has the highest degree among t's peers, so it gets dropped first.
        assert not overlay.graph.has_edge("t", "a")
        assert overlay.degree("t") == 2

    def test_random_pruning_policy(self):
        config = DDSRConfig(d_min=2, d_max=5, pruning_policy=PruningPolicy.RANDOM)
        overlay = DDSROverlay.k_regular(100, 5, config=config, seed=4)
        overlay.remove_fraction(0.2, rng=random.Random(5))
        assert overlay.max_degree() <= 5

    def test_forgetting_counter(self):
        overlay = DDSROverlay.k_regular(50, 6, seed=6)
        overlay.remove_node(overlay.nodes()[0])
        assert overlay.stats.addresses_forgotten >= 1
        assert len(overlay.forgotten) == 1


class TestNoNKnowledge:
    def test_knows_peers_and_their_peers_only(self):
        overlay = DDSROverlay.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert overlay.knows(0, 1)       # direct peer
        assert overlay.knows(0, 2)       # neighbour of neighbour
        assert not overlay.knows(0, 3)   # two hops away: unknown
        assert not overlay.knows(0, 99)  # not in overlay

    def test_neighbors_of_neighbors_delegation(self):
        overlay = DDSROverlay.from_edges([(0, 1), (1, 2)])
        assert overlay.neighbors_of_neighbors(0) == {2}


class TestMembership:
    def test_add_node_with_peers(self):
        overlay = DDSROverlay.k_regular(20, 4, seed=1)
        peers = overlay.nodes()[:3]
        overlay.add_node("newcomer", peers)
        assert overlay.degree("newcomer") == 3
        assert overlay.stats.nodes_joined == 1

    def test_add_duplicate_node_rejected(self):
        overlay = DDSROverlay.k_regular(20, 4, seed=1)
        with pytest.raises(OverlayError):
            overlay.add_node(overlay.nodes()[0])

    def test_add_node_with_unknown_peer_rejected(self):
        overlay = DDSROverlay.k_regular(20, 4, seed=1)
        with pytest.raises(OverlayError):
            overlay.add_node("newcomer", ["ghost"])

    def test_add_edge_requires_members(self):
        overlay = DDSROverlay.k_regular(20, 4, seed=1)
        with pytest.raises(OverlayError):
            overlay.add_edge("ghost", overlay.nodes()[0])

    def test_remove_fraction_validates_input(self):
        overlay = DDSROverlay.k_regular(20, 4, seed=1)
        with pytest.raises(OverlayError):
            overlay.remove_fraction(1.5)


class TestMassRemoval:
    def test_simultaneous_removal_then_batch_repair(self):
        overlay = DDSROverlay.k_regular(100, 10, seed=8)
        victims = overlay.nodes()[:20]
        neighbor_sets = [overlay.remove_node(victim, repair=False) for victim in victims]
        assert overlay.stats.repair_edges_added == 0
        added = overlay.repair_after_mass_removal(neighbor_sets)
        assert added > 0
        assert overlay.degree_bounds_satisfied()

    def test_snapshot_is_independent_copy(self):
        overlay = DDSROverlay.k_regular(30, 4, seed=1)
        snapshot = overlay.snapshot()
        overlay.remove_node(overlay.nodes()[0])
        assert snapshot.number_of_nodes() == 30


class TestPathMetricSummary:
    def test_summary_matches_backend_metrics(self):
        """The one-campaign summary equals the separate exact estimators."""
        from repro.graphs import backend

        overlay = DDSROverlay.k_regular(120, 8, seed=4)
        summary = overlay.path_metric_summary()
        components, largest = backend.component_summary(overlay.graph)
        assert summary["components"] == components
        assert summary["largest_fraction"] == largest / overlay.graph.number_of_nodes()
        working = backend.largest_component_subgraph(overlay.graph)
        assert summary["diameter"] == backend.diameter(working, connected=True)
        assert summary["avg_path_length"] == backend.average_shortest_path_length(
            working, connected=True
        )
        assert summary["avg_closeness"] == backend.average_closeness_centrality(working)

    def test_summary_identical_across_backends(self):
        pytest.importorskip("numpy")
        import random

        from repro.graphs import backend

        overlay = DDSROverlay.k_regular(150, 8, seed=5)
        overlay.remove_fraction(0.3, rng=random.Random(6))
        with backend.using("python"):
            reference = overlay.path_metric_summary()
        with backend.using("fast"):
            assert overlay.path_metric_summary() == reference

    def test_empty_overlay_summary(self):
        overlay = DDSROverlay.k_regular(10, 4, seed=1)
        for node in list(overlay.nodes()):
            overlay.graph.remove_node(node)
        summary = overlay.path_metric_summary()
        assert summary["components"] == 0 and summary["avg_closeness"] == 0.0

    def test_exact_summary_matches_full_path_metrics(self):
        """The summary is the one-campaign exact kernel's, on both backends."""
        pytest.importorskip("numpy")
        import random

        from repro.graphs import backend

        overlay = DDSROverlay.k_regular(140, 8, seed=7)
        overlay.remove_fraction(0.25, rng=random.Random(8))
        summary = overlay.path_metric_summary()
        assert summary == backend.full_path_metrics(overlay.graph)
        with backend.using("python"):
            assert overlay.path_metric_summary() == summary
        with backend.using("fast"):
            assert overlay.path_metric_summary() == summary
