"""Tests for the sharded executor: determinism, caching, aggregation."""

import pytest

from repro.runner.cache import ResultCache
from repro.runner.executor import execute, run_scenario
from repro.runner.registry import scenario, unregister
from repro.runner.spec import ScenarioSpec

#: A fast scenario exercised throughout: ablation on a small overlay.
FAST = dict(params={"n": 60, "k": 6, "fraction": 0.5}, seed=9)


class TestSerialExecution:
    def test_grid_times_trials_units_in_schedule_order(self):
        result = run_scenario(
            "ablation-repair-policy",
            grid={"policy": ["clique", "none"]},
            trials=3,
            **FAST,
        )
        assert len(result.unit_metrics) == 6
        assert len(result.points) == 2
        assert [point["policy"] for point in result.points] == ["clique", "none"]
        assert all(aggregate.trials() == 3 for aggregate in result.aggregates)

    def test_rows_merge_params_and_aggregate_metrics(self):
        result = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique"]}, trials=2, **FAST
        )
        row = result.rows()[0]
        assert row["policy"] == "clique"
        assert row["trials"] == 2
        assert "components_mean" in row and "components_ci95" in row

    def test_scalar_lookup(self):
        result = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique", "none"]}, **FAST
        )
        clique = result.scalar("components", policy="clique")
        none = result.scalar("components", policy="none")
        assert none >= clique
        with pytest.raises(KeyError):
            result.scalar("components", policy="missing")

    def test_seed_changes_results_worker_count_does_not(self):
        a = run_scenario("ablation-repair-policy", grid={"policy": ["none"]},
                         params=FAST["params"], seed=1)
        b = run_scenario("ablation-repair-policy", grid={"policy": ["none"]},
                         params=FAST["params"], seed=2)
        assert a.unit_metrics != b.unit_metrics


class TestParallelDeterminism:
    def test_parallel_results_bit_identical_to_serial(self):
        spec = ScenarioSpec(
            name="ablation-repair-policy",
            params=FAST["params"],
            grid={"policy": ["clique", "ring", "none"]},
            trials=2,
            seed=FAST["seed"],
        )
        serial = execute(spec, workers=1)
        parallel = execute(spec, workers=3, shard_size=1)
        assert parallel.unit_metrics == serial.unit_metrics
        assert parallel.rows() == serial.rows()

    def test_composed_scenario_parallel_matches_serial(self):
        kwargs = dict(
            grid={"join_rate": [1.0, 4.0]},
            params={"n": 60, "k": 6, "hours": 3.0},
            trials=2,
            seed=21,
        )
        serial = run_scenario("soap-under-churn", workers=1, **kwargs)
        parallel = run_scenario("soap-under-churn", workers=4, **kwargs)
        assert parallel.unit_metrics == serial.unit_metrics

    def test_at_scale_trial_grid_parallel_matches_serial(self):
        """soap-admission-grid shards one unit per submission, bit-identically."""
        kwargs = dict(
            grid={"admission": ["open", "pow"]},
            params={"n": 150, "k": 8},
            trials=2,
            seed=33,
        )
        serial = run_scenario("soap-admission-grid", workers=1, **kwargs)
        parallel = run_scenario("soap-admission-grid", workers=4, **kwargs)
        assert parallel.unit_metrics == serial.unit_metrics
        assert parallel.rows() == serial.rows()

    def test_task_context_carries_the_parent_policies(self):
        """One context per fan-out: home module, pins, telemetry, faults."""
        from repro.graphs import backend
        from repro.obs import telemetry
        from repro.runner import faults
        from repro.runner.pool import task_context

        with backend.using("python"):
            assert task_context("home.module") == {
                "module": "home.module",
                "pins": {"graph_backend": "python"},
                "telemetry": False,
                "faults": None,
            }
            try:
                faults.install("cache.read=raise@2")
                with telemetry.collecting():
                    ctx = task_context()
                assert ctx == {
                    "module": "",
                    "pins": {"graph_backend": "python"},
                    "telemetry": True,
                    "faults": faults.shipped(),
                }
            finally:
                faults.reset()

    def test_worker_context_applies_parent_policies(self, tmp_path):
        """Workers re-force the parent's resolved backend pin.

        Forced state set via ``backend.use()`` lives in process globals that
        spawn/forkserver children never inherit; every pool task must apply
        it so results are computed under the policy the cache key records.
        The fault plane ships the same way; an adopted plane shares the
        parent's counter directory and never removes it.
        """
        pytest.importorskip("numpy")
        from repro.graphs import backend
        from repro.runner import faults
        from repro.runner.pool import _apply_worker_context

        plane = ("cache.read=raise@2", str(tmp_path))
        previous = backend.use(None)
        try:
            _apply_worker_context(
                {
                    "module": "",
                    "pins": {"graph_backend": "python"},
                    "telemetry": True,
                    "faults": plane,
                }
            )
            assert backend.policy() == "python"
            assert faults.shipped() == plane
            _apply_worker_context(
                {
                    "module": "",
                    "pins": {"graph_backend": "fast"},
                    "telemetry": False,
                    "faults": None,
                }
            )
            assert backend.policy() == "fast"
            assert faults.active() is None
            assert tmp_path.is_dir()
        finally:
            backend.use(previous)
            faults.reset()

    def test_run_shard_collects_only_under_the_shipped_flag(self):
        """The shipped telemetry flag decides whether a shard collects."""
        from repro.graphs import backend
        from repro.runner.pool import _pool_run_shard, task_context

        shard = [(0, {"n": 60, "k": 6, "fraction": 0.5}, 9)]
        previous = backend.use(None)
        try:
            ctx = task_context()
            dark, none = _pool_run_shard(
                dict(ctx, telemetry=False), "ablation-repair-policy", shard
            )
            lit, snapshot = _pool_run_shard(
                dict(ctx, telemetry=True), "ablation-repair-policy", shard
            )
        finally:
            backend.use(previous)
        assert none is None
        assert snapshot["spans"]["runner.unit"]["count"] == 1
        assert lit == dark

    def test_worker_context_broken_home_module_is_a_config_error(self):
        """A scenario home that fails to import in a worker is named."""
        from repro.core.errors import ConfigError
        from repro.graphs import backend
        from repro.runner.pool import _apply_worker_context

        previous = backend.use(None)
        try:
            with pytest.raises(ConfigError, match="repro_no_such_home"):
                _apply_worker_context(
                    {
                        "module": "repro_no_such_home",
                        "pins": {"graph_backend": "auto"},
                        "telemetry": False,
                        "faults": None,
                    }
                )
        finally:
            backend.use(previous)

    def test_dark_worker_context_stops_an_inherited_collector(self):
        """A forked worker's inherited live collector is switched off."""
        from repro.graphs import backend
        from repro.obs import telemetry
        from repro.runner.pool import _apply_worker_context

        previous = backend.use(None)
        telemetry.enable(label="inherited")
        try:
            _apply_worker_context(
                {
                    "module": "",
                    "pins": {"graph_backend": "auto"},
                    "telemetry": False,
                    "faults": None,
                }
            )
            assert not telemetry.current().enabled
        finally:
            telemetry.disable()
            backend.use(previous)

    def test_forced_backend_parallel_matches_serial(self):
        """The parallel==serial guarantee holds under a forced backend too."""
        pytest.importorskip("numpy")
        from repro.graphs import backend

        kwargs = dict(grid={"policy": ["clique", "none"]}, trials=2, **FAST)
        with backend.using("python"):
            serial = run_scenario("ablation-repair-policy", workers=1, **kwargs)
            parallel = run_scenario("ablation-repair-policy", workers=2, **kwargs)
        assert parallel.unit_metrics == serial.unit_metrics

    def test_scenario_shard_size_hint_caps_executor_sharding(self):
        """A heavy scenario's shard_size=1 hint splits shards unit-per-worker."""
        from repro.runner import executor as executor_module
        from repro.runner.registry import get_scenario

        assert get_scenario("soap-admission-grid").shard_size == 1
        assert get_scenario("soap-at-scale").shard_size == 1
        assert get_scenario("resilience-at-scale").shard_size == 1
        observed = []
        original = executor_module._shards

        def recording(pending, shard_size):
            observed.append(shard_size)
            return original(pending, shard_size)

        executor_module._shards = recording
        try:
            run_scenario(
                "soap-admission-grid",
                params={"n": 120, "k": 6},
                trials=3,
                seed=5,
                workers=2,
            )
            run_scenario(
                "ablation-repair-policy", workers=2, trials=3, **FAST
            )
        finally:
            executor_module._shards = original
        # Hinted scenario: forced to 1 unit per shard; unhinted: default (8).
        assert observed[0] == 1
        assert observed[1] == executor_module.DEFAULT_SHARD_SIZE

    def test_shard_size_hint_validation(self):
        from repro.runner.registry import scenario as register

        with pytest.raises(ValueError):
            register(name="bad-shard-hint", shard_size=0)


class TestCaching:
    def test_second_run_served_entirely_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique", "none"]},
            trials=2, cache=cache, **FAST,
        )
        second = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique", "none"]},
            trials=2, cache=cache, **FAST,
        )
        assert first.cache_misses == 4 and first.cache_hits == 0
        assert second.cache_hits == 4 and second.cache_misses == 0
        assert second.unit_metrics == first.unit_metrics

    def test_extended_sweep_only_computes_new_units(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_scenario("ablation-repair-policy", grid={"policy": ["clique"]},
                     cache=cache, **FAST)
        extended = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique", "ring"]},
            cache=cache, **FAST,
        )
        assert extended.cache_hits == 1
        assert extended.cache_misses == 1

    def test_corrupt_entry_surfaces_in_run_result(self, tmp_path):
        """A planted undecodable entry is evicted, recomputed, and reported."""
        cache = ResultCache(tmp_path)
        first = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique", "none"]},
            trials=1, cache=cache, **FAST,
        )
        assert first.cache_corrupt == 0
        victim = next(tmp_path.glob("*/*.json"))
        victim.write_bytes(b"\x80not json")
        second = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique", "none"]},
            trials=1, cache=cache, **FAST,
        )
        assert second.cache_corrupt == 1
        assert second.cache_hits == 1 and second.cache_misses == 1
        assert second.unit_metrics == first.unit_metrics
        # The eviction let the recompute repair the entry in place.
        third = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique", "none"]},
            trials=1, cache=cache, **FAST,
        )
        assert third.cache_corrupt == 0 and third.cache_hits == 2

    def test_explicit_default_value_hits_same_entry_as_omitted(self, tmp_path):
        # Cache keys are derived from the *resolved* parameter set, so
        # passing a parameter at its registered default is the same run.
        cache = ResultCache(tmp_path)
        run_scenario("fig3-walkthrough", seed=4, cache=cache)
        explicit = run_scenario("fig3-walkthrough", params={"n": 12}, seed=4, cache=cache)
        assert explicit.cache_hits == 1 and explicit.cache_misses == 0

    def test_backend_switch_misses_cache(self, tmp_path):
        """A run cached under the python backend is recomputed under fast."""
        import pytest

        pytest.importorskip("numpy")
        from repro.graphs import backend

        cache = ResultCache(tmp_path)
        with backend.using("python"):
            first = run_scenario(
                "ablation-repair-policy", grid={"policy": ["clique"]},
                cache=cache, **FAST,
            )
            repeat = run_scenario(
                "ablation-repair-policy", grid={"policy": ["clique"]},
                cache=cache, **FAST,
            )
        assert first.cache_misses == 1 and repeat.cache_hits == 1
        with backend.using("fast"):
            switched = run_scenario(
                "ablation-repair-policy", grid={"policy": ["clique"]},
                cache=cache, **FAST,
            )
        assert switched.cache_hits == 0 and switched.cache_misses == 1
        # The backends are bit-identical, so the recomputed values agree --
        # but that is the contract under test elsewhere, not a cache property.
        assert switched.unit_metrics == first.unit_metrics

    def test_param_change_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_scenario("ablation-repair-policy", grid={"policy": ["clique"]},
                     cache=cache, **FAST)
        changed = run_scenario(
            "ablation-repair-policy", grid={"policy": ["clique"]},
            params={"n": 70, "k": 6, "fraction": 0.5}, seed=FAST["seed"], cache=cache,
        )
        assert changed.cache_hits == 0 and changed.cache_misses == 1


class TestShardedPathMetrics:
    """Source-sharded exact full-population path metrics: serial == parallel."""

    def test_sharded_bit_identical_to_serial(self):
        pytest.importorskip("numpy")
        from repro.graphs import fast
        from repro.graphs.generators import k_regular_graph
        from repro.runner.executor import sharded_full_path_metrics

        graph = k_regular_graph(600, 8, seed=41)
        serial = fast.full_path_metrics(graph)
        for workers in (2, 3):
            assert sharded_full_path_metrics(graph, workers=workers) == serial
        # An uneven explicit shard size changes the split, never the result.
        assert sharded_full_path_metrics(graph, workers=2, shard_size=97) == serial

    def test_sharded_on_partitioned_graph(self):
        pytest.importorskip("numpy")
        import random

        from repro.graphs import fast, metrics
        from repro.graphs.generators import k_regular_graph
        from repro.runner.executor import sharded_full_path_metrics

        graph = k_regular_graph(300, 6, seed=43)
        rng = random.Random(44)
        for victim in rng.sample(graph.nodes(), 120):
            graph.remove_node(victim)
        expected = metrics.full_path_metrics(graph)
        assert fast.full_path_metrics(graph) == expected
        assert sharded_full_path_metrics(graph, workers=2) == expected

    def test_sharded_through_overlay_summary(self, monkeypatch):
        pytest.importorskip("numpy")
        from repro.core.ddsr import DDSROverlay
        from repro.graphs import backend

        overlay = DDSROverlay.k_regular(500, 8, seed=45)
        with backend.using("fast"):
            serial = overlay.path_metric_summary()
            monkeypatch.setenv("REPRO_PATH_WORKERS", "2")
            parallel = overlay.path_metric_summary()
        assert parallel == serial

    def test_path_workers_env_does_not_perturb_scenario_results(self, monkeypatch):
        """REPRO_PATH_WORKERS is an execution knob: same seeds, same values.

        Regression for the original design where ``path_workers`` was a
        scenario *parameter* -- parameters feed unit-seed derivation, so the
        'performance' knob silently reran a different experiment.
        """
        pytest.importorskip("numpy")

        kwargs = dict(
            params={"n": 300, "checkpoints": 2}, trials=1, seed=7, workers=1
        )
        serial = run_scenario("resilience-at-scale", **kwargs)
        monkeypatch.setenv("REPRO_PATH_WORKERS", "2")
        sharded = run_scenario("resilience-at-scale", **kwargs)
        assert sharded.unit_metrics == serial.unit_metrics
        assert sharded.spec.spec_hash() == serial.spec.spec_hash()

    def test_sharded_validates_workers_and_shard_size(self):
        pytest.importorskip("numpy")
        from repro.graphs.generators import k_regular_graph
        from repro.runner.executor import sharded_full_path_metrics

        graph = k_regular_graph(50, 4, seed=46)
        with pytest.raises(ValueError, match="workers"):
            sharded_full_path_metrics(graph, workers=0)
        with pytest.raises(ValueError, match="shard_size"):
            sharded_full_path_metrics(graph, workers=2, shard_size=0)


class TestValidation:
    def test_rejects_bad_worker_count(self):
        spec = ScenarioSpec(name="ablation-repair-policy")
        with pytest.raises(ValueError, match="workers"):
            execute(spec, workers=0)

    def test_rejects_param_grid_overlap(self):
        with pytest.raises(ValueError, match="both params and grid"):
            ScenarioSpec(name="s", params={"n": 1}, grid={"n": [1, 2]})

    def test_rejects_non_primitive_params(self):
        with pytest.raises(TypeError, match="JSON primitive"):
            ScenarioSpec(name="s", params={"policy": object()})

    def test_one_shot_iterable_sizes_accepted_by_fig6(self):
        from repro.analysis.experiments import run_fig6_partition_threshold

        result = run_fig6_partition_threshold(
            sizes=(s for s in (60, 80)), k=6, seed=3, trials_per_fraction=1
        )
        assert result.sizes == [60, 80]
        assert len(result.fractions) == 2

    def test_registered_scenario_runs_through_executor(self):
        @scenario(name="test-exec-inline", defaults={"bias": 10})
        def inline(*, seed: int, bias: int):
            return {"value": float(seed % 1000 + bias)}

        try:
            result = run_scenario("test-exec-inline", trials=2, seed=3)
            assert len(result.unit_metrics) == 2
            # Distinct trials get distinct derived seeds.
            assert result.unit_metrics[0] != result.unit_metrics[1]
        finally:
            unregister("test-exec-inline")
