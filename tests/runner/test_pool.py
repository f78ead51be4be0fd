"""Pool-lifecycle tests: persistence, shm publication, and failure paths.

The persistent pool's hard contracts, each locked by a differential or a
failure injection:

* consecutive campaigns and checkpoints reuse one executor (a single
  ``runner.pool_spinup`` span) and one shared-memory publication per graph
  (attach once, then re-publish each new snapshot in full);
* pooled results are bit-identical to serial, including across graph
  mutations between checkpoints;
* a killed worker is respawned exactly once and only unmerged shards are
  retried; a second kill or a raising task surfaces with the failing
  shard's unit context;
* no ``/dev/shm`` segment with the pool prefix survives a close, a kill,
  or the published graph's death.
"""

from __future__ import annotations

import gc
import glob
import os
import signal

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import backend, fast
from repro.graphs.generators import k_regular_graph
from repro.obs import telemetry
from repro.runner import pool as pool_mod
from repro.runner.executor import run_scenario, sharded_full_path_metrics
from repro.runner.pool import (
    SHM_PREFIX,
    PoolError,
    PoolTaskError,
    WorkerPool,
    get_pool,
    shutdown_pools,
)
from repro.runner.registry import scenario, unregister


def _pool_segments():
    """Live ``/dev/shm`` segments created by the pool (leak audit)."""
    return glob.glob(f"/dev/shm/{SHM_PREFIX}*")


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test starts from cold pools and must leak no segments."""
    shutdown_pools()
    yield
    shutdown_pools()
    gc.collect()
    assert _pool_segments() == []


class TestPoolLifecycle:
    def test_get_pool_is_persistent_and_recreated_after_close(self):
        first = get_pool(2)
        assert get_pool(2) is first
        first.close()
        second = get_pool(2)
        assert second is not first
        assert not second.closed

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(PoolError, match="closed"):
            pool.publish_csr(k_regular_graph(20, 4, seed=0), object())

    def test_one_spinup_span_across_campaigns_and_checkpoints(self):
        """Two unit campaigns and two path campaigns: one executor spin-up."""
        graph = k_regular_graph(300, 6, seed=7)
        kwargs = dict(params={"n": 60, "hours": 3}, trials=2, workers=2)
        with telemetry.collecting() as collector:
            run_scenario("soap-under-churn", seed=0, **kwargs)
            run_scenario("soap-under-churn", seed=1, **kwargs)
            with backend.using("fast"):
                sharded_full_path_metrics(graph, workers=2)
                graph.remove_node(0)
                sharded_full_path_metrics(graph, workers=2)
        snap = collector.snapshot()
        assert snap["spans"]["runner.pool_spinup"]["count"] == 1


class TestSharedMemoryPublication:
    CHECKPOINTS = ((), (3, 77), (141, 200, 250))

    def test_checkpoints_republish_full_snapshots(self):
        """Each new snapshot is re-published; pooled equals serial throughout."""
        graph = k_regular_graph(500, 6, seed=11)
        replica = k_regular_graph(500, 6, seed=11)
        with telemetry.collecting() as collector:
            with backend.using("fast"):
                for victims in self.CHECKPOINTS:
                    for victim in victims:
                        graph.remove_node(victim)
                        replica.remove_node(victim)
                    pooled = sharded_full_path_metrics(graph, workers=2)
                    # An unchanged snapshot reuses the live publication.
                    assert sharded_full_path_metrics(graph, workers=2) == pooled
                    assert pooled == fast.full_path_metrics(replica)
        counters = collector.snapshot()["counters"]
        assert counters["runner.pool.publish_attach"] == 1
        assert counters["runner.pool.publish_reattach"] == len(self.CHECKPOINTS) - 1
        assert counters["runner.pool.bytes_shipped"] > 0

    def test_republishing_leaves_only_live_snapshot_segments(self):
        """Old segments are unlinked at re-publish; none survive shutdown."""
        graph = k_regular_graph(400, 6, seed=13)
        with backend.using("fast"):
            for victims in self.CHECKPOINTS:
                for victim in victims:
                    graph.remove_node(victim)
                sharded_full_path_metrics(graph, workers=2)
                live = get_pool(2)._pubs[id(graph)].segments
                assert sorted(_pool_segments()) == sorted(
                    f"/dev/shm/{shm.name}" for shm in live
                )
                assert len(live) == 2
        shutdown_pools()
        assert _pool_segments() == []

    def test_segments_released_when_published_graph_dies(self):
        """The weakref finalizer unlinks /dev/shm before the pool closes."""
        graph = k_regular_graph(300, 6, seed=17)
        with backend.using("fast"):
            sharded_full_path_metrics(graph, workers=2)
        assert _pool_segments() != []
        del graph
        gc.collect()
        assert _pool_segments() == []

    def test_close_unlinks_segments_while_graph_still_alive(self):
        graph = k_regular_graph(300, 6, seed=19)
        with backend.using("fast"):
            sharded_full_path_metrics(graph, workers=2)
        assert _pool_segments() != []
        shutdown_pools()
        assert _pool_segments() == []


def _register_kamikaze(name: str, kills: str = "once"):
    """A scenario whose worker SIGKILLs itself (``once`` or ``always``)."""

    @scenario(name=name, defaults={"marker": "", "bias": 0})
    def kamikaze(*, seed: int, marker: str, bias: int):
        if kills == "always" or not os.path.exists(marker):
            if kills == "once":
                with open(marker, "w", encoding="utf-8"):
                    pass
            os.kill(os.getpid(), signal.SIGKILL)
        return {"value": float(seed % 1000 + bias)}

    return kamikaze


class TestFailurePaths:
    def test_killed_worker_respawns_and_retries_only_unfinished(self, tmp_path):
        """First attempt dies mid-campaign; the respawned pool completes it."""
        _register_kamikaze("test-pool-kamikaze", kills="once")
        try:
            marker = str(tmp_path / "survived")
            with telemetry.collecting() as collector:
                result = run_scenario(
                    "test-pool-kamikaze",
                    params={"marker": marker, "bias": 7},
                    trials=2,
                    seed=3,
                    workers=2,
                )
            serial = run_scenario(
                "test-pool-kamikaze",
                params={"marker": marker, "bias": 7},
                trials=2,
                seed=3,
            )
            assert result.unit_metrics == serial.unit_metrics
            assert collector.snapshot()["counters"]["runner.pool.respawn"] == 1
        finally:
            unregister("test-pool-kamikaze")

    def test_repeatedly_killed_worker_raises_pool_error_with_context(
        self, tmp_path, monkeypatch
    ):
        # Degraded-serial would run the kamikaze *in-parent* (killing the
        # test process); disable it to reach the fail-fast PoolError path.
        monkeypatch.setenv("REPRO_DEGRADED_SERIAL", "0")
        _register_kamikaze("test-pool-kamikaze-always", kills="always")
        try:
            with pytest.raises(PoolError, match="unfinished"):
                run_scenario(
                    "test-pool-kamikaze-always",
                    params={"marker": str(tmp_path / "never")},
                    trials=2,
                    seed=3,
                    workers=2,
                )
        finally:
            unregister("test-pool-kamikaze-always")
        # The broken executor left nothing behind.
        shutdown_pools()
        assert _pool_segments() == []

    def test_raising_task_surfaces_unit_context_and_cause(self):
        @scenario(name="test-pool-raises", defaults={"bias": 0})
        def raises(*, seed: int, bias: int):
            raise ValueError(f"boom seed={seed}")

        try:
            with pytest.raises(PoolTaskError) as excinfo:
                run_scenario(
                    "test-pool-raises",
                    params={"bias": 2},
                    trials=2,
                    seed=5,
                    workers=2,
                )
            message = str(excinfo.value)
            assert "test-pool-raises" in message
            assert "(index, params, seed)" in message
            assert "'bias': 2" in message
            assert isinstance(excinfo.value.__cause__, ValueError)
        finally:
            unregister("test-pool-raises")

    def test_killed_idle_worker_does_not_poison_path_campaign(self):
        """Kill a pool worker between checkpoints: respawn, same numbers."""
        graph = k_regular_graph(400, 6, seed=23)
        with backend.using("fast"):
            serial = fast.full_path_metrics(graph)
            first = sharded_full_path_metrics(graph, workers=2)
            assert first == serial
            pool = get_pool(2)
            victim = next(iter(pool._executor._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            second = sharded_full_path_metrics(graph, workers=2)
        assert second == serial
        shutdown_pools()
        assert _pool_segments() == []


class TestCheckpointedTakedownDifferential:
    def test_gradual_takedown_pooled_checkpoints_bit_identical(self):
        """GradualTakedown(path_workers=2) == path_workers=1, every checkpoint."""
        from repro.adversary.takedown import GradualTakedown
        from repro.core.ddsr import DDSROverlay
        import random

        def run(path_workers: int):
            overlay = DDSROverlay.k_regular(150, 8, seed=1)
            strategy = GradualTakedown(
                fraction=0.2,
                checkpoints=3,
                rng=random.Random(4),
                path_metrics=True,
                metric_sample=None,
                path_workers=path_workers,
            )
            with backend.using("fast"):
                return strategy.execute_with_checkpoints(overlay)

        pooled = run(2)
        serial = run(1)
        assert len(pooled) == len(serial) >= 3
        for lit, dark in zip(pooled, serial):
            assert lit.path_metrics == dark.path_metrics
            assert lit.connected_components == dark.connected_components
            assert lit.largest_component_fraction == dark.largest_component_fraction
