"""Pool-lifecycle tests: persistence, shm publication, and failure paths.

The persistent pool's hard contracts, each locked by a differential or a
failure injection:

* consecutive campaigns and checkpoints reuse one executor (a single
  ``runner.pool_spinup`` span) and one shared-memory publication per pool
  (attach once, then re-publish each new snapshot in full); each worker
  holds one mirror of it;
* pooled results are bit-identical to serial, including across graph
  mutations between checkpoints;
* a killed worker is respawned exactly once and only unmerged shards are
  retried; shards killed on both attempts finish in-parent, and a raising
  task surfaces with the failing shard's unit context;
* an exception leaving a round with tasks in flight -- a failing merge,
  ^C, the parent deadline -- kills the busy workers before it propagates;
  a clean round, or one that fails with nothing in flight, keeps them;
* ``/dev/shm`` holds at most one snapshot's segments per pool, released at
  the next publish, and none survives a close or a kill.
"""

from __future__ import annotations

import gc
import os
import signal
import time

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import backend, fast
from repro.graphs.generators import k_regular_graph
from repro.obs import telemetry
from repro.runner import pool as pool_mod
from repro.runner.executor import run_scenario, sharded_full_path_metrics
from repro.runner.pool import (
    PoolError,
    PoolTaskError,
    WorkerPool,
    get_pool,
    shutdown_pools,
)
from repro.runner.registry import scenario, unregister


@pytest.fixture(autouse=True)
def _fresh_pools(pool_segments):
    """Each test starts from cold pools and must leak no segments."""
    shutdown_pools()
    yield
    shutdown_pools()


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
            pool.publish_csr(object())

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

    def test_terminate_joins_the_management_thread(self, pool_segments):
        """``terminate()`` returns after the executor's management thread ends.

        Left running, its teardown races ``concurrent.futures``' exit hook
        for the wakeup pipe (``OSError: [Errno 9]`` printed at exit).
        """
        pool = get_pool(2)
        with backend.using("fast"):
            sharded_full_path_metrics(k_regular_graph(300, 6, seed=7), workers=2)
        manager = pool._executor._executor_manager_thread
        assert manager.is_alive()
        pool.terminate()
        assert not manager.is_alive()
        assert pool_segments() == []


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

    def test_republishing_leaves_only_live_snapshot_segments(self, pool_segments):
        """Old segments are unlinked at re-publish; none survive shutdown."""
        graph = k_regular_graph(400, 6, seed=13)
        with backend.using("fast"):
            for victims in self.CHECKPOINTS:
                for victim in victims:
                    graph.remove_node(victim)
                sharded_full_path_metrics(graph, workers=2)
                live = get_pool(2)._segments
                assert sorted(pool_segments()) == sorted(
                    f"/dev/shm/{shm.name}" for shm in live
                )
                assert len(live) == 2
        shutdown_pools()
        assert pool_segments() == []

    def test_segments_released_at_next_publish_never_more_than_one(
        self, pool_segments
    ):
        """A dead graph's segments live until the next publish or the close:
        never more than one publication's worth at any time."""
        with backend.using("fast"):
            for seed in (17, 18, 19):
                graph = k_regular_graph(300, 6, seed=seed)
                sharded_full_path_metrics(graph, workers=2)
                del graph
                gc.collect()
                assert len(pool_segments()) == 2
        shutdown_pools()
        assert pool_segments() == []

    def test_publishing_a_new_snapshot_replaces_the_old(self, pool_segments):
        """B after A leaves only B's two segments; republishing B ships
        nothing; ``publish_attach`` counts the pool's first publication."""
        first = fast.build_csr(k_regular_graph(200, 6, seed=1))
        second = fast.build_csr(k_regular_graph(200, 6, seed=2))
        pool = WorkerPool(2)
        with telemetry.collecting() as collector:
            arrays = pool.publish_csr(first)
            names_a = {f"/dev/shm/{meta['name']}" for meta in arrays.values()}
            assert sorted(pool_segments()) == sorted(names_a)
            arrays = pool.publish_csr(second)
            names_b = {f"/dev/shm/{meta['name']}" for meta in arrays.values()}
            assert not names_a & names_b
            assert sorted(pool_segments()) == sorted(names_b)
            shipped = collector.snapshot()["counters"]["runner.pool.bytes_shipped"]
            assert pool.publish_csr(second) is arrays
        counters = collector.snapshot()["counters"]
        assert counters["runner.pool.bytes_shipped"] == shipped
        assert counters["runner.pool.publish_attach"] == 1
        assert counters["runner.pool.publish_reattach"] == 1
        pool.close()
        assert pool_segments() == []

    def test_worker_mirror_holds_one_snapshot(self, pool_segments, monkeypatch):
        """``_mirror_of`` keeps one mirror and releases it for a new segment."""
        from multiprocessing import resource_tracker

        # The mirror attaches in this process, which also created (and
        # tracks) the segments: keep the tracker's registration intact.
        monkeypatch.setattr(resource_tracker, "unregister", lambda *args: None)
        monkeypatch.setattr(pool_mod, "_mirror", None)
        pool = WorkerPool(2)
        first = fast.build_csr(k_regular_graph(200, 6, seed=1))
        second = fast.build_csr(k_regular_graph(200, 6, seed=2))
        with telemetry.collecting() as collector:
            arrays = pool.publish_csr(first)
            mirror = pool_mod._mirror_of(arrays, collector)
            assert pool_mod._mirror_of(arrays, collector) is mirror
            assert mirror.indices.tolist() == first.indices.tolist()
            old_segments = pool_mod._mirror[1]
            del mirror
            arrays = pool.publish_csr(second)
            mirror = pool_mod._mirror_of(arrays, collector)
        assert mirror.indices.tolist() == second.indices.tolist()
        assert pool_mod._mirror[0] == arrays["indices"]["name"]
        assert all(shm.buf is None for shm in old_segments)
        counters = collector.snapshot()["counters"]
        assert counters["runner.pool.shm_attach"] == 1
        assert counters["runner.pool.shm_reattach"] == 1
        del mirror
        _, segments, _ = pool_mod._mirror
        pool_mod._mirror = None
        pool_mod._close_segments(segments)
        assert all(shm.buf is None for shm in segments)
        pool.close()

    def test_close_unlinks_segments_while_graph_still_alive(self, pool_segments):
        graph = k_regular_graph(300, 6, seed=19)
        with backend.using("fast"):
            sharded_full_path_metrics(graph, workers=2)
        assert pool_segments() != []
        shutdown_pools()
        assert pool_segments() == []

    def test_segment_names_carry_the_pid_within_31_characters(self):
        pool = WorkerPool(2)
        arrays = pool.publish_csr(fast.build_csr(k_regular_graph(50, 4, seed=3)))
        names = [meta["name"] for meta in arrays.values()]
        pool.close()
        prefix = pool_mod.segment_prefix()
        assert prefix == f"repro-pool-{os.getpid()}-"
        assert all(name.startswith(prefix) for name in names)
        # The widest Linux pid (pid_max is at most 2**22) still fits.
        assert all(len(f"repro-pool-{2**22}-" + name[len(prefix):]) <= 31 for name in names)

    def test_another_process_segments_do_not_count(self, pool_segments):
        """A segment another campaign creates mid-test is not this test's leak."""
        from multiprocessing import shared_memory

        foreign = shared_memory.SharedMemory(
            create=True, size=8, name=f"repro-pool-{os.getpid() + 1}-" + "a" * 12
        )
        try:
            assert pool_segments() == []
        finally:
            foreign.close()
            foreign.unlink()


def _register_kamikaze(name: str, kills: str = "once"):
    """A scenario whose pool worker SIGKILLs itself (``once`` or ``always``).

    It never kills the test process itself, where units run in-parent.
    """
    parent = os.getpid()

    @scenario(name=name, defaults={"marker": "", "bias": 0})
    def kamikaze(*, seed: int, marker: str, bias: int):
        in_worker = os.getpid() != parent
        if in_worker and (kills == "always" or not os.path.exists(marker)):
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

        self, pool_segments, tmp_path

    ):
        """Shards killed on both attempts finish in-parent, equal to serial."""
        _register_kamikaze("test-pool-kamikaze-always", kills="always")
        kwargs = dict(params={"marker": str(tmp_path / "never")}, trials=2, seed=3)
        try:
            with telemetry.collecting() as collector:
                result = run_scenario(
                    "test-pool-kamikaze-always", workers=2, **kwargs
                )
            serial = run_scenario("test-pool-kamikaze-always", **kwargs)
        finally:
            unregister("test-pool-kamikaze-always")
        assert result.unit_metrics == serial.unit_metrics
        assert collector.snapshot()["counters"]["runner.degraded_serial"] >= 1
        # The broken executor left nothing behind.
        shutdown_pools()
        assert pool_segments() == []

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

    def test_killed_idle_worker_does_not_poison_path_campaign(self, pool_segments):
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
        assert pool_segments() == []


def _pids(pool: WorkerPool):
    return [process.pid for process in pool._executor._processes.values()]


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestAbnormalRoundExit:
    """``_run_tasks`` kills its pool's workers iff it leaves with tasks in flight.

    The tasks are ``time.sleep`` calls: key 0 lands at once and its merge
    fails, while key 1 keeps a worker busy for a bounded 20 s.
    """

    def _warm(self) -> WorkerPool:
        pool = get_pool(2)
        assert pool._run_tasks(time.sleep, {0: (0,), 1: (0,)}, lambda k, r: None, str) == []
        return pool

    def _fail_beside_a_sleeper(self, pool: WorkerPool, error: BaseException):
        def on_done(key, result):
            raise error

        started = time.monotonic()
        with pytest.raises(type(error)):
            pool._run_tasks(time.sleep, {0: (0,), 1: (20,)}, on_done, str)
        return time.monotonic() - started

    @pytest.mark.parametrize("error", [KeyboardInterrupt(), RuntimeError("merge failed")])
    def test_failing_merge_kills_busy_workers(self, error, pool_segments):
        pool = self._warm()
        pids = _pids(pool)
        assert pids
        assert self._fail_beside_a_sleeper(pool, error) < 10
        assert all(_gone(pid) for pid in pids)
        assert pool_segments() == []
        # The killed pool is closed; the next round gets a fresh one.
        assert pool.closed
        fresh = self._warm()
        assert fresh is not pool
        assert not set(_pids(fresh)) & set(pids)

    def test_parent_deadline_in_a_merge_kills_busy_workers(self, monkeypatch):
        pool = self._warm()
        pids = _pids(pool)
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1")

        def stall(key, result):
            time.sleep(5)

        started = time.monotonic()
        with pytest.raises(pool_mod.ParentTimeoutError, match="REPRO_TASK_TIMEOUT"):
            pool._run_tasks(time.sleep, {0: (0,), 1: (20,)}, stall, str)
        assert time.monotonic() - started < 10
        assert all(_gone(pid) for pid in pids)

    def test_failure_with_nothing_in_flight_keeps_the_workers(self):
        pool = self._warm()
        pids = _pids(pool)

        def on_done(key, result):
            raise RuntimeError("merge failed")

        with pytest.raises(RuntimeError, match="merge failed"):
            pool._run_tasks(time.sleep, {0: (0,)}, on_done, str)
        assert _pids(pool) == pids
        assert not any(_gone(pid) for pid in pids)

    def test_clean_rounds_reuse_the_same_workers(self):
        pool = self._warm()
        pids = _pids(pool)
        assert self._warm() is pool
        assert _pids(pool) == pids


class TestCheckpointedTakedownDifferential:
    def test_gradual_takedown_pooled_checkpoints_bit_identical(self, monkeypatch):
        """REPRO_PATH_WORKERS=2 == unset, every checkpoint of a takedown."""
        from repro.adversary.takedown import GradualTakedown
        from repro.core.ddsr import DDSROverlay
        import random

        def run(path_workers: int):
            monkeypatch.setenv("REPRO_PATH_WORKERS", str(path_workers))
            overlay = DDSROverlay.k_regular(150, 8, seed=1)
            strategy = GradualTakedown(
                fraction=0.2,
                checkpoints=3,
                rng=random.Random(4),
                path_metrics=True,
                metric_sample=None,
            )
            with backend.using("fast"), telemetry.collecting() as collector:
                results = strategy.execute_with_checkpoints(overlay)
            return results, collector.snapshot()["counters"]

        pooled, pooled_counters = run(2)
        serial, serial_counters = run(1)
        # The env var alone put the exact checkpoints on the pool.
        assert pooled_counters["runner.pool.publish_attach"] == 1
        assert "runner.pool.publish_attach" not in serial_counters
        assert len(pooled) == len(serial) >= 3
        for lit, dark in zip(pooled, serial):
            assert lit.path_metrics == dark.path_metrics
            assert lit.connected_components == dark.connected_components
            assert lit.largest_component_fraction == dark.largest_component_fraction
