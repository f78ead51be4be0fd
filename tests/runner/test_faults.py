"""Deterministic fault injection and the recovery paths it drives.

The crash-safety contract, each clause locked by a differential against a
fault-free run:

* the spec grammar fails loudly (``ConfigError``) on typos, and armed
  clauses fire at exact per-site invocation counts (cross-process);
* a killed worker, a hung worker (watchdog), and a transient shm-attach
  failure all recover with aggregates **bit-identical** to a clean run --
  under the default backend, ``REPRO_GRAPH_BACKEND=fast`` and ``python`` alike;
* a task that fails both of its pool attempts -- killed twice, or refused
  a shared-memory attach twice -- finishes through the caller's in-parent
  path, still bit-identical;
* a task raising while its siblings run kills those busy workers at once
  and leaks no ``repro-pool-*`` segment; the next campaign spins up anew;
* an interrupt mid-campaign (the SIGINT path, injected deterministically)
  exits 130, leaves no ``repro-pool-*`` segment in ``/dev/shm``, and the
  journal resumes bit-identically;
* cache read/write faults are absorbed (recompute / in-memory result),
  never fatal.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.errors import ConfigError
from repro.graphs import backend
from repro.obs import telemetry
from repro.runner import faults
from repro.runner.cache import ResultCache
from repro.runner.executor import run_scenario
from repro.runner.pool import PoolTaskError, get_pool, shutdown_pools
from repro.runner.spec import ScenarioSpec

np = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def _clean_plane(pool_segments):
    """Each test starts with no armed faults, cold pools, and no leaks."""
    faults.reset()
    shutdown_pools()
    yield
    shutdown_pools()
    faults.reset()


class TestSpecGrammar:
    def test_defaults_fill_in(self):
        (clause,) = faults.parse_spec("pool.task=kill")
        assert clause.site == "pool.task"
        assert clause.action == "kill"
        assert clause.arg is None
        assert clause.at == 1

    def test_full_clause_and_multiple(self):
        clauses = faults.parse_spec("pool.task=delay(0.2)@3, cache.read=oserror@2")
        assert [c.spec() for c in clauses] == [
            "pool.task=delay(0.2)@3",
            "cache.read=oserror@2",
        ]

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("nope.site=kill", "unknown fault site"),
            ("pool.task=explode", "unknown fault action"),
            ("pool.task=delay(fast)", "non-numeric argument"),
            ("pool.task=kill@0", "invocation >= 1"),
            ("garbage", "invalid fault clause"),
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec, fragment):
        with pytest.raises(ConfigError, match=fragment):
            faults.parse_spec(spec)

    def test_install_rejects_bad_spec_and_arms_good_one(self):
        with pytest.raises(ConfigError):
            faults.install("pool.task=explode")
        plane = faults.install("cache.read=raise@2")
        assert plane is not None
        assert faults.active() is plane
        faults.install("")
        assert faults.active() is None


class TestInvocationCounters:
    def test_fires_exactly_at_the_armed_invocation(self):
        faults.install("cache.read=raise@2")
        faults.fault_point("cache.read")  # invocation 1: silent
        with pytest.raises(faults.InjectedFault):
            faults.fault_point("cache.read")  # invocation 2: fires
        faults.fault_point("cache.read")  # invocation 3: spent

    def test_sites_count_independently(self):
        faults.install("cache.read=raise@1")
        faults.fault_point("cache.write")  # different site: no effect
        with pytest.raises(faults.InjectedFault):
            faults.fault_point("cache.read")

    def test_reinstall_restarts_the_counters(self):
        faults.install("cache.read=raise@1")
        with pytest.raises(faults.InjectedFault):
            faults.fault_point("cache.read")
        faults.install("cache.read=raise@1")
        with pytest.raises(faults.InjectedFault):
            faults.fault_point("cache.read")


class TestCacheFaults:
    def _unit(self):
        spec = ScenarioSpec(name="fig3-walkthrough", params={}, trials=1, seed=5)
        return spec.work_units()[0]

    def test_read_fault_recomputes_and_counts_unreadable(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = self._unit()
        cache.put(unit, "v", {"m": 1.0})
        faults.install("cache.read=oserror@1")
        assert cache.get(unit, "v") is None
        assert cache.unreadable == 1
        # The entry was not evicted; the next (unfaulted) read serves it.
        assert cache.get(unit, "v") == {"m": 1.0}

    def test_write_fault_is_absorbed_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = self._unit()
        faults.install("cache.write=oserror@1")
        with telemetry.collecting() as collector:
            assert cache.put(unit, "v", {"m": 1.0}) is None
        assert cache.unwritable == 1
        assert collector.snapshot()["counters"]["runner.cache.write_failed"] == 1
        # Nothing landed on disk; a later write succeeds.
        assert cache.get(unit, "v") is None
        assert cache.put(unit, "v", {"m": 1.0}) is not None

    def test_campaign_survives_an_unwritable_cache(self, tmp_path):
        faults.install("cache.write=oserror@1")
        result = run_scenario(
            "fig3-walkthrough", trials=2, seed=5, cache=ResultCache(tmp_path)
        )
        clean = run_scenario("fig3-walkthrough", trials=2, seed=5)
        assert result.unit_metrics == clean.unit_metrics


#: Backend policy override -- the satellite matrix.  ``auto`` is ``fast``
#: wherever these tests run (numpy >= 2.0 imports), so ``fast`` stands for
#: it and the ``python`` point keeps the reference engine's recovery path
#: covered.
BACKEND_MATRIX = [
    pytest.param("fast", id="backend-fast"),
    pytest.param("python", id="backend-python"),
]


def _campaign(**overrides):
    """A 6-unit campaign at shard_size=1 so every unit is its own pool task
    (``pool.task`` invocation counts then address individual units)."""
    from repro.runner.executor import execute

    kwargs = dict(workers=1, cache=None)
    kwargs.update(overrides)
    spec = ScenarioSpec(
        name="soap-campaign", params={"n": 30}, grid={}, trials=6, seed=3
    )
    return execute(spec, shard_size=1, **kwargs)


@pytest.fixture
def forced_backend(request):
    """Apply one backend matrix point for the duration of a test."""
    with backend.using(request.param):
        yield


class TestPoolChaosDifferentials:
    def test_killed_worker_recovers_bit_identically(self):
        baseline = _campaign(workers=2)
        shutdown_pools()
        faults.install("pool.task=kill@2")
        with telemetry.collecting() as collector:
            result = _campaign(workers=2)
        assert result.unit_metrics == baseline.unit_metrics
        assert collector.snapshot()["counters"]["runner.pool.respawn"] == 1

    def test_plane_armed_after_spin_up_reaches_the_workers(self):
        """The plane rides in every task's context, so workers forked
        before it was armed fire it all the same."""
        baseline = _campaign(workers=2)
        faults.install("pool.task=kill@1")
        with telemetry.collecting() as collector:
            result = _campaign(workers=2)
        assert result.unit_metrics == baseline.unit_metrics
        assert collector.snapshot()["counters"].get("runner.pool.respawn") == 1

    @pytest.mark.parametrize("forced_backend", BACKEND_MATRIX, indirect=True)
    def test_watchdog_converts_a_hang_into_recovery(
        self, forced_backend, monkeypatch
    ):
        baseline = _campaign(workers=1)
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2")
        faults.install("pool.task=hang@1")
        with telemetry.collecting() as collector:
            result = _campaign(workers=2)
        assert result.unit_metrics == baseline.unit_metrics
        counters = collector.snapshot()["counters"]
        assert counters["runner.watchdog.kill"] >= 1
        assert counters["runner.pool.respawn"] == 1

    def test_transient_shm_attach_failure_retries_once(self):
        graph = _sharded_graph()
        with backend.using("fast"):
            from repro.graphs import fast

            serial = fast.full_path_metrics(graph)
            faults.install("pool.shm_attach=oserror@1")
            from repro.runner.executor import sharded_full_path_metrics

            with telemetry.collecting() as collector:
                sharded = sharded_full_path_metrics(graph, workers=2)
        assert sharded == serial
        assert collector.snapshot()["counters"]["runner.retry"] == 1

    def test_exhausted_transient_retries_surface_as_task_error(self):
        """A shard refused its attach on both attempts finishes in-parent."""
        graph = _sharded_graph()
        # One shard, so the first attach of both attempts is its own.
        faults.install("pool.shm_attach=oserror@1,pool.shm_attach=oserror@2")
        with backend.using("fast"):
            from repro.graphs import fast
            from repro.runner.executor import sharded_full_path_metrics

            serial = fast.full_path_metrics(graph)
            with telemetry.collecting() as collector:
                sharded = sharded_full_path_metrics(
                    graph, workers=2, shard_size=10_000
                )
        assert sharded == serial
        counters = collector.snapshot()["counters"]
        assert counters["runner.retry"] == 2
        assert counters["runner.degraded_serial"] == 1

    @pytest.mark.parametrize("forced_backend", BACKEND_MATRIX, indirect=True)
    def test_unhealthy_pool_degrades_to_serial_bit_identically(
        self, forced_backend
    ):
        baseline = _campaign(workers=1)
        faults.install("pool.task=kill@1,pool.task=kill@2,pool.task=kill@3")
        with telemetry.collecting() as collector:
            result = _campaign(workers=2)
        assert result.unit_metrics == baseline.unit_metrics
        assert collector.snapshot()["counters"]["runner.degraded_serial"] >= 1

    def test_degraded_serial_preserves_path_metric_exactness(self):
        graph = _sharded_graph()
        with backend.using("fast"):
            from repro.graphs import fast
            from repro.runner.executor import sharded_full_path_metrics

            serial = fast.full_path_metrics(graph)
            faults.install(
                "pool.path_task=kill@1,pool.path_task=kill@2,"
                "pool.path_task=kill@3"
            )
            with telemetry.collecting() as collector:
                sharded = sharded_full_path_metrics(graph, workers=2)
        assert sharded == serial
        assert collector.snapshot()["counters"]["runner.degraded_serial"] >= 1

    def test_retry_does_not_perturb_cache_keys(self, tmp_path):
        """A recovered campaign populates the same cache a clean one reads."""
        faults.install("pool.task=kill@2")
        chaotic = _campaign(workers=2, cache=ResultCache(tmp_path))
        shutdown_pools()
        faults.install("")
        replayed = _campaign(workers=2, cache=ResultCache(tmp_path))
        assert replayed.cache_hits == len(replayed.unit_metrics)
        assert replayed.unit_metrics == chaotic.unit_metrics


def _sharded_graph():
    from repro.graphs.generators import k_regular_graph

    return k_regular_graph(80, 4, seed=9)


class TestAbnormalExitKillsBusyWorkers:
    """A task that raises while a sibling runs kills that sibling at once.

    ``Executor.shutdown`` never stops a running call, so a busy sibling left
    alone would hold the interpreter's exit in the pools' ``atexit`` guard.
    The sibling hangs for a bounded 20 s, so a regression fails an
    assertion here instead of stalling the suite.
    """

    def _raise_beside_a_hang(self, site, pooled, serial, pool_segments):
        # The clean run also spins up the pool the failing run lands on.
        assert pooled() == serial
        pids = [p.pid for p in get_pool(2)._executor._processes.values()]
        assert pids
        faults.install(f"{site}=raise@1,{site}=hang(20)@2")
        started = time.monotonic()
        with pytest.raises(PoolTaskError):
            pooled()
        assert time.monotonic() - started < 10
        faults.reset()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert pool_segments() == []
        # A clean rerun in the same process gets a fresh pool.
        assert pooled() == serial

    def test_unit_fan_out(self, pool_segments):
        serial = _campaign(workers=1).unit_metrics
        self._raise_beside_a_hang(
            "pool.task",
            lambda: _campaign(workers=2).unit_metrics,
            serial,
            pool_segments,
        )

    def test_path_fan_out(self, pool_segments):
        from repro.graphs import fast
        from repro.runner.executor import sharded_full_path_metrics

        graph = _sharded_graph()
        with backend.using("fast"):
            self._raise_beside_a_hang(
                "pool.path_task",
                lambda: sharded_full_path_metrics(graph, workers=2),
                fast.full_path_metrics(graph),
                pool_segments,
            )


class TestCounterDirectory:
    """The process that made a plane's counter directory removes it."""

    def test_replace_and_reset_remove_the_directory(self):
        first = faults.install("cache.read=raise@1").state_dir
        second = faults.install("cache.read=raise@1").state_dir
        assert not os.path.exists(first)
        assert os.path.isdir(second)
        faults.reset()
        assert not os.path.exists(second)

    def test_cli_run_leaves_no_directory_behind(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env["TMPDIR"] = str(tmp_path)
        run = subprocess.run(
            [
                sys.executable, "-m", "repro.runner", "run", "soap-campaign",
                "--set", "n=30", "--trials", "2", "--workers", "2", "--quiet",
                "--no-cache", "--inject-faults", "pool.task=delay(0.01)@1",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "fault injected" in run.stderr
        assert list(tmp_path.glob("repro-faults-*")) == []


class TestInterruptTeardown:
    """The SIGINT path, driven deterministically via an injected interrupt."""

    def _run_cli(self, tmp_path, *extra, task_timeout=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env.pop("REPRO_TASK_TIMEOUT", None)
        if task_timeout is not None:
            env["REPRO_TASK_TIMEOUT"] = str(task_timeout)
        return subprocess.run(
            [
                sys.executable, "-m", "repro.runner", "run", "soap-campaign",
                "--set", "n=30", "--trials", "6", "--seed", "3",
                "--workers", "2", "--quiet",
                "--cache-dir", str(tmp_path / "cache"),
                *extra,
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    def test_interrupt_exits_130_without_shm_leaks_then_resumes(

        self, pool_segments, tmp_path

    ):
        journal = tmp_path / "campaign.jsonl"
        interrupted = self._run_cli(
            tmp_path,
            "--journal", str(journal),
            "--inject-faults", "executor.unit=interrupt@3",
        )
        assert interrupted.returncode == 130, interrupted.stderr
        assert "interrupted" in interrupted.stderr
        assert pool_segments() == []
        assert journal.exists()
        # The journal holds the three completed units; --resume replays
        # them and finishes the rest bit-identically to a clean run.
        resumed = self._run_cli(
            tmp_path, "--journal", str(journal), "--resume", "--no-cache",
            "--json", str(tmp_path / "resumed.json"),
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "3 replayed" in resumed.stdout
        clean = self._run_cli(
            tmp_path, "--no-journal", "--no-cache",
            "--json", str(tmp_path / "clean.json"),
        )
        assert clean.returncode == 0, clean.stderr
        resumed_rows = json.loads((tmp_path / "resumed.json").read_text())
        clean_rows = json.loads((tmp_path / "clean.json").read_text())
        assert resumed_rows == clean_rows

    def test_interrupt_under_a_task_timeout_still_exits_130(

        self, pool_segments, tmp_path

    ):
        """A ^C is not a watchdog timeout, deadline armed or not."""
        interrupted = self._run_cli(
            tmp_path,
            "--journal", str(tmp_path / "campaign.jsonl"),
            "--inject-faults", "executor.unit=interrupt@3",
            task_timeout=60,
        )
        assert interrupted.returncode == 130, interrupted.stderr
        assert "interrupted" in interrupted.stderr
        assert pool_segments() == []

    def test_pooled_bookkeeping_hang_is_bounded_then_resumes(

        self, pool_segments, tmp_path

    ):
        """At ``workers=2`` the parent merges each shard's units (cache put,
        journal append, the ``executor.unit`` fault site) from the pool's
        result loop; a hang there must hit the parent deadline too."""
        journal = tmp_path / "campaign.jsonl"
        started = time.monotonic()
        hung = self._run_cli(
            tmp_path,
            "--journal", str(journal), "--no-cache",
            "--inject-faults", "executor.unit=hang(60)@1",
            task_timeout=2,
        )
        elapsed = time.monotonic() - started
        assert hung.returncode == 4, hung.stderr
        assert "no progress within 2s" in hung.stderr
        assert elapsed < 2 + 15, f"pooled bookkeeping hang not bounded: {elapsed:.1f}s"
        assert pool_segments() == []
        resumed = self._run_cli(
            tmp_path, "--journal", str(journal), "--resume", "--no-cache",
            "--json", str(tmp_path / "resumed.json"),
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "replayed" in resumed.stdout
        clean = self._run_cli(
            tmp_path, "--no-journal", "--no-cache",
            "--json", str(tmp_path / "clean.json"),
        )
        assert clean.returncode == 0, clean.stderr
        resumed_rows = json.loads((tmp_path / "resumed.json").read_text())
        clean_rows = json.loads((tmp_path / "clean.json").read_text())
        assert resumed_rows == clean_rows
