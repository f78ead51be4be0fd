"""Sub-unit crash safety: checkpoint journaling, parent watchdog, pressure.

The PR 9 contract, each clause locked by a differential against a clean run:

* a journaled campaign interrupted *inside* a multi-checkpoint exact
  path-metric unit (injected fault, SIGKILL) resumes from its first
  incomplete checkpoint shard -- the journal's ``ckpt`` records replay
  (``runner.journal.ckpt_replayed``) instead of recomputing, and the final
  aggregates are **bit-identical** to an uninterrupted run;
* an in-parent ``hang`` -- in the serial unit loop, its per-unit
  bookkeeping, or units the pool handed back after they used up their
  attempts -- is bounded by the parent watchdog (``REPRO_TASK_TIMEOUT``):
  :class:`~repro.runner.pool.ParentTimeoutError` within the deadline, the
  journal left resumable;
* filesystem pressure (``ENOSPC`` on journal appends, oversized checkpoint
  states) degrades journaling -- warned and counted -- without perturbing
  the campaign's results;
* corrupt or re-partitioned checkpoint state recomputes, never replays
  wrongly.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.graphs import backend
from repro.obs import telemetry
from repro.runner import faults
from repro.runner import journal as journal_mod
from repro.runner.executor import run_scenario
from repro.runner.journal import CampaignJournal
from repro.runner.pool import ParentTimeoutError, shutdown_pools
from repro.runner.spec import ScenarioSpec

np = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def _clean_plane(pool_segments, monkeypatch):
    """Each test starts with no armed faults, cold pools, and no leaks."""
    monkeypatch.delenv("REPRO_PATH_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    faults.reset()
    shutdown_pools()
    yield
    shutdown_pools()
    faults.reset()


#: A 2-unit campaign whose every unit runs 4 exact path-metric checkpoints
#: (initial + 3): enough sub-unit structure for mid-unit interruption.
PARAMS = {"n": 300, "checkpoints": 3}

#: Backend policy override -- the satellite matrix.  ``auto`` is ``fast``
#: wherever these tests run (numpy >= 2.0 imports), so ``fast`` stands for it.
BACKEND_MATRIX = [
    pytest.param("fast", id="backend-fast"),
]


@pytest.fixture
def forced_backend(request):
    with backend.using(request.param):
        yield


def _run(params=PARAMS, **kwargs):
    return run_scenario("resilience-at-scale", params=params, trials=2, seed=7, **kwargs)


class TestMidUnitResume:
    @pytest.mark.parametrize("forced_backend", BACKEND_MATRIX, indirect=True)
    def test_fault_mid_unit_resumes_bit_identically(self, forced_backend, tmp_path):
        clean = _run()
        path = tmp_path / "j.jsonl"
        # Units carry 4 checkpoints each (initial + checkpoints=3); the 3rd
        # entry is inside unit 0, leaving two journaled shards behind it.
        faults.install("executor.checkpoint=raise@3")
        with pytest.raises(faults.InjectedFault):
            _run(journal=path)
        faults.install("")
        _, units, checkpoints, complete, _ = CampaignJournal(path)._read()
        assert not complete
        # The interrupted unit's completed checkpoints are on disk.
        assert checkpoints, "no sub-unit checkpoint records journaled"
        with telemetry.collecting() as collector:
            resumed = _run(journal=path, resume=True)
        assert resumed.unit_metrics == clean.unit_metrics
        # Proof of re-entry: journaled shards replayed instead of recomputed.
        assert resumed.checkpoints_replayed > 0
        counters = collector.snapshot()["counters"]
        assert counters["runner.journal.ckpt_replayed"] == resumed.checkpoints_replayed

    def test_journal_with_seq_and_spans_records_resumes(self, tmp_path):
        """Checkpoint records in the former format -- with the per-unit
        ``seq`` position and the ``spans`` count -- replay by content key."""
        path = tmp_path / "j.jsonl"
        with backend.using("fast"):
            clean = _run()
            faults.install("executor.checkpoint=raise@3")
            with pytest.raises(faults.InjectedFault):
                _run(journal=path)
            faults.install("")
            lines = path.read_text().splitlines()
            seq = 0
            for index, line in enumerate(lines):
                record = json.loads(line)
                if "ckpt" in record:
                    # workers=1: one span per checkpoint, numbered in order.
                    record.update(seq=seq, spans=1)
                    seq += 1
                    lines[index] = json.dumps(record, sort_keys=True)
            assert seq == 2
            path.write_text("\n".join(lines) + "\n")
            resumed = _run(journal=path, resume=True)
        assert resumed.unit_metrics == clean.unit_metrics
        assert resumed.checkpoints_replayed == 2

    def test_python_backend_resumes_at_unit_granularity(self, tmp_path):
        """The reference engine has no sharded accumulators to journal: an
        interrupted campaign journals whole units only, and the resume
        replays them and stays bit-identical."""
        path = tmp_path / "j.jsonl"
        with backend.using("python"):
            clean = _run()
            faults.install("executor.unit=raise@1")  # after unit 0 is recorded
            with pytest.raises(faults.InjectedFault):
                _run(journal=path)
            faults.install("")
            _, units, checkpoints, complete, _ = CampaignJournal(path)._read()
            assert not complete and 0 in units
            assert checkpoints == {}
            resumed = _run(journal=path, resume=True)
        assert resumed.unit_metrics == clean.unit_metrics
        assert resumed.replayed == 1
        assert resumed.checkpoints_replayed == 0

    def test_completed_units_keep_unit_granularity_on_resume(self, tmp_path):
        """Checkpoint records of a *finished* unit are dead weight: the unit
        replays verbatim, its shards never re-enter the scope."""
        path = tmp_path / "j.jsonl"
        with backend.using("fast"):
            clean = _run()
            faults.install("executor.checkpoint=raise@6")  # inside unit 1
            with pytest.raises(faults.InjectedFault):
                _run(journal=path)
            faults.install("")
            _, units, _, _, _ = CampaignJournal(path)._read()
            assert 0 in units  # unit 0 completed before the fault
            resumed = _run(journal=path, resume=True)
        assert resumed.unit_metrics == clean.unit_metrics
        assert resumed.replayed == 1

    def test_corrupt_checkpoint_state_recomputes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with backend.using("fast"):
            clean = _run()
            faults.install("executor.checkpoint=raise@4")
            with pytest.raises(faults.InjectedFault):
                _run(journal=path)
            faults.install("")
            # Corrupt one journaled state payload in place.
            lines = path.read_text().splitlines()
            for index, line in enumerate(lines):
                record = json.loads(line)
                if "ckpt" in record:
                    record["state"]["ecc"] = "!!! not base64 !!!"
                    lines[index] = json.dumps(record)
                    break
            path.write_text("\n".join(lines) + "\n")
            with telemetry.collecting() as collector:
                resumed = _run(journal=path, resume=True)
        assert resumed.unit_metrics == clean.unit_metrics
        assert collector.snapshot()["counters"]["runner.journal.ckpt_invalid"] >= 1

    def test_repartitioned_resume_recomputes_but_stays_exact(
        self, tmp_path, monkeypatch
    ):
        """Changing REPRO_PATH_WORKERS between crash and resume changes the
        shard spans; saved spans no longer match and recompute -- exactness
        is never sacrificed to reuse."""
        path = tmp_path / "j.jsonl"
        with backend.using("fast"):
            clean = _run()
            monkeypatch.setenv("REPRO_PATH_WORKERS", "2")
            faults.install("executor.checkpoint=raise@4")
            with pytest.raises(faults.InjectedFault):
                _run(journal=path)
            faults.install("")
            shutdown_pools()
            monkeypatch.setenv("REPRO_PATH_WORKERS", "1")
            resumed = _run(journal=path, resume=True)
        assert resumed.unit_metrics == clean.unit_metrics
        assert resumed.checkpoints_replayed == 0

    def test_pooled_path_workers_journal_and_replay(self, tmp_path, monkeypatch):
        """The pool fan-out journals per-shard too (run_path_shards hands the
        shard index back), and a same-partition resume replays them."""
        path = tmp_path / "j.jsonl"
        monkeypatch.setenv("REPRO_PATH_WORKERS", "2")
        with backend.using("fast"):
            clean = _run()
            shutdown_pools()
            faults.install("executor.checkpoint=raise@4")
            with pytest.raises(faults.InjectedFault):
                _run(journal=path)
            faults.install("")
            shutdown_pools()
            _, _, checkpoints, _, _ = CampaignJournal(path)._read()
            spans = {
                span
                for by_key in checkpoints.values()
                for saved in by_key.values()
                for span in saved
            }
            assert len(spans) > 1, "pool fan-out should journal per-shard spans"
            resumed = _run(journal=path, resume=True)
        assert resumed.unit_metrics == clean.unit_metrics
        assert resumed.checkpoints_replayed > 0


class TestAccumulatorPayload:
    """The journaled ``(ecc, totals)`` encoding across zlib levels."""

    @pytest.fixture
    def shard(self):
        from repro.graphs import fast
        from repro.graphs.generators import k_regular_graph

        csr = fast.build_csr(k_regular_graph(300, 6, seed=3))
        return fast.accumulate_path_shard(csr, np.arange(0, 300, 7))

    def test_level_six_payload_still_decodes(self, shard):
        # Journals written before the encoder moved to level 1 hold level 6.
        from repro.graphs import fast

        state = {
            name: base64.b64encode(
                zlib.compress(np.ascontiguousarray(array, dtype="<i8").tobytes(), 6)
            ).decode("ascii")
            for name, array in zip(("ecc", "totals"), shard)
        }
        ecc, totals = fast.deserialize_accumulators(state, shard[0].size)
        assert ecc.tolist() == shard[0].tolist()
        assert totals.tolist() == shard[1].tolist()

    def test_encoder_writes_level_one_and_round_trips(self, shard):
        from repro.graphs import fast

        state = fast.serialize_accumulators(*shard)
        for payload in state.values():
            # FLEVEL, the top two bits of the zlib header's second byte,
            # is 0 only for level 1 ("fastest").
            assert base64.b64decode(payload)[1] >> 6 == 0
        ecc, totals = fast.deserialize_accumulators(state, shard[0].size)
        assert ecc.tolist() == shard[0].tolist()
        assert totals.tolist() == shard[1].tolist()


class TestParentWatchdog:
    def test_hang_in_serial_unit_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2")
        path = tmp_path / "j.jsonl"
        with backend.using("fast"):
            clean = _run()
            faults.install("executor.checkpoint=hang@6")
            started = time.monotonic()
            with telemetry.collecting() as collector:
                with pytest.raises(ParentTimeoutError, match="REPRO_TASK_TIMEOUT"):
                    _run(journal=path)
            elapsed = time.monotonic() - started
            faults.install("")
            assert elapsed < 60, f"hang not bounded: {elapsed:.1f}s"
            counters = collector.snapshot()["counters"]
            assert counters["runner.watchdog.parent_timeout"] == 1
            # The journal survived the timeout and resumes bit-identically.
            monkeypatch.delenv("REPRO_TASK_TIMEOUT")
            resumed = _run(journal=path, resume=True)
        assert resumed.unit_metrics == clean.unit_metrics
        assert resumed.replayed >= 1 or resumed.checkpoints_replayed >= 1

    def test_hang_in_serial_bookkeeping_is_bounded(self, tmp_path, monkeypatch):
        """The deadline also covers a unit's bookkeeping at ``workers=1``
        (cache put, journal append, the ``executor.unit`` site)."""
        spec = ScenarioSpec(
            name="soap-campaign", params={"n": 30}, grid={}, trials=6, seed=3
        )
        from repro.runner.executor import execute

        baseline = execute(spec)
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2")
        path = tmp_path / "j.jsonl"
        faults.install("executor.unit=hang(30)@1")
        started = time.monotonic()
        with telemetry.collecting() as collector:
            with pytest.raises(ParentTimeoutError, match="REPRO_TASK_TIMEOUT"):
                execute(spec, journal=path)
        elapsed = time.monotonic() - started
        faults.install("")
        assert elapsed < 20, f"bookkeeping hang not bounded: {elapsed:.1f}s"
        counters = collector.snapshot()["counters"]
        assert counters["runner.watchdog.parent_timeout"] == 1
        # The hang fires after the first unit's journal record.
        _, units, _, complete, _ = CampaignJournal(path)._read()
        assert len(units) == 1 and not complete
        monkeypatch.delenv("REPRO_TASK_TIMEOUT")
        resumed = execute(spec, journal=path, resume=True)
        assert resumed.unit_metrics == baseline.unit_metrics
        assert resumed.replayed == 1

    def test_hang_in_degraded_drain_is_bounded(self, tmp_path, monkeypatch):
        """Kill the pool into the degraded-serial drain, then hang the parent
        mid-drain: the drain's own deadline fires (the PR 8 follow-on)."""
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2")
        path = tmp_path / "j.jsonl"
        spec = ScenarioSpec(
            name="soap-campaign", params={"n": 30}, grid={}, trials=6, seed=3
        )
        from repro.runner.executor import execute

        baseline = execute(spec, shard_size=1)
        shutdown_pools()
        # Three kills guarantee degradation: a generation's 2 workers can
        # consume at most 2 kill clauses before the broken pool is observed
        # (one respawn), so the respawned generation always eats another
        # kill and exhausts the budget.  The drain then owns whatever is
        # left -- including the last unit, so finish_unit invocation 6 is
        # always mid-drain.
        faults.install(
            "pool.task=kill@1,pool.task=kill@2,pool.task=kill@3,"
            "executor.unit=hang@6"
        )
        started = time.monotonic()
        with telemetry.collecting() as collector:
            with pytest.raises(ParentTimeoutError, match="REPRO_TASK_TIMEOUT"):
                execute(spec, workers=2, shard_size=1, journal=path)
        elapsed = time.monotonic() - started
        faults.install("")
        assert elapsed < 120, f"drain hang not bounded: {elapsed:.1f}s"
        counters = collector.snapshot()["counters"]
        assert counters["runner.degraded_serial"] >= 1
        assert counters["runner.watchdog.parent_timeout"] == 1
        shutdown_pools()
        # The hang fires *after* finish_unit journals its record, so every
        # unit is on disk -- but no complete marker: resume replays all 6.
        _, units, _, complete, _ = CampaignJournal(path)._read()
        assert len(units) == 6 and not complete
        monkeypatch.delenv("REPRO_TASK_TIMEOUT")
        resumed = execute(spec, shard_size=1, journal=path, resume=True)
        assert resumed.unit_metrics == baseline.unit_metrics
        assert resumed.replayed == 6

    def test_no_timeout_means_no_watchdog_thread(self):
        from repro.runner.pool import parent_deadline

        with parent_deadline("anything") as deadline:
            assert deadline is None

    def test_nested_deadlines_do_not_stack(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "60")
        from repro.runner.pool import parent_deadline

        with telemetry.collecting() as collector:
            with parent_deadline("outer") as outer:
                assert outer is not None
                with parent_deadline("inner") as inner:
                    assert inner is outer
                # The outer deadline survives the nested no-op context.
                assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
                assert signal.getsignal(signal.SIGALRM) == outer._expired
        counters = collector.snapshot()["counters"]
        assert counters.get("runner.watchdog.parent_timeout", 0) == 0

    @pytest.mark.parametrize("stalls", [False, True])
    def test_deadline_exit_disarms_the_timer_and_restores_the_handler(
        self, monkeypatch, stalls
    ):
        from repro.runner.pool import parent_deadline

        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.2")
        previous = signal.getsignal(signal.SIGALRM)
        threads = threading.active_count()
        with telemetry.collecting() as collector:
            with pytest.raises(ParentTimeoutError) if stalls else contextlib.nullcontext():
                with parent_deadline("a stalled stretch") as deadline:
                    assert deadline is not None
                    assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
                    assert threading.active_count() == threads
                    if stalls:
                        time.sleep(30)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous
        counters = collector.snapshot()["counters"]
        assert counters.get("runner.watchdog.parent_timeout", 0) == int(stalls)

    def test_a_stall_under_except_exception_still_times_out(self, monkeypatch):
        """Code that swallows every ``Exception`` cannot swallow the deadline."""
        from repro.runner.pool import parent_deadline

        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.2")
        give_up = time.monotonic() + 30
        with pytest.raises(ParentTimeoutError, match="REPRO_TASK_TIMEOUT"):
            with parent_deadline("a forgiving loop"):
                while time.monotonic() < give_up:
                    try:
                        time.sleep(1)
                    except Exception:
                        pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_a_late_signal_after_exit_is_ignored(self, monkeypatch):
        from repro.runner.pool import parent_deadline

        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "60")
        with parent_deadline("first") as first:
            pass
        # A SIGALRM that lands while the deadline is torn down runs the
        # handler after ``_armed`` is cleared: it must neither raise nor
        # leave the next deadline unarmed.
        first._expired(signal.SIGALRM, None)
        with parent_deadline("second") as second:
            assert second is not first
            assert signal.getsignal(signal.SIGALRM) == second._expired

    def test_off_the_main_thread_there_is_no_deadline(self, monkeypatch):
        from repro.runner.pool import parent_deadline

        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "60")
        seen = []

        def run() -> None:
            with parent_deadline("off the main thread") as deadline:
                seen.append(deadline)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert seen == [None]


class TestJournalPressure:
    def test_enospc_mid_campaign_degrades_not_crashes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with backend.using("fast"):
            clean = _run()
            # Invocation 1 is the header; fail the first checkpoint append.
            faults.install("journal.write=oserror@2")
            with telemetry.collecting() as collector:
                result = _run(journal=path)
        assert result.unit_metrics == clean.unit_metrics
        counters = collector.snapshot()["counters"]
        assert counters["runner.journal.write_failed"] == 1
        header, units, checkpoints, complete, _ = CampaignJournal(path)._read()
        # Degraded after the header: the campaign carried on un-journaled.
        assert header is not None
        assert units == {} and not complete
        assert checkpoints == {}

    def test_oversized_checkpoint_state_falls_back_to_unit_granularity(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(journal_mod, "STATE_LIMIT", 16)
        path = tmp_path / "j.jsonl"
        with backend.using("fast"):
            clean = _run()
            with telemetry.collecting() as collector:
                result = _run(journal=path)
        assert result.unit_metrics == clean.unit_metrics
        assert result.checkpoints_recorded == 0
        assert collector.snapshot()["counters"]["runner.journal.ckpt_oversize"] > 0
        _, units, checkpoints, complete, _ = CampaignJournal(path)._read()
        # Unit-granularity journaling still works: units landed, no ckpts.
        assert sorted(units) == [0, 1] and complete
        assert checkpoints == {}

    def test_read_fault_on_resume_is_a_config_error(self, tmp_path):
        from repro.core.errors import ConfigError

        path = tmp_path / "j.jsonl"
        with backend.using("fast"):
            _run(journal=path)
            faults.install("journal.read=oserror@1")
            with pytest.raises(ConfigError, match="could not be read"):
                _run(journal=path, resume=True)


class TestSigkillSubprocess:
    """The acceptance scenario: a real SIGKILL mid-unit, resumed via the CLI."""

    def _run_cli(self, tmp_path, *extra, check=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env["REPRO_GRAPH_BACKEND"] = "fast"
        # A SIGKILL leaves the fault plane's counter directory behind.
        env["TMPDIR"] = str(tmp_path)
        return subprocess.run(
            [
                sys.executable, "-m", "repro.runner", "run",
                "resilience-at-scale",
                "--set", "n=300", "--set", "checkpoints=3",
                "--trials", "2", "--seed", "7", "--quiet",
                "--cache-dir", str(tmp_path / "cache"), "--no-cache",
                *extra,
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    def test_sigkill_mid_unit_then_resume_bit_identical(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        killed = self._run_cli(
            tmp_path,
            "--journal", str(journal),
            "--inject-faults", "executor.checkpoint=kill@4",
        )
        assert killed.returncode == -9, (killed.returncode, killed.stderr)
        assert journal.exists()
        _, _, checkpoints, _, _ = CampaignJournal(journal)._read()
        assert checkpoints, "SIGKILL left no checkpoint records"

        # The inspect subcommand accepts the leftover journal (exit 0).
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env["REPRO_GRAPH_BACKEND"] = "fast"
        env["TMPDIR"] = str(tmp_path)
        inspect = subprocess.run(
            [sys.executable, "-m", "repro.runner", "journal", str(journal)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert inspect.returncode == 0, inspect.stderr
        assert "would be accepted" in inspect.stdout
        assert "checkpoint shard" in inspect.stdout

        resumed = self._run_cli(
            tmp_path, "--journal", str(journal), "--resume",
            "--json", str(tmp_path / "resumed.json"),
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "ckpt shard(s) replayed" in resumed.stdout
        clean = self._run_cli(
            tmp_path, "--no-journal", "--json", str(tmp_path / "clean.json"),
        )
        assert clean.returncode == 0, clean.stderr
        resumed_rows = json.loads((tmp_path / "resumed.json").read_text())
        clean_rows = json.loads((tmp_path / "clean.json").read_text())
        assert resumed_rows == clean_rows


class TestFaultSites:
    def test_new_sites_are_registered(self):
        for site in ("journal.write", "journal.read", "executor.checkpoint"):
            (clause,) = faults.parse_spec(f"{site}=raise@1")
            assert clause.site == site
