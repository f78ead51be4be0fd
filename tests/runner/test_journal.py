"""Campaign journals: crash-tolerant parsing, header pinning, bit-identical resume."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.errors import ConfigError
from repro.obs import telemetry
from repro.runner import config, faults
from repro.runner import journal as journal_mod
from repro.runner.cache import ResultCache
from repro.runner.executor import execute, run_scenario
from repro.runner.journal import JOURNAL_SCHEMA, CampaignJournal, journal_header
from repro.runner.pool import shutdown_pools
from repro.runner.registry import get_scenario
from repro.runner.spec import ScenarioSpec


@pytest.fixture(autouse=True)
def _clean():
    faults.reset()
    yield
    shutdown_pools()
    faults.reset()


def _spec(**overrides):
    kwargs = dict(
        name="fig3-walkthrough", params={}, grid={}, trials=3, seed=5
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def _header(spec=None, units=3):
    spec = spec or _spec()
    sc = get_scenario(spec.name)
    return journal_header(spec.resolved(sc.defaults), sc.version, units)


def _resume(path, header=None):
    """Resume-open the journal at ``path`` and close it; returns the replay."""
    journal = CampaignJournal(path)
    replay = journal.open(header or _header(), resume=True)
    journal.close()
    return replay


class TestJournalFile:
    def test_roundtrip_header_units_complete(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = _header()
        journal = CampaignJournal(path)
        journal.open(header)
        journal.record_unit(0, {"m": 1.5})
        journal.record_unit(2, {"m": -0.25})
        journal.finish()
        recorded, units, _, complete, _ = CampaignJournal(path)._read()
        assert recorded == json.loads(json.dumps(header))
        assert units == {0: {"m": 1.5}, 2: {"m": -0.25}}
        assert complete

    def test_header_pins_identity_and_environment(self):
        header = _header()
        assert header["journal"] == JOURNAL_SCHEMA
        for key in (
            "scenario", "version", "spec_hash", "seed", "trials", "units",
            *config.pins(),
        ):
            assert key in header

    def test_truncated_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        journal.record_unit(0, {"m": 1.0})
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"unit": 1, "metr')  # crash mid-append
        units, _ = _resume(path)
        assert units == {0: {"m": 1.0}}

    def test_mid_file_corruption_fails_loudly(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        journal.record_unit(0, {"m": 1.0})
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="corrupt at line 2"):
            _resume(path)

    def test_resume_without_a_journal_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nothing to resume"):
            _resume(tmp_path / "absent.jsonl")

    def test_header_mismatch_names_the_fields(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(_spec(seed=5)))
        journal.close()
        with pytest.raises(ConfigError, match="does not match this campaign.*seed"):
            _resume(path, _header(_spec(seed=6)))

    def test_missing_header_fails(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"unit": 0, "metrics": {}}\n{"unit": 1, "metrics": {}}\n')
        with pytest.raises(ConfigError, match="header"):
            _resume(path)

    def test_out_of_range_unit_fails(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(units=3))
        journal.record_unit(7, {"m": 1.0})
        journal.close()
        with pytest.raises(ConfigError, match="out-of-range"):
            _resume(path, _header(units=3))


STATE = {"ecc": "ZWNj", "totals": "dG90"}  # opaque to the journal layer


class TestJournalV2:
    def test_v1_journal_is_refused(self, tmp_path):
        """A unit-records-only v1 journal is refused like any unknown
        schema: on resume and by the ``journal`` subcommand (exit 3)."""
        path = tmp_path / "j.jsonl"
        header = dict(_header())
        header["journal"] = "repro.runner/journal.v1"
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps({"unit": 1, "metrics": {"m": 2.0}}) + "\n")
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="journal.v1"):
            _resume(path)
        assert path.read_bytes() == before
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        inspected = subprocess.run(
            [sys.executable, "-m", "repro.runner", "journal", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert inspected.returncode == 3
        assert "journal.v1" in inspected.stderr

    @pytest.mark.parametrize(
        "retired",
        [{"bfs_batch": "auto", "popcount_lut": False}, {"bfs_batch": "auto"}],
        ids=["wave-width-and-popcount-lut", "wave-width"],
    )
    def test_journal_with_a_retired_environment_pin_still_resumes(
        self, tmp_path, retired
    ):
        """A header written by code that pinned more environment knobs
        carries extra fields; only the current header's fields are
        compared, so such a journal resumes and inspects as resumable."""
        path = tmp_path / "j.jsonl"
        header = dict(_header(), **retired)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps({"unit": 0, "metrics": {"m": 1.0}}) + "\n")
        assert _resume(path) == ({0: {"m": 1.0}}, {})
        info = journal_mod.inspect(path)
        assert info["environment_mismatches"] == []
        assert info["resumable"]

    def test_unknown_schema_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = dict(_header())
        header["journal"] = "repro.runner/journal.v99"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ConfigError, match="header"):
            _resume(path)

    def test_checkpoint_record_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        assert journal.record_checkpoint_shard(0, 0, "k0", (0, 5), 2, STATE)
        assert journal.record_checkpoint_shard(0, 0, "k0", (5, 9), 2, STATE)
        assert journal.record_checkpoint_shard(0, 1, "k1", (0, 9), 1, STATE)
        journal.close()
        _, _, checkpoints, _, _ = CampaignJournal(path)._read()
        assert sorted(checkpoints) == [(0, 0), (0, 1)]
        entry = checkpoints[(0, 0)]
        assert entry["key"] == "k0"
        assert sorted(entry["spans"]) == [(0, 5), (5, 9)]
        assert entry["spans"][(0, 5)] == STATE

    def test_conflicting_checkpoint_key_later_record_wins(self, tmp_path):
        """Re-journaled checkpoints of a re-run (different graph snapshot,
        new content key) replace the stale state wholesale."""
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        journal.record_checkpoint_shard(0, 0, "old", (0, 5), 2, STATE)
        journal.record_checkpoint_shard(0, 0, "new", (5, 9), 2, STATE)
        journal.close()
        _, _, checkpoints, _, _ = CampaignJournal(path)._read()
        entry = checkpoints[(0, 0)]
        assert entry["key"] == "new"
        assert sorted(entry["spans"]) == [(5, 9)]

    def test_malformed_checkpoint_record_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        journal.record_unit(0, {"m": 1.0})
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"ckpt": 0, "seq": 0, "key": "k"}) + "\n")
            handle.write(json.dumps({"unit": 1, "metrics": {"m": 2.0}}) + "\n")
        _, units, checkpoints, _, _ = CampaignJournal(path)._read()
        # The broken ckpt record vanished; everything around it survived.
        assert checkpoints == {}
        assert sorted(units) == [0, 1]

    @pytest.mark.parametrize("slack,written", [(0, True), (-1, False)])
    def test_state_limit_is_inclusive(self, tmp_path, monkeypatch, slack, written):
        """A state of exactly ``STATE_LIMIT`` encoded bytes is journaled."""
        encoded_size = sum(len(value) for value in STATE.values())
        monkeypatch.setattr(journal_mod, "STATE_LIMIT", encoded_size + slack)
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.open(_header())
        assert journal.record_checkpoint_shard(0, 0, "k", (0, 5), 1, STATE) is written
        journal.close()

    def test_oversized_state_is_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_mod, "STATE_LIMIT", 4)
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        with telemetry.collecting() as collector:
            assert not journal.record_checkpoint_shard(0, 0, "k", (0, 5), 1, STATE)
        journal.close()
        assert collector.snapshot()["counters"]["runner.journal.ckpt_oversize"] == 1
        _, _, checkpoints, _, _ = CampaignJournal(path)._read()
        assert checkpoints == {}

    def test_refused_append_degrades_writes(self, tmp_path):
        """The first OSError on append warns, counts, and stops journaling;
        later appends are silent no-ops (ResultCache.put posture)."""
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        faults.install("journal.write=oserror@2")
        with telemetry.collecting() as collector:
            journal.open(_header())       # append 1: the header
            journal.record_unit(0, {"m": 1.0})  # append 2: refused
            journal.record_unit(1, {"m": 2.0})  # already degraded: no-op
        faults.install("")
        assert journal.write_failed
        assert collector.snapshot()["counters"]["runner.journal.write_failed"] == 1
        _, units, _, _, _ = CampaignJournal(path)._read()
        assert units == {}

    def test_open_resume_verifies_the_on_disk_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(_spec(seed=5)))
        journal.close()
        with pytest.raises(ConfigError, match="does not match this campaign"):
            CampaignJournal(path).open(_header(_spec(seed=6)), resume=True)

    def test_open_resume_refuses_a_headerless_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError, match="no readable header"):
            CampaignJournal(path).open(_header(), resume=True)

    def test_out_of_range_checkpoint_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(units=3))
        journal.record_checkpoint_shard(7, 0, "k", (0, 5), 1, STATE)
        journal.close()
        assert _resume(path, _header(units=3)) == ({}, {})

    def test_resume_replays_checkpoints_of_unfinished_units_only(self, tmp_path):
        """A finished unit replays verbatim, so its shards are dead weight:
        the replay carries only the unfinished units' checkpoint states."""
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(units=3))
        journal.record_checkpoint_shard(0, 0, "k0", (0, 5), 1, STATE)
        journal.record_unit(0, {"m": 1.0})
        journal.record_checkpoint_shard(1, 0, "k1", (0, 5), 1, STATE)
        journal.close()
        units, checkpoints = _resume(path, _header(units=3))
        assert units == {0: {"m": 1.0}}
        assert sorted(checkpoints) == [(1, 0)]
        assert checkpoints[(1, 0)]["spans"] == {(0, 5): STATE}


class TestInspect:
    def test_inspect_a_complete_campaign(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(units=3))
        journal.record_unit(0, {"m": 1.0})
        journal.record_checkpoint_shard(1, 0, "k", (0, 5), 1, STATE)
        journal.record_unit(1, {"m": 2.0})
        journal.record_unit(2, {"m": 3.0})
        journal.finish()
        info = journal_mod.inspect(path)
        assert info["schema"] == JOURNAL_SCHEMA
        assert info["units_total"] == 3
        assert info["units_complete"] == 3
        assert info["percent_complete"] == 100.0
        assert info["complete"]
        assert info["checkpoints"] == 1
        assert info["checkpoint_shards"] == 1
        assert info["environment_mismatches"] == []
        assert info["resumable"]

    def test_inspect_missing_or_corrupt(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            journal_mod.inspect(tmp_path / "absent.jsonl")
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        journal.close()
        lines = path.read_text().splitlines()
        lines.insert(1, "not json")
        lines.append(json.dumps({"unit": 0, "metrics": {}}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="corrupt"):
            journal_mod.inspect(path)

    def test_inspect_flags_environment_drift(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = dict(_header(units=3))
        header["graph_backend"] = "something-else"
        path.write_text(json.dumps(header) + "\n")
        info = journal_mod.inspect(path)
        assert info["environment_mismatches"] == ["graph_backend"]
        assert not info["resumable"]


class TestExecutorIntegration:
    def test_resume_without_journal_path_is_a_config_error(self):
        with pytest.raises(ConfigError, match="no journal given"):
            execute(_spec(), resume=True)

    def test_fresh_run_journals_every_unit(self, tmp_path):
        path = tmp_path / "j.jsonl"
        result = execute(_spec(), journal=path)
        assert result.journal_path == str(path)
        assert result.replayed == 0
        _, units, _, complete, _ = CampaignJournal(path)._read()
        assert sorted(units) == [0, 1, 2]
        assert complete

    def test_complete_journal_replays_fully_and_bit_identically(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = execute(_spec(), journal=path)
        second = execute(_spec(), journal=path, resume=True)
        assert second.replayed == 3
        assert second.unit_metrics == first.unit_metrics
        assert [a.row() for a in second.aggregates] == [
            a.row() for a in first.aggregates
        ]

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        baseline = run_scenario("soap-campaign", params={"n": 30}, trials=6, seed=3)
        path = tmp_path / "j.jsonl"
        spec = ScenarioSpec(
            name="soap-campaign", params={"n": 30}, grid={}, trials=6, seed=3
        )
        faults.install("executor.unit=interrupt@3")
        with pytest.raises(KeyboardInterrupt):
            execute(spec, workers=2, journal=path, shard_size=1)
        faults.install("")
        _, units, _, complete, _ = CampaignJournal(path)._read()
        assert len(units) == 3 and not complete
        resumed = execute(spec, workers=2, journal=path, shard_size=1, resume=True)
        assert resumed.replayed == 3
        assert resumed.unit_metrics == baseline.unit_metrics

    def test_cache_hits_are_journaled_for_later_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        execute(_spec(), cache=cache)  # warm the cache, no journal
        path = tmp_path / "j.jsonl"
        warm = execute(_spec(), cache=cache, journal=path)
        assert warm.cache_hits == 3
        # Every cache-served unit landed in the journal too.
        resumed = execute(_spec(), journal=path, resume=True)
        assert resumed.replayed == 3
        assert resumed.unit_metrics == warm.unit_metrics

    def test_resume_parses_the_journal_once(self, tmp_path, monkeypatch):
        """One locked read per resume: the open that takes the writer lock
        is the only pass over the file."""
        path = tmp_path / "j.jsonl"
        execute(_spec(), journal=path)
        reads = []
        read = CampaignJournal._read

        def counting_read(self):
            reads.append(self.path)
            return read(self)

        monkeypatch.setattr(CampaignJournal, "_read", counting_read)
        resumed = execute(_spec(), journal=path, resume=True)
        assert resumed.replayed == 3
        assert reads == [path]

    def test_resume_after_a_torn_trailing_line_keeps_the_journal_readable(
        self, tmp_path
    ):
        """The first resume cuts the torn line before it appends, so the
        journal it leaves inspects clean and a second resume replays all."""
        path = tmp_path / "j.jsonl"
        first = execute(_spec(), journal=path)
        header, unit0 = path.read_text(encoding="utf-8").splitlines()[:2]
        path.write_text(f'{header}\n{unit0}\n{{"unit": 1, "metr', encoding="utf-8")
        assert execute(_spec(), journal=path, resume=True).replayed == 1
        assert journal_mod.inspect(path)["units_complete"] == 3
        second = execute(_spec(), journal=path, resume=True)
        assert second.replayed == 3
        assert second.unit_metrics == first.unit_metrics

    def test_journal_mismatch_on_resume_propagates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        execute(_spec(seed=5), journal=path)
        with pytest.raises(ConfigError, match="does not match this campaign"):
            execute(_spec(seed=6), journal=path, resume=True)

    def test_fresh_run_truncates_a_stale_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        execute(_spec(seed=5), journal=path)
        execute(_spec(seed=6), journal=path)  # no --resume: start over
        header, units, _, complete, _ = CampaignJournal(path)._read()
        assert header["seed"] == 6
        assert sorted(units) == [0, 1, 2]
        assert complete


#: Child process that opens a journal, reports, and holds it until stdin
#: closes -- the "first invocation" of the single-writer tests.  An
#: ``append`` line on stdin makes it record one more unit before closing.
_HOLDER = """
import json, sys
from repro.runner.journal import CampaignJournal
journal = CampaignJournal(sys.argv[1])
journal.open(json.loads(sys.argv[2]))
journal.record_unit(0, {"m": 1.0})
print("locked", flush=True)
if sys.stdin.readline() == "append\\n":
    journal.record_unit(1, {"m": 2.0})
journal.close()
"""

#: Child process that resumes a journal and prints the unit indices replayed.
_RESUMER = """
import json, sys
from repro.runner.journal import CampaignJournal
journal = CampaignJournal(sys.argv[1])
units, _ = journal.open(json.loads(sys.argv[2]), resume=True)
journal.close()
print(json.dumps(sorted(units)))
"""


class TestSingleWriterLock:
    def _env(self, **extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env.update(extra)
        return env

    def _holder(self, path):
        holder = subprocess.Popen(
            [sys.executable, "-c", _HOLDER, str(path), json.dumps(_header())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=self._env(),
        )
        assert holder.stdout.readline().strip() == "locked"
        return holder

    def _second_run(self, tmp_path, path, **env):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.runner", "run", "fig3-walkthrough",
                "--trials", "3", "--seed", "5", "--quiet",
                "--cache-dir", str(tmp_path / "cache"), "--journal", str(path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self._env(**env),
        )

    @staticmethod
    def _await_wait_line(process, path):
        """Read ``process``'s stderr up to the line announcing the wait."""
        for line in process.stderr:
            if "waiting for journal" in line:
                assert str(path) in line
                return
        raise AssertionError(f"no wait line; exit {process.wait()}")

    def test_concurrent_invocation_on_one_journal_waits(self, tmp_path):
        path = tmp_path / "j.jsonl"
        holder = self._holder(path)
        second = None
        try:
            before = path.read_bytes()
            second = self._second_run(tmp_path, path)
            self._await_wait_line(second, path)
            assert second.poll() is None
            # The first writer's records were neither truncated nor appended to.
            assert path.read_bytes() == before
            # Reading stays lock-free while the writer holds the journal.
            assert journal_mod.inspect(path)["units_complete"] == 1
        finally:
            holder.stdin.close()
            assert holder.wait(timeout=60) == 0
            if second is not None:
                _, stderr = second.communicate(timeout=120)
        # The holder's close released the lock: the waiter ran its campaign.
        assert second.returncode == 0, stderr
        header, units, _, complete, _ = CampaignJournal(path)._read()
        assert sorted(units) == [0, 1, 2] and complete

    @pytest.mark.parametrize("how,code", [("timeout", 4), ("sigint", 130)])
    def test_the_wait_ends_on_the_task_timeout_or_sigint(self, tmp_path, how, code):
        """A holder that never finishes: ``REPRO_TASK_TIMEOUT`` bounds the
        wait (exit 4) and ^C ends it (exit 130), the journal untouched."""
        path = tmp_path / "j.jsonl"
        holder = self._holder(path)
        try:
            before = path.read_bytes()
            env = {"REPRO_TASK_TIMEOUT": "1"} if how == "timeout" else {}
            second = self._second_run(tmp_path, path, **env)
            self._await_wait_line(second, path)
            if how == "sigint":
                second.send_signal(signal.SIGINT)
            _, stderr = second.communicate(timeout=120)
            assert second.returncode == code, stderr
            assert path.read_bytes() == before
        finally:
            holder.stdin.close()
            assert holder.wait(timeout=60) == 0

    def test_a_waiting_resume_replays_what_the_holder_appended(self, tmp_path):
        """Lock before read: a record the holder appends while the resume
        waits is part of the replay."""
        path = tmp_path / "j.jsonl"
        holder = self._holder(path)
        try:
            resumer = subprocess.Popen(
                [sys.executable, "-c", _RESUMER, str(path), json.dumps(_header())],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=self._env(),
            )
            self._await_wait_line(resumer, path)
            holder.stdin.write("append\n")
            holder.stdin.flush()
        finally:
            holder.stdin.close()
            assert holder.wait(timeout=60) == 0
        stdout, stderr = resumer.communicate(timeout=60)
        assert resumer.returncode == 0, stderr
        assert json.loads(stdout) == [0, 1]

    def test_lock_released_by_close_and_by_failed_open(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = CampaignJournal(path)
        first.open(_header())
        with pytest.raises(ConfigError, match=str(path)):
            CampaignJournal(path).open(_header())
        first.close()
        # A resume refused on header grounds must not keep the lock either.
        with pytest.raises(ConfigError, match="does not match this campaign"):
            CampaignJournal(path).open(_header(_spec(seed=9)), resume=True)
        second = CampaignJournal(path)
        second.open(_header(), resume=True)
        second.finish()

    def test_lock_released_while_forked_pool_workers_live(self, tmp_path):
        """Workers forked under the lock share its descriptor; close must
        still release it while they stay alive in the persistent pool."""
        shutdown_pools()
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        execute(_spec(), workers=2, shard_size=1)  # forks the pool's workers
        journal.close()
        again = CampaignJournal(path)
        again.open(_header())
        again.finish()
