"""Campaign journals: crash-tolerant parsing, header pinning, bit-identical resume."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.errors import ConfigError
from repro.obs import telemetry
from repro.runner import faults
from repro.runner import journal as journal_mod
from repro.runner.cache import ResultCache
from repro.runner.executor import execute, run_scenario
from repro.runner.journal import (
    JOURNAL_SCHEMA,
    JOURNAL_SCHEMA_V1,
    STATE_LIMIT_ENV_VAR,
    CampaignJournal,
    journal_header,
)
from repro.runner.pool import shutdown_pools
from repro.runner.registry import get_scenario
from repro.runner.spec import ScenarioSpec


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    # faults.install exports the spec into os.environ; setting both
    # variables through monkeypatch makes it restore them after the test.
    monkeypatch.setenv(faults.ENV_VAR, "")
    monkeypatch.setenv(faults.STATE_ENV_VAR, "")
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


class TestJournalFile:
    def test_roundtrip_header_units_complete(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = _header()
        journal = CampaignJournal(path)
        journal.open(header)
        journal.record_unit(0, {"m": 1.5})
        journal.record_unit(2, {"m": -0.25})
        journal.finish()
        recorded, units, complete = CampaignJournal(path)._read()
        assert recorded == json.loads(json.dumps(header))
        assert units == {0: {"m": 1.5}, 2: {"m": -0.25}}
        assert complete

    def test_header_pins_identity_and_environment(self):
        header = _header()
        assert header["journal"] == JOURNAL_SCHEMA
        for key in (
            "scenario", "version", "spec_hash", "seed", "trials", "units",
            "graph_backend", "bfs_batch",
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
        replay = CampaignJournal(path).resume_state(_header())
        assert replay == {0: {"m": 1.0}}

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
            CampaignJournal(path).resume_state(_header())

    def test_resume_without_a_journal_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nothing to resume"):
            CampaignJournal(tmp_path / "absent.jsonl").resume_state(_header())

    def test_header_mismatch_names_the_fields(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(_spec(seed=5)))
        journal.close()
        with pytest.raises(ConfigError, match="seed"):
            CampaignJournal(path).resume_state(_header(_spec(seed=6)))

    def test_missing_header_fails(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"unit": 0, "metrics": {}}\n{"unit": 1, "metrics": {}}\n')
        with pytest.raises(ConfigError, match="header"):
            CampaignJournal(path).resume_state(_header())

    def test_out_of_range_unit_fails(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(units=3))
        journal.record_unit(7, {"m": 1.0})
        journal.close()
        with pytest.raises(ConfigError, match="out-of-range"):
            CampaignJournal(path).resume_state(_header(units=3))


STATE = {"ecc": "ZWNj", "totals": "dG90"}  # opaque to the journal layer


class TestJournalV2:
    def test_v1_journal_still_resumes(self, tmp_path):
        """A PR 8 journal (v1 schema tag, unit records only) replays under
        the v2 loader -- it just carries no checkpoint state."""
        path = tmp_path / "j.jsonl"
        header = dict(_header())
        header["journal"] = JOURNAL_SCHEMA_V1
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps({"unit": 1, "metrics": {"m": 2.0}}) + "\n")
        journal = CampaignJournal(path)
        replay = journal.resume_state(_header())
        assert replay == {1: {"m": 2.0}}
        assert journal.checkpoints == {}

    def test_journal_with_a_retired_environment_pin_still_resumes(self, tmp_path):
        """A header written by code that pinned one more environment knob
        carries an extra field; only the current header's fields are
        compared, so such a journal resumes and inspects as resumable."""
        path = tmp_path / "j.jsonl"
        header = dict(_header(), retired_knob=False)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps({"unit": 0, "metrics": {"m": 1.0}}) + "\n")
        assert CampaignJournal(path).resume_state(_header()) == {0: {"m": 1.0}}
        info = journal_mod.inspect(path)
        assert info["environment_mismatches"] == []
        assert info["resumable"]

    def test_unknown_schema_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        header = dict(_header())
        header["journal"] = "repro.runner/journal.v99"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ConfigError, match="header"):
            CampaignJournal(path).resume_state(_header())

    def test_checkpoint_record_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        assert journal.record_checkpoint_shard(0, 0, "k0", (0, 5), 2, STATE)
        assert journal.record_checkpoint_shard(0, 0, "k0", (5, 9), 2, STATE)
        assert journal.record_checkpoint_shard(0, 1, "k1", (0, 9), 1, STATE)
        journal.close()
        reader = CampaignJournal(path)
        reader._read()
        assert sorted(reader.checkpoints) == [(0, 0), (0, 1)]
        entry = reader.checkpoints[(0, 0)]
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
        reader = CampaignJournal(path)
        reader._read()
        entry = reader.checkpoints[(0, 0)]
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
        reader = CampaignJournal(path)
        _, units, _ = reader._read()
        # The broken ckpt record vanished; everything around it survived.
        assert reader.checkpoints == {}
        assert sorted(units) == [0, 1]

    def test_oversized_state_is_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STATE_LIMIT_ENV_VAR, "4")
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header())
        with telemetry.collecting() as collector:
            assert not journal.record_checkpoint_shard(0, 0, "k", (0, 5), 1, STATE)
        journal.close()
        assert collector.snapshot()["counters"]["runner.journal.ckpt_oversize"] == 1
        reader = CampaignJournal(path)
        reader._read()
        assert reader.checkpoints == {}

    def test_invalid_state_limit_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv(STATE_LIMIT_ENV_VAR, "zero")
        with pytest.raises(ConfigError, match=STATE_LIMIT_ENV_VAR):
            journal_mod.state_limit_policy()

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
        _, units, _ = CampaignJournal(path)._read()
        assert units == {}

    def test_open_resume_verifies_the_on_disk_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.open(_header(_spec(seed=5)))
        journal.close()
        with pytest.raises(ConfigError, match="cannot resume into journal"):
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
        reader = CampaignJournal(path)
        replay = reader.resume_state(_header(units=3))
        assert replay == {}
        assert reader.checkpoints == {}


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
        _, units, complete = CampaignJournal(path)._read()
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
        _, units, complete = CampaignJournal(path)._read()
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

    def test_journal_mismatch_on_resume_propagates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        execute(_spec(seed=5), journal=path)
        with pytest.raises(ConfigError, match="does not match this campaign"):
            execute(_spec(seed=6), journal=path, resume=True)

    def test_fresh_run_truncates_a_stale_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        execute(_spec(seed=5), journal=path)
        execute(_spec(seed=6), journal=path)  # no --resume: start over
        header, units, complete = CampaignJournal(path)._read()
        assert header["seed"] == 6
        assert sorted(units) == [0, 1, 2]
        assert complete


#: Child process that opens a journal, reports, and holds it until stdin
#: closes -- the "first invocation" of the single-writer tests.
_HOLDER = """
import json, sys
from repro.runner.journal import CampaignJournal
journal = CampaignJournal(sys.argv[1])
journal.open(json.loads(sys.argv[2]))
journal.record_unit(0, {"m": 1.0})
print("locked", flush=True)
sys.stdin.read()
journal.close()
"""


class TestSingleWriterLock:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        return env

    def test_concurrent_invocation_on_one_journal_is_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        holder = subprocess.Popen(
            [sys.executable, "-c", _HOLDER, str(path), json.dumps(_header())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=self._env(),
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            before = path.read_bytes()
            second = subprocess.run(
                [
                    sys.executable, "-m", "repro.runner", "run", "fig3-walkthrough",
                    "--trials", "3", "--seed", "5", "--quiet",
                    "--cache-dir", str(tmp_path / "cache"), "--journal", str(path),
                ],
                capture_output=True,
                text=True,
                env=self._env(),
                timeout=120,
            )
            assert second.returncode == 3, second.stderr
            assert str(path) in second.stderr
            assert "in use by another running campaign" in second.stderr
            # The first writer's records were neither truncated nor appended to.
            assert path.read_bytes() == before
            # Reading stays lock-free while the writer holds the journal.
            assert journal_mod.inspect(path)["units_complete"] == 1
            with pytest.raises(ConfigError, match="in use"):
                CampaignJournal(path).open(_header(), resume=True)
        finally:
            holder.stdin.close()
            assert holder.wait(timeout=60) == 0
        # The holder's close released the lock: a new writer gets in.
        journal = CampaignJournal(path)
        journal.open(_header())
        journal.finish()

    def test_lock_released_by_close_and_by_failed_open(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = CampaignJournal(path)
        first.open(_header())
        with pytest.raises(ConfigError, match=str(path)):
            CampaignJournal(path).open(_header())
        first.close()
        # A resume refused on header grounds must not keep the lock either.
        with pytest.raises(ConfigError, match="no longer matches"):
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
