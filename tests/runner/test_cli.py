"""Smoke tests for the ``python -m repro.runner`` CLI."""

import json

import pytest

from repro.runner import faults
from repro.runner.cli import (
    EXIT_CONFIG,
    EXIT_POOL,
    EXIT_TASK,
    EXIT_USAGE,
    main,
)
from repro.runner.pool import shutdown_pools


@pytest.fixture(autouse=True)
def _clean_faults():
    """No armed faults before or after a test, and cold pools after."""
    faults.reset()
    yield
    shutdown_pools()
    faults.reset()


class TestList:
    def test_lists_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "soap-campaign" in out
        assert "soap-under-churn" in out

    def test_composed_only(self, capsys):
        assert main(["list", "--composed"]) == 0
        out = capsys.readouterr().out
        assert "soap-under-churn" in out
        assert "fig5-resilience" not in out


class TestRun:
    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "nope", "--no-cache"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_with_overrides_and_outputs(self, tmp_path, capsys):
        json_out = tmp_path / "out.json"
        csv_out = tmp_path / "out.csv"
        code = main(
            [
                "run",
                "fig3-walkthrough",
                "--set", "n=12", "--set", "deletions=4",
                "--trials", "2",
                "--seed", "5",
                "--cache-dir", str(tmp_path / "cache"),
                "--quiet",
                "--json", str(json_out),
                "--csv", str(csv_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final_connected" in out
        assert "2 unit(s)" in out
        payload = json.loads(json_out.read_text())
        assert payload["rows"][0]["trials"] == 2
        assert csv_out.read_text().startswith("n,")

    def test_second_invocation_is_cached(self, tmp_path, capsys):
        args = [
            "run", "fig3-walkthrough", "--seed", "5", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "[1 cached, 0 computed]" in capsys.readouterr().out

    def test_corrupt_entry_reported_in_summary(self, tmp_path, capsys):
        """A planted undecodable entry shows up as ``corrupt evicted``."""
        cache_dir = tmp_path / "cache"
        args = [
            "run", "fig3-walkthrough", "--seed", "5", "--quiet",
            "--cache-dir", str(cache_dir),
        ]
        assert main(args) == 0
        capsys.readouterr()
        victim = next(cache_dir.glob("*/*.json"))
        victim.write_bytes(b"\x80not json")
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[0 cached, 1 computed, 1 corrupt evicted]" in out
        # The eviction repaired the cache: the next run is clean again.
        assert main(args) == 0
        assert "[1 cached, 0 computed]" in capsys.readouterr().out


class TestTelemetry:
    def _run_with_report(self, tmp_path, capsys, extra=()):
        report_path = tmp_path / "obs.json"
        args = [
            "run", "fig3-walkthrough", "--seed", "5", "--quiet", "--no-cache",
            "--telemetry", str(report_path), *extra,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"wrote telemetry report {report_path}" in out
        return report_path, out

    def test_run_writes_schema_valid_report_with_meta(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.report import load_report
        from repro.obs.schema import validate_report

        for var in ("REPRO_GRAPH_BACKEND", "REPRO_PATH_WORKERS", "REPRO_TASK_TIMEOUT"):
            monkeypatch.delenv(var, raising=False)
        report_path, _ = self._run_with_report(tmp_path, capsys)
        report = load_report(report_path)
        validate_report(report)
        assert report["label"] == "runner:fig3-walkthrough"
        assert report["meta"]["scenario"] == "fig3-walkthrough"
        assert report["meta"]["seed"] == 5
        assert report["spans"]["runner.execute"]["count"] == 1
        assert report["spans"]["runner.unit"]["count"] == 1
        assert report["meta"]["config"] == {
            "graph_backend": "auto",
            "path_workers": 1,
            "task_timeout": None,
        }

    def test_collector_is_disabled_after_the_run(self, tmp_path, capsys):
        from repro.obs import telemetry

        self._run_with_report(tmp_path, capsys)
        assert not telemetry.enabled()

    def test_retired_env_copies_of_the_flags_are_ignored(
        self, tmp_path, capsys, monkeypatch
    ):
        """Only ``--inject-faults`` arms faults and only ``--telemetry``
        writes a report; the old environment spellings do nothing."""
        report_path = tmp_path / "x.json"
        monkeypatch.setenv("REPRO_FAULTS", "pool.task=explode")
        monkeypatch.setenv("REPRO_TELEMETRY", str(report_path))
        assert main(["run", "fig3-walkthrough", "--quiet", "--no-cache"]) == 0
        assert "telemetry report" not in capsys.readouterr().out
        assert not report_path.exists()

    def test_telemetry_results_match_dark_run(self, tmp_path, capsys):
        args = ["run", "fig3-walkthrough", "--seed", "5", "--quiet", "--no-cache"]
        assert main(args) == 0
        dark = capsys.readouterr().out
        _, lit = self._run_with_report(tmp_path, capsys)
        # Same table, same spec hash; only the report line is new.
        assert dark.splitlines()[0] in lit
        assert "spec hash" in dark
        assert dark[dark.index("spec hash"):].split()[2] in lit

    def test_pretty_print_subcommand(self, tmp_path, capsys):
        report_path, _ = self._run_with_report(tmp_path, capsys)
        assert main(["telemetry", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "runner.execute" in out
        assert "meta.scenario = fig3-walkthrough" in out

    def test_pretty_print_rejects_invalid_reports(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.obs/report.v1"}', encoding="utf-8")
        assert main(["telemetry", str(bad)]) == 2
        assert "invalid telemetry report" in capsys.readouterr().err
        assert main(["telemetry", str(tmp_path / "absent.json")]) == 2


class TestExitCodes:
    """Each failure class exits with its own documented code."""

    def test_usage_error_is_2(self, capsys):
        assert main(["run", "nope", "--no-cache"]) == EXIT_USAGE
        capsys.readouterr()

    def test_malformed_fault_spec_is_3(self, capsys):
        code = main(
            ["run", "fig3-walkthrough", "--no-cache", "--quiet",
             "--inject-faults", "pool.task=explode"]
        )
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "var, value",
        [
            ("REPRO_TASK_TIMEOUT", "soon"),
            ("REPRO_PATH_WORKERS", "0"),
            ("REPRO_GRAPH_BACKEND", "numpy"),
        ],
    )
    def test_invalid_policy_env_is_3(self, var, value, capsys, monkeypatch):
        """Every knob is read before any work, also one the scenario never
        consults (fig3-walkthrough runs no path-metric campaign)."""
        monkeypatch.setenv(var, value)
        code = main(
            ["run", "fig3-walkthrough", "--no-cache", "--workers", "2"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert var in err
        assert "unit 1/1 done" not in err

    @pytest.mark.parametrize("name", ["metric_sample", "closeness_sample"])
    def test_non_null_sample_param_is_3(self, name, capsys):
        """The sampled estimators are gone: resilience-at-scale keeps the two
        keys at null only and refuses any other value before any work."""
        code = main(
            ["run", "resilience-at-scale", "--no-cache", "--quiet",
             "--set", "n=60", "--set", "k=4", "--set", f"{name}=16"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{name}=16 is refused" in err
        assert "ROADMAP item 2" in err

    def test_null_sample_params_are_accepted(self, capsys):
        code = main(
            ["run", "resilience-at-scale", "--no-cache", "--quiet",
             "--set", "n=60", "--set", "k=4", "--set", "checkpoints=2",
             "--set", "metric_sample=null", "--set", "closeness_sample=null"]
        )
        assert code == 0
        capsys.readouterr()

    def test_pool_failure_is_4(self, capsys, monkeypatch):
        # An in-parent hang past the deadline is a ParentTimeoutError, the
        # PoolError the pool's own failure ladder cannot absorb.
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1")
        code = main(
            ["run", "fig3-walkthrough", "--no-cache", "--quiet",
             "--inject-faults", "executor.unit=hang(30)@1"]
        )
        assert code == EXIT_POOL
        err = capsys.readouterr().err
        assert "worker pool failed" in err
        assert "REPRO_TASK_TIMEOUT" in err

    def test_task_failure_is_5(self, capsys):
        from repro.runner.registry import scenario, unregister

        @scenario(name="test-cli-raises", defaults={})
        def raises(*, seed: int):
            raise ValueError(f"boom seed={seed}")

        try:
            code = main(
                ["run", "test-cli-raises", "--no-cache", "--quiet",
                 "--trials", "2", "--workers", "2"]
            )
        finally:
            unregister("test-cli-raises")
        assert code == EXIT_TASK
        assert "task failed" in capsys.readouterr().err

    def test_resume_mismatch_is_3(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        args = ["run", "fig3-walkthrough", "--no-cache", "--quiet",
                "--journal", str(journal)]
        assert main(args + ["--seed", "5"]) == 0
        capsys.readouterr()
        code = main(args + ["--seed", "6", "--resume"])
        assert code == EXIT_CONFIG
        assert "does not match this campaign" in capsys.readouterr().err


class TestJournalFlow:
    def test_cached_run_journals_under_the_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["run", "fig3-walkthrough", "--seed", "5", "--quiet",
                "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        capsys.readouterr()
        journals = list((cache_dir / "journals").glob("*.jsonl"))
        assert len(journals) == 1
        # --resume replays the completed unit and reports it.
        assert main(args + ["--resume"]) == 0
        assert "1 replayed" in capsys.readouterr().out

    def test_no_journal_flag_disables_journaling(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["run", "fig3-walkthrough", "--seed", "5", "--quiet",
                "--cache-dir", str(cache_dir), "--no-journal"]
        assert main(args) == 0
        capsys.readouterr()
        assert not (cache_dir / "journals").exists()

    def test_telemetry_meta_records_journal_and_faults(self, tmp_path, capsys):
        from repro.obs.report import load_report
        from repro.obs.schema import validate_report

        report_path = tmp_path / "obs.json"
        journal = tmp_path / "j.jsonl"
        args = ["run", "fig3-walkthrough", "--seed", "5", "--quiet",
                "--no-cache", "--journal", str(journal),
                "--telemetry", str(report_path),
                "--inject-faults", "cache.read=delay(0.001)@99"]
        assert main(args) == 0
        capsys.readouterr()
        report = load_report(report_path)
        validate_report(report)
        assert report["meta"]["journal"] == {
            "path": str(journal),
            "resumed": False,
            "replayed": 0,
            "units": 1,
            "checkpoints_recorded": 0,
            "checkpoints_replayed": 0,
        }
        assert report["meta"]["injected_faults"] == "cache.read=delay(0.001)@99"


class TestJournalInspect:
    def _journal(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        args = ["run", "fig3-walkthrough", "--seed", "5", "--quiet",
                "--no-cache", "--journal", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        return journal

    def test_valid_journal_exits_zero(self, tmp_path, capsys):
        journal = self._journal(tmp_path, capsys)
        assert main(["journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "fig3-walkthrough" in out
        assert "1/1 unit(s) (100.0%), complete" in out
        assert "would be accepted" in out

    def test_missing_journal_exits_config(self, tmp_path, capsys):
        assert main(["journal", str(tmp_path / "absent.jsonl")]) == EXIT_CONFIG
        assert "no such journal" in capsys.readouterr().err

    def test_corrupt_journal_exits_config(self, tmp_path, capsys):
        journal = self._journal(tmp_path, capsys)
        lines = journal.read_text().splitlines()
        lines.insert(1, "not json")
        lines.append(json.dumps({"unit": 0, "metrics": {}}))
        journal.write_text("\n".join(lines) + "\n")
        assert main(["journal", str(journal)]) == EXIT_CONFIG
        assert "invalid journal" in capsys.readouterr().err

    def test_environment_drift_refuses_resume(self, tmp_path, capsys, monkeypatch):
        from repro.graphs import backend

        journal = self._journal(tmp_path, capsys)
        monkeypatch.setenv(backend.ENV_VAR, "python")
        assert main(["journal", str(journal)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "graph_backend" in err
        assert "would be REFUSED" in err


class TestSweep:
    def test_sweep_grid_axes(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "ablation-repair-policy",
                "--grid", "policy=clique,none",
                "--set", "n=60", "--set", "k=6",
                "--seed", "3",
                "--no-cache",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clique" in out and "none" in out
        assert "2 unit(s)" in out
