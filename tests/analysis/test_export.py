"""Tests for result export (CSV / JSON)."""

import csv
import json

import pytest

from repro.analysis.experiments import (
    run_fig4_centrality,
    run_fig5_resilience,
    run_fig6_partition_threshold,
)
from repro.analysis.export import (
    export_fig4,
    export_fig5,
    export_fig6,
    write_json,
    write_rows_csv,
    write_series_csv,
)
from repro.analysis.table1 import build_table1


class TestPrimitives:
    def test_write_series_csv(self, tmp_path):
        path = write_series_csv(tmp_path / "series.csv", {"x": [1, 2, 3], "y": [4.0, 5.0, 6.0]})
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "y"]
        assert rows[1] == ["1", "4.0"]
        assert len(rows) == 4

    def test_write_series_csv_mismatched_lengths(self, tmp_path):
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "bad.csv", {"x": [1, 2], "y": [1]})

    def test_write_series_csv_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "bad.csv", {})

    def test_write_rows_csv(self, tmp_path):
        path = write_rows_csv(tmp_path / "table1.csv", build_table1(samples_per_family=2))
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["Botnet"] == "Miner"
        assert rows[-1]["Botnet"] == "OnionBot"

    def test_write_rows_csv_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows_csv(tmp_path / "bad.csv", [])

    def test_write_json_handles_dataclasses_and_special_values(self, tmp_path):
        payload = {"inf": float("inf"), "bytes": b"\x01\x02", "set": {3, 1, 2}}
        path = write_json(tmp_path / "nested" / "out.json", payload)
        loaded = json.loads(path.read_text())
        assert loaded["inf"] == "inf"
        assert loaded["bytes"] == "0102"
        assert loaded["set"] == [1, 2, 3]


class TestFigureExports:
    def test_export_fig4(self, tmp_path):
        results = run_fig4_centrality(n=80, degrees=(4,), checkpoints=2)
        written = export_fig4(results, tmp_path)
        assert any(path.suffix == ".csv" for path in written)
        assert (tmp_path / "fig4.json").exists()
        loaded = json.loads((tmp_path / "fig4.json").read_text())
        assert loaded[0]["degree"] == 4

    def test_export_fig5(self, tmp_path):
        result = run_fig5_resilience(n=80, k=6, checkpoints=2)
        written = export_fig5(result, tmp_path)
        csv_path = next(path for path in written if path.suffix == ".csv")
        with csv_path.open() as handle:
            header = next(csv.reader(handle))
        assert "ddsr_components" in header

    def test_export_fig6(self, tmp_path):
        result = run_fig6_partition_threshold(sizes=(60,), k=6, trials_per_fraction=1)
        written = export_fig6(result, tmp_path)
        assert (tmp_path / "fig6.csv").exists()
        assert (tmp_path / "fig6.json").exists()
        assert len(written) == 2
