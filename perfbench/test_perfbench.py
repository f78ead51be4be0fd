"""Self-tests of the benchmark at small sizes (about a minute).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from campaign import SpanRecorder, layer_times  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(*args: str) -> dict:
    done = bench(*args)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {
        name: [
            result_of("--workload", name, "--seed", "0", "--trace", "1", "--size", "small")
            for _ in range(2)
        ]
        for name in ("resilience-pooled", "soap-containment")
    }


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_runs_and_passes_the_gate(name):
    result = result_of("--workload", name, "--seed", "0", "--seconds", "1", "--size", "small")
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def golden_rows(family: str, seed: int = 0) -> list:
    return [dict(run.load_goldens()["small"][family][str(seed)])]


def test_gate_passes_the_golden_and_trips_on_a_perturbed_one():
    goldens = run.load_goldens()
    rows = golden_rows("resilience")
    assert run.check_rows("resilience-serial", 0, "small", rows, goldens) == []
    perturbed = golden_rows("resilience")
    value = perturbed[0]["final_avg_path_length"]
    perturbed[0]["final_avg_path_length"] = math.nextafter(value, math.inf)
    problems = run.check_rows("resilience-serial", 0, "small", perturbed, goldens)
    assert problems and "golden" in problems[0]
    soap = golden_rows("soap")
    soap[0]["clones_created"] += 1
    assert run.check_rows("soap-containment", 0, "small", soap, goldens)


def test_gate_trips_when_pooled_differs_from_serial():
    serial = golden_rows("resilience")
    pooled = golden_rows("resilience")
    pooled[0]["repair_edges_added"] += 1
    # No golden for this seed: only the serial reference can catch it.
    problems = run.check_rows("resilience-pooled", 999, "small", pooled, {}, serial)
    assert problems and "serial" in problems[0]
    assert run.check_rows("resilience-pooled", 999, "small", serial, {}, serial) == []


def test_gate_trips_on_broken_invariants():
    rows = golden_rows("resilience")
    rows[0]["survivors"] -= 1
    assert run.check_rows("resilience-serial", 999, "small", rows, {})
    soap = golden_rows("soap")
    soap[0]["containment_fraction"] = 1.5
    assert run.check_rows("soap-containment", 999, "small", soap, {})
    assert run.check_rows("soap-containment", 0, "small", [], {})


def test_self_time_arithmetic_never_goes_negative():
    recorder = SpanRecorder()

    def leaf(depth):
        return sum(range(1000))

    traced_leaf = recorder.wrap("leaf", leaf)

    def inner(depth):
        if depth:
            traced_inner(depth - 1)
        return traced_leaf(depth)

    traced_inner = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda: [traced_inner(3) for _ in range(5)])
    outer()
    times = layer_times(recorder.spans)
    assert times["outer"]["calls"] == 1 and times["inner"]["calls"] == 20
    assert all(entry["self_s"] >= 0 for entry in times.values())
    # Self times partition the top-level span exactly.
    total_self = sum(entry["self_s"] for entry in times.values())
    assert total_self == pytest.approx(times["outer"]["total_s"], abs=1e-9)


def test_traced_self_times_are_non_negative(traced_twice):
    for runs in traced_twice.values():
        for result in runs:
            assert result["correct"] is True
            for name, entry in result["metrics"].items():
                if entry["unit"] == "s" and name != "trace.overhead_s":
                    assert entry["value"] >= 0, name
            assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_traced_counts_repeat_exactly(traced_twice):
    for name, (first, second) in traced_twice.items():
        counts = {
            metric: entry["value"]
            for metric, entry in first["metrics"].items()
            if entry["unit"] in ("count", "B")
        }
        assert counts == {
            metric: second["metrics"][metric]["value"] for metric in counts
        }, name
    pooled = traced_twice["resilience-pooled"][0]["metrics"]
    assert pooled["wave.count"]["value"] > 0
    assert pooled["pool.publish_attach"]["value"] == 1
    soap = traced_twice["soap-containment"][0]["metrics"]
    assert soap["soap.clones_created"]["value"] > 0


def test_benchmark_json_matches_the_layer_map_and_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    layers = json.loads(run.LAYER_MAP.read_text())["layers"]
    assert BENCHMARK["per_layer"] == [m for layer in layers for m in layer["metrics"]]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "resilience-serial", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
