"""The pool's worker entries run in-process exactly as a worker runs them.

* ``_pool_run_shard`` resolves the scenario itself and returns each unit's
  metrics under its index, equal to the scenario's own call;
* ``_collected`` -- the one worker-local telemetry switch -- hands dark work
  the no-op collector and no snapshot, lit work a fresh labelled collector
  whose snapshot it returns, and switches collection off on every exit.
"""

from __future__ import annotations

import pytest

from repro.graphs import backend
from repro.obs import telemetry
from repro.runner.pool import _collected, _pool_run_shard, task_context
from repro.runner.registry import ScenarioError, get_scenario

SCENARIO = "ablation-repair-policy"


@pytest.fixture
def ctx():
    previous = backend.use(None)
    try:
        yield dict(task_context(), telemetry=False)
    finally:
        backend.use(previous)


class TestRunShard:
    def test_units_match_the_scenarios_own_calls(self, ctx):
        shard = [
            (3, {"n": 60, "k": 6, "fraction": 0.5}, 9),
            (1, {"n": 60, "k": 6, "fraction": 0.3}, 4),
        ]
        results, snapshot = _pool_run_shard(ctx, SCENARIO, shard)
        sc = get_scenario(SCENARIO)
        assert snapshot is None
        assert results == [
            (index, sc.call(seed=seed, **params)) for index, params, seed in shard
        ]

    def test_unknown_scenario_is_named(self, ctx):
        with pytest.raises(ScenarioError, match="no-such-scenario"):
            _pool_run_shard(ctx, "no-such-scenario", [(0, {}, 1)])


class TestCollected:
    def test_dark_work_gets_the_null_collector_and_no_snapshot(self):
        seen = []
        result, snapshot = _collected(
            {"telemetry": False}, "worker-shard", lambda tel: seen.append(tel) or 7
        )
        assert (result, snapshot) == (7, None)
        assert seen == [telemetry.NULL]

    def test_lit_work_is_collected_under_its_label(self):
        def work(tel):
            tel.count("probe.calls", 2)
            with tel.span("probe.span"):
                return "done"

        result, snapshot = _collected({"telemetry": True}, "path-shard", work)
        assert result == "done"
        assert snapshot["label"] == "path-shard"
        assert snapshot["counters"] == {"probe.calls": 2}
        assert snapshot["spans"]["probe.span"]["count"] == 1
        assert not telemetry.current().enabled

    def test_lit_work_that_raises_still_stops_collecting(self):
        def work(tel):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            _collected({"telemetry": True}, "worker-shard", work)
        assert not telemetry.current().enabled
