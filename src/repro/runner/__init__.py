"""Declarative scenario registry with parallel, cached experiment orchestration.

The runner is the execution layer for every evaluation artifact in this
reproduction:

* :mod:`~repro.runner.registry` -- ``@scenario`` decorator and name lookup;
* :mod:`~repro.runner.spec` -- :class:`ScenarioSpec` (params x grid x trials
  x seed) expanded into deterministic work units;
* :mod:`~repro.runner.executor` -- serial or process-parallel execution with
  bit-identical results either way;
* :mod:`~repro.runner.config` -- the one declared table of the runner's
  ``REPRO_*`` environment knobs (validation, the report's ``meta.config``,
  and the pins cache keys and journal headers carry);
* :mod:`~repro.runner.cache` -- per-unit on-disk JSON cache keyed by a stable
  hash of the unit's full identity;
* :mod:`~repro.runner.journal` -- crash-safe per-campaign progress journals
  behind ``--resume`` (bit-identical replay of completed units);
* :mod:`~repro.runner.faults` -- deterministic fault injection
  (``--inject-faults``, shipped to pool workers in each task's context)
  for chaos-testing the pool, executor and cache failure paths;
* :mod:`~repro.runner.stats` -- streaming Welford aggregation with
  confidence intervals;
* :mod:`~repro.runner.scenarios` -- built-in scenarios: paper-figure wrappers
  plus composed attack/defense/workload studies;
* :mod:`~repro.runner.cli` -- ``python -m repro.runner list|run|sweep``.

Quickstart::

    from repro.runner import run_scenario

    result = run_scenario(
        "soap-under-churn",
        grid={"join_rate": [1.0, 3.0]},
        trials=5,
        seed=7,
        workers=4,
    )
    for row in result.rows():
        print(row)
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.executor import RunResult, execute, run_scenario
from repro.runner.faults import InjectedFault, fault_point
from repro.runner.grid import expand_grid
from repro.runner.journal import CampaignJournal, journal_header
from repro.runner.pool import PoolError, PoolTaskError, TransientTaskError
from repro.runner.registry import (
    Scenario,
    ScenarioError,
    all_scenarios,
    get_scenario,
    scenario,
    scenario_names,
)
from repro.runner.spec import ScenarioSpec, WorkUnit
from repro.runner.stats import MetricAggregator, StreamingStat, summarize_trials

__all__ = [
    "CampaignJournal",
    "DEFAULT_CACHE_DIR",
    "InjectedFault",
    "MetricAggregator",
    "PoolError",
    "PoolTaskError",
    "ResultCache",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "ScenarioSpec",
    "StreamingStat",
    "TransientTaskError",
    "WorkUnit",
    "all_scenarios",
    "execute",
    "expand_grid",
    "fault_point",
    "get_scenario",
    "journal_header",
    "run_scenario",
    "scenario",
    "scenario_names",
    "summarize_trials",
]
