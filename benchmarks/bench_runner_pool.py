"""Persistent worker pool vs a fresh pool per checkpoint.

The PR 4 sharded path-metric engine built a throwaway process pool (and
re-shipped the CSR arrays) for every checkpoint campaign.  The persistent
pool (:mod:`repro.runner.pool`) pays spin-up once per invocation and
re-publishes each checkpoint's snapshot into shared memory, so a checkpointed
``resilience-at-scale``-style campaign (here: 20 000 nodes, 4 checkpoints,
2 path workers, exact full-population metrics at every checkpoint) saves
the per-checkpoint spin-up + re-ship tax -- a modest but consistent
wall-clock win under ``fork``, and the difference between one
``runner.pool_spinup`` span and one per checkpoint in the telemetry
report.

Both variants are asserted bit-identical to the serial engine before any
timing is believed.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from conftest import emit

from repro.graphs import backend, fast
from repro.graphs.generators import k_regular_graph
from repro.obs import telemetry
from repro.runner.executor import sharded_full_path_metrics
from repro.runner.pool import shutdown_pools

N = 20_000
K = 8
CHECKPOINTS = 4
VICTIMS_PER_CHECKPOINT = 25
WORKERS = 2
SEED = 71


def _campaign(fresh_pool_per_checkpoint: bool):
    """One checkpointed campaign; returns the per-checkpoint metrics."""
    # A persistent pool left by an earlier benchmark in the same pytest run
    # would serve the first checkpoint without a spin-up of its own.
    shutdown_pools()
    graph = k_regular_graph(N, K, seed=SEED)
    rng = random.Random(5)
    results = []
    with backend.using("fast"):
        for _ in range(CHECKPOINTS):
            for victim in rng.sample(sorted(graph), VICTIMS_PER_CHECKPOINT):
                graph.remove_node(victim)
            if fresh_pool_per_checkpoint:
                shutdown_pools()  # the pre-pool behaviour: spin up anew
            results.append(sharded_full_path_metrics(graph, workers=WORKERS))
    shutdown_pools()
    return results


def _serial_campaign():
    graph = k_regular_graph(N, K, seed=SEED)
    rng = random.Random(5)
    results = []
    with backend.using("fast"):
        for _ in range(CHECKPOINTS):
            for victim in rng.sample(sorted(graph), VICTIMS_PER_CHECKPOINT):
                graph.remove_node(victim)
            results.append(fast.full_path_metrics(graph))
    return results


def test_persistent_pool_campaign(benchmark):
    """Tentpole path: one spin-up, one re-publish per later checkpoint."""
    with telemetry.collecting() as collector:
        pooled = benchmark.pedantic(
            lambda: _campaign(fresh_pool_per_checkpoint=False),
            rounds=1,
            iterations=1,
        )
    assert pooled == _serial_campaign()  # bit-identical, not just close
    counters = collector.snapshot()["counters"]
    spans = collector.snapshot()["spans"]
    assert spans["runner.pool_spinup"]["count"] == 1
    assert counters["runner.pool.publish_attach"] == 1
    assert counters["runner.pool.publish_reattach"] == CHECKPOINTS - 1
    emit(
        "persistent pool telemetry",
        f"spinups=1 attach=1 reattaches={CHECKPOINTS - 1} "
        f"bytes_shipped={counters['runner.pool.bytes_shipped']}",
    )


def test_fresh_pool_per_checkpoint_baseline(benchmark):
    """Baseline: the pre-pool cost model (spin-up + full ship per checkpoint)."""
    with telemetry.collecting() as collector:
        benchmark.pedantic(
            lambda: _campaign(fresh_pool_per_checkpoint=True),
            rounds=1,
            iterations=1,
        )
    spans = collector.snapshot()["spans"]
    assert spans["runner.pool_spinup"]["count"] == CHECKPOINTS
    emit(
        "fresh-pool baseline telemetry",
        f"spinups={CHECKPOINTS} (one per checkpoint)",
    )
