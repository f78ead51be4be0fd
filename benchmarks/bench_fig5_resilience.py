"""Figure 5 -- DDSR vs normal graph: components, degree centrality, diameter.

Paper setup: 10-regular graphs of 5000 nodes (left column, 5a/5c/5e) and
15000 nodes (right column, 5b/5d/5f), incremental deletions of essentially the
whole population, comparing the self-repairing DDSR overlay against a normal
graph with no repair.

Expected shapes (paper): the DDSR overlay stays in a single connected
component until almost every node is gone (90--95 %), while the normal graph
shatters into many components after roughly 60 % deletions; DDSR's degree
centrality stays slightly above the normal graph's (bounded by pruning); the
DDSR diameter *decreases* as the network shrinks while the normal graph's
diameter grows until it partitions.

Both "columns" (600 and 1200 nodes by default; qualitatively identical to
the paper's sizes) run through the :mod:`repro.runner` subsystem as a grid
over ``n`` -- the same sweep the CLI exposes::

    python -m repro.runner sweep fig5-resilience --grid n=600,1200 --workers 2
"""

from __future__ import annotations

from conftest import emit

from repro.analysis.reporting import render_result_rows
from repro.runner.executor import run_scenario

SMALL_N = 600
LARGE_N = 1200
CHECKPOINTS = 10


def _sweep(workers=1):
    """Both columns as one ``fig5-resilience`` grid over ``n``: one
    aggregate row per size (see :func:`repro.runner.scenarios.fig5_summary`)."""
    return run_scenario(
        "fig5-resilience",
        params={"k": 10, "max_fraction": 0.95, "checkpoints": CHECKPOINTS},
        grid={"n": [SMALL_N, LARGE_N]},
        seed=50,
        workers=workers,
    ).rows()


def _check_shapes(row):
    # 5a/5b: DDSR stays connected essentially to the end; the normal graph
    # fragments into many components.
    assert row["ddsr_stays_connected_until"] >= 0.75
    assert row["max_normal_components"] > 3 * row["max_ddsr_components"]
    # 5c/5d: DDSR degree centrality stays bounded but slightly above normal.
    assert row["ddsr_final_degree_centrality"] >= row["normal_final_degree_centrality"]
    # 5e/5f: the DDSR diameter at the end is no larger than it was initially,
    # while the normal graph's diameter (largest component) grew or the graph
    # disintegrated into tiny fragments.
    assert row["ddsr_late_diameter"] <= row["ddsr_initial_diameter"] + 1


def test_fig5_both_columns_via_runner(benchmark):
    """Figures 5a-5f: both network-size columns as one runner sweep."""
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        f"Figure 5 — DDSR vs normal graph (n={SMALL_N} and n={LARGE_N}, k=10)",
        render_result_rows(rows),
    )
    assert [row["n"] for row in rows] == [SMALL_N, LARGE_N]
    for row in rows:
        _check_shapes(row)


def test_fig5_parallel_matches_serial(benchmark):
    """The sharded executor reproduces the serial sweep bit-for-bit."""
    serial = _sweep(workers=1)
    parallel = benchmark.pedantic(lambda: _sweep(workers=2), rounds=1, iterations=1)
    assert parallel == serial
