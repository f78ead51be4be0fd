"""Golden regression tests for the paper-figure scenarios.

Each case pins the *exact* metric outputs of a Figure 4/5/6 runner scenario
(plus the two at-scale scenarios) at small n and a fixed seed, evaluated under
**both** graph backends.  Two properties are locked down at once:

* refactors cannot silently drift the paper numbers (the values below were
  produced by the reviewed implementation and are asserted bit-for-bit);
* the fast CSR backend stays interchangeable with the pure-Python reference
  at the full-scenario level, not just kernel by kernel.

All arithmetic on both paths is integer BFS work followed by float division
in a fixed order, so exact equality is portable across platforms.  If a
*deliberate* behaviour change moves these numbers, regenerate them with the
commands in the docstrings and say so in the commit message.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.graphs import backend
from repro.runner.registry import get_scenario

#: (scenario, params, seed) -> exact expected metrics.
GOLDENS = [
    (
        "fig4-centrality",
        {
            "n": 120,
            "degree": 6,
            "pruning": True,
            "max_fraction": 0.3,
            "checkpoints": 3,
        },
        2024,
        {
            # Exact closeness (every node a BFS source) at every checkpoint.
            "initial_closeness": 0.3479131289907229,
            "final_closeness": 0.5115859756541351,
            "closeness_drop": -0.1636728466634122,
            "final_degree_centrality": 0.16609294320137694,
            "max_degree_observed": 15.0,
        },
    ),
    (
        "fig5-resilience",
        {"n": 120, "k": 10, "max_fraction": 0.9, "checkpoints": 6},
        77,
        {
            "ddsr_stays_connected_until": 0.9,
            "normal_partition_fraction": 0.75,
            "max_ddsr_components": 1.0,
            "max_normal_components": 5.0,
            "ddsr_final_degree_centrality": 0.5172413793103449,
            "normal_final_degree_centrality": 0.08505747126436781,
            "ddsr_initial_diameter": 4.0,
            "ddsr_late_diameter": 2.0,
        },
    ),
    (
        "fig6-partition-threshold",
        {"size": 150, "k": 10, "resolution": 0.05, "trials_per_fraction": 2},
        9,
        {"fraction": 0.55, "nodes_to_partition": 82.0},
    ),
    (
        # Diameter, ASPL and closeness are exact full-population values from
        # the one-campaign accumulator path.
        "resilience-at-scale",
        {"n": 400, "k": 10, "max_fraction": 0.5, "checkpoints": 4},
        5,
        {
            "n": 400.0,
            "deleted": 200.0,
            "survivors": 200.0,
            "stayed_connected_until_fraction": 0.5,
            "final_components": 1.0,
            "final_largest_fraction": 1.0,
            "initial_diameter": 4.0,
            "final_diameter": 3.0,
            "initial_avg_path_length": 2.839987468671679,
            "final_avg_path_length": 2.2272361809045225,
            "initial_avg_closeness": 0.3521321221062865,
            "final_avg_closeness": 0.44903600009225864,
            "final_degree_centrality": 0.07512562814070352,
            "repair_edges_added": 17216.0,
            "max_degree": 15.0,
        },
    ),
    (
        "partition-threshold-at-scale",
        {"size": 300, "k": 10, "resolution": 0.05, "trials_per_fraction": 1},
        3,
        {
            "fraction": 0.6,
            "nodes_to_partition": 180.0,
            "surviving_at_threshold": 120.0,
            "components_at_threshold": 1.0,
            "largest_fraction_at_threshold": 1.0,
            "isolated_at_threshold": 0.0,
        },
    ),
]

IDS = [name for name, _, _, _ in GOLDENS]


@pytest.mark.parametrize("graph_backend", ["python", "fast"])
@pytest.mark.parametrize("name,params,seed,expected", GOLDENS, ids=IDS)
def test_figure_scenario_goldens(graph_backend, name, params, seed, expected):
    """The scenario reproduces its pinned metrics exactly, on either backend.

    Regenerate (after a *deliberate* change) with::

        PYTHONPATH=src python - <<'PY'
        from repro.runner.registry import get_scenario
        print(get_scenario(NAME).call(seed=SEED, **PARAMS))
        PY
    """
    with backend.using(graph_backend):
        result = get_scenario(name).call(seed=seed, **params)
    assert result == expected


@pytest.mark.parametrize("name,params,seed,expected", GOLDENS, ids=IDS)
def test_backends_agree_bit_for_bit(name, params, seed, expected):
    """Beyond the pins: both backends produce the identical metric mapping."""
    with backend.using("python"):
        reference = get_scenario(name).call(seed=seed, **params)
    with backend.using("fast"):
        vectorized = get_scenario(name).call(seed=seed, **params)
    assert vectorized == reference
