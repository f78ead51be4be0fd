"""Figure 4 -- closeness and degree centrality, with and without pruning.

Paper setup: k-regular graphs (k = 5, 10, 15) of 5000 nodes, 30 % incremental
node deletions, average closeness centrality (4a/4b) and degree centrality
(4c/4d) with and without pruning.  The benchmark regenerates all four panels
at a reduced default size (the shapes are size-independent; pass the paper's
n=5000 through ``run_fig4_centrality`` to reproduce the original scale).

Expected shapes (paper): closeness centrality stays roughly flat under
deletions in both variants; degree centrality grows sharply *without* pruning
and stays near its initial value *with* pruning.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis.experiments import run_fig4_centrality
from repro.analysis.reporting import format_series

#: Reduced-scale parameters used by the benchmark run.
N_NODES = 600
CHECKPOINTS = 6
DEGREES = (5, 10, 15)


def _render(results):
    lines = []
    for curve in results:
        lines.append(format_series(f"closeness[{curve.label()}]", curve.deletions, curve.closeness))
        lines.append(
            format_series(
                f"degree-centrality[{curve.label()}]", curve.deletions, curve.degree_centrality
            )
        )
    return "\n".join(lines)


def test_fig4ab_closeness_with_and_without_pruning(benchmark):
    """Figures 4a/4b: average closeness centrality under 30 % deletions."""

    def run():
        with_pruning = run_fig4_centrality(
            n=N_NODES, degrees=DEGREES, checkpoints=CHECKPOINTS,
            pruning=True, seed=4,
        )
        without_pruning = run_fig4_centrality(
            n=N_NODES, degrees=DEGREES, checkpoints=CHECKPOINTS,
            pruning=False, seed=4,
        )
        return with_pruning, without_pruning

    with_pruning, without_pruning = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Figure 4a — closeness centrality (without pruning)", _render(without_pruning))
    emit("Figure 4b — closeness centrality (with pruning)", _render(with_pruning))

    # Shape check: closeness does not collapse under deletions in either case.
    for curve in (*with_pruning, *without_pruning):
        assert curve.closeness[-1] > 0.5 * curve.closeness[0]


def test_fig4cd_degree_centrality_with_and_without_pruning(benchmark):
    """Figures 4c/4d: average degree centrality under 30 % deletions."""

    def run():
        with_pruning = run_fig4_centrality(
            n=N_NODES, degrees=DEGREES, checkpoints=CHECKPOINTS,
            pruning=True, seed=5,
        )
        without_pruning = run_fig4_centrality(
            n=N_NODES, degrees=DEGREES, checkpoints=CHECKPOINTS,
            pruning=False, seed=5,
        )
        return with_pruning, without_pruning

    with_pruning, without_pruning = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Figure 4c — degree centrality (without pruning)", _render(without_pruning))
    emit("Figure 4d — degree centrality (with pruning)", _render(with_pruning))

    for pruned, unpruned in zip(with_pruning, without_pruning):
        # Without pruning the degree (and its centrality) inflates well beyond
        # the pruned variant; with pruning the maximum degree stays <= d_max.
        assert unpruned.degree_centrality[-1] > pruned.degree_centrality[-1]
        assert max(pruned.max_degree) <= 15
        assert max(unpruned.max_degree) > 15
