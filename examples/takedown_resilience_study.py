#!/usr/bin/env python3
"""Takedown-resilience study: the Figure 4/5/6 experiments at laptop scale.

Regenerates, as text tables, the paper's three resilience results:

* Figure 4 -- average closeness/degree centrality under 30 % incremental
  deletions, with and without pruning (k = 5, 10, 15), swept through the
  ``fig4-centrality`` runner scenario;
* Figure 5 -- DDSR vs a normal (non-repairing) graph, both network-size
  columns as one runner grid over ``n``;
* Figure 6 -- how many nodes must be removed *simultaneously* to partition the
  overlay (the paper finds ~40 %), one runner work unit per network size.

Everything executes through :mod:`repro.runner`: pass ``--workers N`` to
shard the work units across processes (results are bit-identical to serial),
and re-run the script to watch the on-disk result cache serve every unit
instantly.  ``--fresh`` bypasses the cache; ``--paper-scale`` runs closer to
the published sizes (slower).

Run with:  python examples/takedown_resilience_study.py [--workers N] [--paper-scale]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import render_result_rows, run_fig6_partition_threshold  # noqa: E402
from repro.runner import ResultCache, run_scenario  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true",
                        help="use sizes close to the paper's (much slower)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the runner (1 = in-process)")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="result cache directory (re-runs are near-instant)")
    parser.add_argument("--fresh", action="store_true",
                        help="bypass the result cache")
    args = parser.parse_args()

    if args.paper_scale:
        fig4_n, fig5_sizes, fig6_sizes = 5000, (5000, 15000), tuple(range(1000, 8001, 1000))
    else:
        fig4_n, fig5_sizes, fig6_sizes = 600, (600, 1200), (200, 400, 600, 800)

    cache = None if args.fresh else ResultCache(args.cache_dir)

    print("=" * 72)
    print(f"Figure 4 — centrality under 30% deletions (n={fig4_n})")
    print("=" * 72)
    fig4_rows = run_scenario(
        "fig4-centrality",
        params={"n": fig4_n, "max_fraction": 0.3, "checkpoints": 6},
        grid={"degree": [5, 10, 15], "pruning": [False, True]},
        seed=1,
        workers=args.workers,
        cache=cache,
    ).rows()
    print(render_result_rows(fig4_rows))

    print()
    print("=" * 72)
    print(f"Figure 5 — DDSR vs normal graph under deletions (n={fig5_sizes}, k=10)")
    print("=" * 72)
    fig5_rows = run_scenario(
        "fig5-resilience",
        params={"k": 10, "max_fraction": 0.95, "checkpoints": 10},
        grid={"n": list(fig5_sizes)},
        seed=2,
        workers=args.workers,
        cache=cache,
    ).rows()
    print(render_result_rows(fig5_rows))
    for row in fig5_rows:
        partition = row["normal_partition_fraction"]
        print(f"\n  n={row['n']}: DDSR stays connected until "
              f"~{row['ddsr_stays_connected_until']:.0%} of nodes are deleted;"
              + (f" normal graph first partitions at ~{partition:.0%}"
                 if partition >= 0 else " normal graph never partitioned"))

    print()
    print("=" * 72)
    print("Figure 6 — simultaneous deletions needed to partition (10-regular)")
    print("=" * 72)
    fig6 = run_fig6_partition_threshold(
        sizes=fig6_sizes, k=10, seed=3, resolution=0.05, trials_per_fraction=2,
        workers=args.workers, cache=cache,
    )
    for size, count, fraction in zip(fig6.sizes, fig6.nodes_to_partition, fig6.fractions):
        print(f"  n={size:6d}: {count:6d} nodes ({fraction:.0%}) must be removed at once")
    print(f"\n  mean threshold fraction: {fig6.mean_fraction():.2f}  (paper: ~0.40)")

    if cache is not None:
        print(f"\n[runner] cache at {args.cache_dir}: "
              f"{cache.hits} unit(s) served from disk, {cache.misses} computed "
              f"(re-run this script and watch it go to 100% hits)")


if __name__ == "__main__":
    main()
