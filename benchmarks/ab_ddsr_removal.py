"""A/B of DDSR deletion and repair: the Python loop against ``ddsr.c``.

Runs the deletion half of one ``resilience-at-scale`` campaign per size --
a k-regular DDSR overlay loses ``--fraction`` of its nodes, one at a time,
through ``DDSROverlay.remove_nodes`` in ``--batches`` batches (clique
repair, highest-degree pruning, the scenario's wiring and victim seeds) --
under each configuration, interleaving the configurations round by round
so drift on a shared machine hits them all alike.  Between batches the
graph's CSR is fetched (``fast.csr_of``, untimed), as each checkpoint's
measurement does in the scenario: a build on a set graph, the graph itself
on a packed one.  A configuration is one of:

* ``python`` -- the compiled loop turned off (``_wavekernel.load_ddsr``
  returns ``None``), so every removal runs the Python loop (the
  no-compiler fallback and the oracle);
* ``compiled`` -- the overlay materialized on adjacency sets right after
  construction, then each batch decided in ``ddsr.c`` on a replay of the
  overlay's rng, its op list applied in Python (needs a C compiler and
  numpy >= 2.0);
* ``packed`` -- the shipped code: the overlay stays packed (its CSR is its
  only copy) and each batch's ``ddsr.c`` rows become the next CSR; no
  adjacency set is built.

``python`` and ``compiled`` must leave every node's adjacency in the same
iteration order; every configuration must leave the same neighbour sets,
node order, ``overlay.stats``, ``mutation_stamp``, rng state and
``forgotten`` as ``python`` (a ``packed`` node's peers follow C's order).
All of that is asserted before any timing is printed.  ``adj_mb`` is what
the graph takes after the campaign, in MB: the adjacency sets
(``sys.getsizeof`` summed over them; a set whose table repair grew and
nobody rebuilt shows up there), or a packed graph's CSR arrays::

    PYTHONPATH=src python benchmarks/ab_ddsr_removal.py
    PYTHONPATH=src python benchmarks/ab_ddsr_removal.py --sizes 2000:5,20000:8 \
        --configs python,compiled,packed --rounds 1
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.core.ddsr import DDSROverlay
from repro.graphs import _wavekernel, fast
from repro.graphs.backend import fast_available
from repro.sim.rng import derive_seed
from repro.workloads.deletion import DeletionSchedule

DEFAULT_SIZES = "2000:5,20000:8,100000:10"
DEFAULT_CONFIGS = "python,compiled,packed"
CONFIGS = ("python", "compiled", "packed")


def campaign(config, n, k, seed, fraction, batches):
    """One deletion campaign under ``config``.

    Returns ``(seconds, graph bytes, fingerprint)``; the fingerprint's first
    entry holds each node's peers in iteration order, the rest neighbour
    sets and the other state.
    """
    overlay = DDSROverlay.k_regular(n, k, seed=derive_seed(seed, "wiring"))
    if config != "packed":
        overlay.graph._adjacency
    schedule = DeletionSchedule.random(
        overlay.nodes(), fraction, seed=derive_seed(seed, "victims")
    )
    size = max(1, len(schedule) // batches) if len(schedule) else 1
    load_ddsr = _wavekernel.load_ddsr
    if config == "python":
        _wavekernel.load_ddsr = lambda: None
    seconds = 0.0
    try:
        for victims in schedule.batches(size):
            fast.csr_of(overlay.graph)
            started = time.perf_counter()
            overlay.remove_nodes(victims)
            seconds += time.perf_counter() - started
    finally:
        _wavekernel.load_ddsr = load_ddsr
    csr = overlay.graph._packed
    if config == "packed" and csr is None:
        raise AssertionError("the packed overlay materialized during its removals")
    if csr is not None:
        graph_bytes = csr.indptr.nbytes + csr.indices.nbytes
    else:
        graph_bytes = sum(map(sys.getsizeof, overlay.graph._adjacency.values()))
    adjacency = overlay.graph._adjacency
    fingerprint = (
        [(node, list(peers)) for node, peers in adjacency.items()],
        [(node, sorted(peers)) for node, peers in adjacency.items()],
        overlay.stats.as_dict(),
        overlay.graph.mutation_stamp,
        overlay.rng.getstate(),
        list(overlay.forgotten),
    )
    return seconds, graph_bytes, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=DEFAULT_SIZES, help="comma-separated n:k")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS,
                        help="comma-separated: " + ", ".join(CONFIGS))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fraction", type=float, default=0.1,
                        help="share of the nodes deleted (the scenario's max_fraction)")
    parser.add_argument("--batches", type=int, default=6,
                        help="victim batches (the scenario's checkpoints)")
    args = parser.parse_args(argv)

    sizes = [tuple(int(part) for part in item.split(":")) for item in args.sizes.split(",")]
    configs = args.configs.split(",")
    unknown = sorted(set(configs) - set(CONFIGS))
    if unknown:
        parser.error(f"unknown configuration(s): {', '.join(unknown)}")
    if not fast_available():
        print("error: the CSR mirror needs numpy >= 2.0", file=sys.stderr)
        return 1
    if {"compiled", "packed"} & set(configs) and _wavekernel.load_ddsr() is None:
        print("error: the compiled deletion loop did not build (no C compiler?)",
              file=sys.stderr)
        return 1
    samples = {(size, config): [] for size in sizes for config in configs}
    adjacency_mb = {}
    repair_edges = {}
    for n, k in sizes:
        expected = expected_order = None
        for _ in range(args.rounds):
            for config in configs:
                seconds, graph_bytes, fingerprint = campaign(
                    config, n, k, args.seed, args.fraction, args.batches
                )
                samples[(n, k), config].append(seconds)
                adjacency_mb[(n, k), config] = graph_bytes / 1e6
                order, rest = fingerprint[0], fingerprint[1:]
                del fingerprint
                if expected is None:
                    expected = rest
                    repair_edges[n, k] = rest[1]["repair_edges_added"]
                # A packed node's peers follow C's order: sets only.
                if config != "packed" and expected_order is None:
                    expected_order = order
                if rest != expected or (config != "packed" and order != expected_order):
                    print(f"error: {config} disagrees at n={n} k={k}", file=sys.stderr)
                    return 1
                del order, rest

    print(f"rounds={args.rounds} seed={args.seed} fraction={args.fraction} "
          f"batches={args.batches}; all configurations identical (neighbour sets, "
          "overlay.stats, mutation_stamp, rng state, forgotten; adjacency order "
          "except packed); medians over rounds")
    print(f"{'n:k':<9} {'config':<9} {'remove_s':>9} {'repair_edges':>12} {'adj_mb':>8}")
    for (size, config), runs in samples.items():
        print(f"{'%d:%d' % size:<9} {config:<9} {statistics.median(runs):9.3f} "
              f"{repair_edges[size]:12d} {adjacency_mb[size, config]:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
