"""A/B of the k-regular pairing model: plain stub list vs. blocks + Fenwick tree.

Generates one k-regular graph per size with ``generators._try_pairing_model``
(retried until an attempt succeeds, as ``k_regular_graph`` does) under each
configuration, interleaving the configurations round by round so drift on a
shared machine hits them all alike.  A configuration is either ``list`` --
the original algorithm over a plain Python list, kept here as the oracle,
whose ``stubs.pop(index)`` is O(n) -- or a block size for
``generators.STUB_BLOCK``.  Every configuration must give the same per-node
adjacency in insertion order, the same ``mutation_stamp`` and the same rng
state afterwards as the oracle; all of that is asserted before any timing
is printed.

This is the A/B behind ``generators.STUB_BLOCK``::

    PYTHONPATH=src python benchmarks/ab_pairing_model.py
    PYTHONPATH=src python benchmarks/ab_pairing_model.py --sizes 2000:5,20000:8 --rounds 1
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from repro.graphs import generators
from repro.graphs.adjacency import UndirectedGraph

DEFAULT_SIZES = "2000:5,20000:8,40000:10,100000:10"
DEFAULT_CONFIGS = "list,64,256,1024,4096"


def list_pairing_model(n, k, rng):
    """The pairing model over a plain list: the oracle for ``_StubList``."""
    stubs = [node for node in range(n) for _ in range(k)]
    rng.shuffle(stubs)
    graph = UndirectedGraph(nodes=range(n))
    while stubs:
        u = stubs.pop()
        placed = False
        for attempt in range(len(stubs)):
            index = rng.randrange(len(stubs))
            v = stubs[index]
            if v != u and not graph.has_edge(u, v):
                stubs.pop(index)
                graph.add_edge(u, v)
                placed = True
                break
        if not placed:
            return None
    if any(graph.degree(node) != k for node in range(n)):
        return None
    return graph


def generate(config, n, k, seed):
    """Time one graph under ``config``; return ``(seconds, fingerprint)``."""
    if config == "list":
        attempt = list_pairing_model
    else:
        generators.STUB_BLOCK = int(config)
        attempt = generators._try_pairing_model
    rng = random.Random(seed)
    started = time.perf_counter()
    graph = None
    while graph is None:
        graph = attempt(n, k, rng)
    seconds = time.perf_counter() - started
    adjacency = [list(graph._adjacency[node]) for node in graph]
    return seconds, (adjacency, graph.mutation_stamp, rng.getstate())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=DEFAULT_SIZES, help="comma-separated n:k")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS,
                        help="comma-separated: 'list' or a block size")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = [tuple(int(part) for part in item.split(":")) for item in args.sizes.split(",")]
    configs = args.configs.split(",")
    default_block = generators.STUB_BLOCK
    times = {(size, config): [] for size in sizes for config in configs}
    try:
        for n, k in sizes:
            expected = None
            for _ in range(args.rounds):
                for config in configs:
                    seconds, fingerprint = generate(config, n, k, args.seed)
                    times[(n, k), config].append(seconds)
                    if expected is None:
                        expected = fingerprint
                    elif fingerprint != expected:
                        print(f"error: {config} disagrees at n={n} k={k}", file=sys.stderr)
                        return 1
    finally:
        generators.STUB_BLOCK = default_block

    print(f"rounds={args.rounds} seed={args.seed} STUB_BLOCK={default_block}; "
          "all configurations identical (adjacency order, mutation_stamp, rng state)")
    print(f"{'n:k':<10} {'config':<8} {'min_s':>7} {'median_s':>9}")
    for (size, config), samples in times.items():
        print(f"{'%d:%d' % size:<10} {config:<8} {min(samples):7.3f} "
              f"{statistics.median(samples):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
