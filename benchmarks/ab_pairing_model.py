"""A/B of the k-regular pairing model: the Python plain list against C.

Generates one k-regular graph per size (retrying attempts until one
succeeds, as ``k_regular_graph`` does) under each configuration,
interleaving the configurations round by round so drift on a shared machine
hits them all alike.  A configuration is one of:

* ``list`` -- ``generators._try_pairing_model``, the Python pairing model
  over a plain list (the no-compiler fallback and the oracle), whose
  ``stubs.pop(index)`` is O(n);
* ``compiled`` -- the C pairing model from ``pairing.c``, which replays
  ``random.Random``'s draws (needs a C compiler).

Every configuration must give the same per-node adjacency in insertion
order, the same ``mutation_stamp`` and the same rng state afterwards as the
first one (the oracle, by default); all of that is asserted before any
timing is printed::

    PYTHONPATH=src python benchmarks/ab_pairing_model.py
    PYTHONPATH=src python benchmarks/ab_pairing_model.py --sizes 2000:5,20000:8 \\
        --configs list,compiled --rounds 1
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from repro.graphs import _wavekernel, generators

DEFAULT_SIZES = "2000:5,20000:8,40000:10"
DEFAULT_CONFIGS = "list,compiled"
CONFIGS = ("list", "compiled")


def generate(config, n, k, seed):
    """Time one graph under ``config``; return ``(seconds, fingerprint)``."""
    if config == "list":
        attempt = generators._try_pairing_model
    else:
        kernel = _wavekernel.load_pairing()

        def attempt(n, k, rng):
            return generators._compiled_pairing_model(kernel, n, k, rng, 1)
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
                        help="comma-separated: 'list' or 'compiled'")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = [tuple(int(part) for part in item.split(":")) for item in args.sizes.split(",")]
    configs = args.configs.split(",")
    unknown = [config for config in configs if config not in CONFIGS]
    if unknown:
        print(f"error: unknown configuration(s) {', '.join(unknown)}", file=sys.stderr)
        return 2
    if "compiled" in configs and _wavekernel.load_pairing() is None:
        print("error: the compiled pairing model did not build (no C compiler?)",
              file=sys.stderr)
        return 1
    times = {(size, config): [] for size in sizes for config in configs}
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

    print(f"rounds={args.rounds} seed={args.seed}; "
          "all configurations identical (adjacency order, mutation_stamp, rng state)")
    print(f"{'n:k':<10} {'config':<8} {'min_s':>7} {'median_s':>9}")
    for (size, config), samples in times.items():
        print(f"{'%d:%d' % size:<10} {config:<8} {min(samples):7.3f} "
              f"{statistics.median(samples):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
