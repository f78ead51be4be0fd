"""A/B of the wave engines behind ``fast.accumulate_path_shard``.

Times one full-population accumulation (every node a source) per engine
configuration, interleaving the configurations round by round so drift on
a shared machine hits them all alike, and asserts every configuration
returns the same ``(ecc, totals)`` integers before any timing is printed.
A configuration is ``engine:width:mode``:

* ``engine`` -- ``numpy`` or ``compiled``;
* ``width``  -- sources per wave (``auto`` or an integer; see
  ``REPRO_BFS_BATCH``);
* ``mode``   -- ``adaptive``, ``dense`` or ``sparse`` (``fast.WAVE_STEP_MODE``).

This is the A/B behind ``fast.COMPILED_WAVE_WORDS`` and the compiled
kernel's sparse step::

    PYTHONPATH=src python benchmarks/ab_wave_kernel.py --graph kregular --n 20000 --k 8
    PYTHONPATH=src python benchmarks/ab_wave_kernel.py --graph ring --n 5000 --rounds 3
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from repro.graphs import _wavekernel, backend, fast
from repro.graphs.generators import k_regular_graph, ring_graph

DEFAULT_CONFIGS = (
    "numpy:auto:adaptive,compiled:64:adaptive,compiled:128:adaptive,"
    "compiled:256:adaptive,compiled:512:adaptive,compiled:128:dense"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", choices=("kregular", "ring"), default="kregular")
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--sources", type=int, default=None, help="default: all nodes")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--configs", default=DEFAULT_CONFIGS)
    args = parser.parse_args(argv)

    kernel = _wavekernel.load()
    if kernel is None:
        print("error: the compiled kernel did not build or load", file=sys.stderr)
        return 2
    if args.graph == "ring":
        graph = ring_graph(args.n)
    else:
        graph = k_regular_graph(args.n, args.k, seed=0)
    csr = fast.csr_of(graph)
    sources = np.arange(args.sources or csr.n, dtype=np.int64)
    configs = [tuple(item.split(":")) for item in args.configs.split(",")]
    times = {config: [] for config in configs}
    expected = None
    for _ in range(args.rounds):
        for config in configs:
            engine, width, mode = config
            chosen = None if engine == "numpy" else kernel
            _wavekernel.load = lambda chosen=chosen: chosen
            fast.WAVE_STEP_MODE = mode
            with backend.using_bfs_batch(width):
                started = time.perf_counter()
                result = fast.accumulate_path_shard(csr, sources)
                times[config].append(time.perf_counter() - started)
            if expected is None:
                expected = result
            if not all(np.array_equal(a, b) for a, b in zip(result, expected)):
                print(f"error: {':'.join(config)} disagrees", file=sys.stderr)
                return 1
    print(f"{args.graph} n={csr.n} m={csr.indices.size // 2} sources={sources.size} "
          f"rounds={args.rounds}")
    print(f"{'config':<26} {'min_s':>7} {'median_s':>9}")
    for config, samples in times.items():
        print(f"{':'.join(config):<26} {min(samples):7.3f} {statistics.median(samples):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
