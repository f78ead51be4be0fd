"""A/B of the wave engines behind ``fast.accumulate_path_shard``.

Times one full-population accumulation (every node a source) per engine
configuration, interleaving the configurations round by round so drift on
a shared machine hits them all alike, and asserts every configuration
returns the same ``(ecc, totals)`` integers before any timing is printed.
A configuration is ``engine:width:mode``:

* ``engine`` -- ``numpy`` (the plain dense fallback wave), ``compiled``
  (the kernel built from the working tree's ``wavekernel.c``) or
  ``against`` (a kernel built from the ``--against`` source, e.g. an older
  ``wavekernel.c``, into a temporary directory);
* ``width``  -- sources per wave: ``auto`` (``fast._wave_width``'s rule)
  or an integer, substituted for ``fast._wave_width``;
* ``mode``   -- the compiled kernel's ``adaptive``, ``dense`` or ``sparse``
  (``fast.WAVE_STEP_MODE``); the numpy wave has one mode, ``dense``.

This is the A/B behind ``fast.WAVE_WORDS`` and the compiled kernel's sparse
step::

    PYTHONPATH=src python benchmarks/ab_wave_kernel.py --graph kregular --n 20000 --k 8
    PYTHONPATH=src python benchmarks/ab_wave_kernel.py --graph ring --n 5000 --rounds 3

and, with ``--against``, the before/after A/B of a kernel edit (the
configurations then default to the two kernels at the default width)::

    git show HEAD~1:src/repro/graphs/wavekernel.c > /tmp/wavekernel-before.c
    PYTHONPATH=src python benchmarks/ab_wave_kernel.py --against /tmp/wavekernel-before.c \
        --rounds 11
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.graphs import _wavekernel, fast
from repro.graphs.generators import k_regular_graph, ring_graph

DEFAULT_CONFIGS = (
    "numpy:auto:dense,compiled:64:adaptive,compiled:128:adaptive,"
    "compiled:256:adaptive,compiled:512:adaptive,compiled:128:dense"
)
AGAINST_CONFIGS = "against:auto:adaptive,compiled:auto:adaptive"


def build_against(source: Path, cache_home: str):
    """The wave entry point of a library built from ``source`` in place of
    ``wavekernel.c`` (with the working tree's other sources) under
    ``cache_home``, or ``None`` when it does not build."""
    saved_sources, saved_home = _wavekernel.SOURCES, os.environ.get("XDG_CACHE_HOME")
    _wavekernel.SOURCES = (source.resolve(), *saved_sources[1:])
    os.environ["XDG_CACHE_HOME"] = cache_home
    try:
        library = _wavekernel._load()
    finally:
        _wavekernel.SOURCES = saved_sources
        if saved_home is None:
            del os.environ["XDG_CACHE_HOME"]
        else:
            os.environ["XDG_CACHE_HOME"] = saved_home
    return None if library is None else library.repro_wave_accumulate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", choices=("kregular", "ring"), default="kregular")
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--sources", type=int, default=None, help="default: all nodes")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--configs", default=None,
                        help=f"default: {DEFAULT_CONFIGS} ({AGAINST_CONFIGS} with --against)")
    parser.add_argument("--against", type=Path, default=None,
                        help="a wavekernel.c to build as the 'against' engine")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-wave-") as cache_home:
        engines = {"numpy": None, "compiled": _wavekernel.load()}
        if engines["compiled"] is None:
            print("error: the compiled kernel did not build or load", file=sys.stderr)
            return 2
        if args.against is not None:
            engines["against"] = build_against(args.against, cache_home)
            if engines["against"] is None:
                print(f"error: {args.against} did not build or load", file=sys.stderr)
                return 2
        configs = args.configs or (DEFAULT_CONFIGS if args.against is None else AGAINST_CONFIGS)
        return run(args, engines, configs)


def run(args, engines, configs) -> int:
    """Time every configuration of ``configs`` on ``engines``; see main."""
    if args.graph == "ring":
        graph = ring_graph(args.n)
    else:
        graph = k_regular_graph(args.n, args.k, seed=0)
    csr = fast.csr_of(graph)
    sources = np.arange(args.sources or csr.n, dtype=np.int64)
    configs = [tuple(item.split(":")) for item in configs.split(",")]
    for engine, width, mode in configs:
        allowed = ("dense",) if engine == "numpy" else tuple(fast._KERNEL_MODES)
        width_ok = width == "auto" or (width.isdigit() and int(width) > 0)
        if engine not in engines or mode not in allowed or not width_ok:
            print(f"error: unknown configuration {engine}:{width}:{mode}", file=sys.stderr)
            return 2
    auto_width = fast._wave_width
    times = {config: [] for config in configs}
    expected = None
    for _ in range(args.rounds):
        for config in configs:
            engine, width, mode = config
            chosen = engines[engine]
            _wavekernel.load = lambda chosen=chosen: chosen
            fast.WAVE_STEP_MODE = mode
            fast._wave_width = auto_width if width == "auto" else (
                lambda csr, total_sources, width=int(width): width
            )
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
