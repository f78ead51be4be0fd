"""A/B of the SOAP campaign: collector running vs. paused, compiled vs. Python loop.

Runs one full ``SoapAttack.run_campaign`` per size, plus the benign-subgraph
summary that follows it in ``soap-at-scale``, under each configuration,
interleaving the configurations round by round so drift on a shared machine
hits them all alike.  A configuration is one of:

* ``compiled`` -- the shipped code: the collector paused and each target's
  clone/prune loop in ``soap.c`` (needs a C compiler);
* ``python`` -- the collector paused and the compiled loop turned off
  (``_wavekernel.load_soap`` returns ``None``), so every target runs the
  Python ``contain_node``;
* ``running`` -- the shipped code with ``soap._collector_paused`` replaced by
  a null context, so the campaign runs with the collector as the caller left
  it (enabled).

Every configuration must give the same ``SoapCampaignResult``, the same
attack and overlay rng states, the same ``overlay.stats``, the same
``mutation_stamp`` and every node's adjacency in the same iteration order as
the first one; all of that is asserted before any timing is printed.

Per configuration it reports the campaign and summary seconds, the
collector's own time (every generation) and the full (generation-2)
collections -- count and seconds -- measured through ``gc.callbacks`` across
both phases, and the objects those collections freed::

    PYTHONPATH=src python benchmarks/ab_soap_collector.py
    PYTHONPATH=src python benchmarks/ab_soap_collector.py --sizes 4000:10 --rounds 1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import random
import statistics
import sys
import time

from repro.adversary import soap
from repro.core.ddsr import DDSROverlay
from repro.graphs import _wavekernel

DEFAULT_SIZES = "20000:10,40000:10"
DEFAULT_CONFIGS = "running,python,compiled"
CONFIGS = ("running", "python", "compiled")


class CollectorLog:
    """``gc.callbacks`` hook: seconds per generation and objects collected."""

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.counts = [0, 0, 0]
        self.collected = 0
        self._started = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.seconds[generation] += time.perf_counter() - self._started
        self.counts[generation] += 1
        self.collected += info["collected"]


def campaign(config, n, k, seed):
    """One campaign under ``config``; return ``(timings, fingerprint)``."""
    overlay = DDSROverlay.k_regular(n, k, seed=seed)
    compromised = random.Random(seed + 13).sample(overlay.nodes(), 1)
    attack = soap.SoapAttack(rng=random.Random(seed + 17))
    paused = soap._collector_paused
    load_soap = _wavekernel.load_soap
    if config == "running":
        soap._collector_paused = contextlib.nullcontext
    elif config == "python":
        _wavekernel.load_soap = lambda: None
    gc.collect()
    log = CollectorLog()
    gc.callbacks.append(log)
    try:
        started = time.perf_counter()
        result = attack.run_campaign(overlay, compromised)
        campaign_s = time.perf_counter() - started
        started = time.perf_counter()
        summary = soap.SoapAttack.benign_subgraph_components(overlay)
        components_s = time.perf_counter() - started
    finally:
        gc.callbacks.remove(log)
        soap._collector_paused = paused
        _wavekernel.load_soap = load_soap
    assert result.neutralized and summary["nontrivial_components"] == 0
    timings = {
        "campaign_s": campaign_s,
        "components_s": components_s,
        "gc_s": sum(log.seconds),
        "full": log.counts[2],
        "full_s": log.seconds[2],
        "collected": log.collected,
    }
    fingerprint = (
        result,
        attack.rng.getstate(),
        overlay.rng.getstate(),
        overlay.stats.as_dict(),
        overlay.graph.mutation_stamp,
        [(node, list(peers)) for node, peers in overlay.graph._adjacency.items()],
    )
    return timings, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=DEFAULT_SIZES, help="comma-separated n:k")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS,
                        help="comma-separated: " + ", ".join(CONFIGS))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = [tuple(int(part) for part in item.split(":")) for item in args.sizes.split(",")]
    configs = args.configs.split(",")
    unknown = sorted(set(configs) - set(CONFIGS))
    if unknown:
        parser.error(f"unknown configuration(s): {', '.join(unknown)}")
    if "compiled" in configs and _wavekernel.load_soap() is None:
        print("error: the compiled containment loop did not build (no C compiler?)",
              file=sys.stderr)
        return 1
    samples = {(size, config): [] for size in sizes for config in configs}
    for n, k in sizes:
        expected = None
        for _ in range(args.rounds):
            for config in configs:
                timings, fingerprint = campaign(config, n, k, args.seed)
                samples[(n, k), config].append(timings)
                if expected is None:
                    expected = fingerprint
                elif fingerprint != expected:
                    print(f"error: {config} disagrees at n={n} k={k}", file=sys.stderr)
                    return 1
                # Drop this configuration's result before the next campaign runs.
                del fingerprint
                gc.collect()

    print(f"rounds={args.rounds} seed={args.seed}; all configurations identical (result, "
          "rng states, overlay.stats, mutation_stamp, adjacency order); medians over rounds")
    print(f"{'n:k':<9} {'config':<8} {'campaign_s':>10} {'components_s':>12} "
          f"{'gc_s':>6} {'full':>5} {'full_s':>7} {'collected':>9}")
    for (size, config), runs in samples.items():
        def median(key):
            return statistics.median(run[key] for run in runs)

        print(f"{'%d:%d' % size:<9} {config:<8} {median('campaign_s'):10.3f} "
              f"{median('components_s'):12.3f} {median('gc_s'):6.3f} "
              f"{median('full'):5.0f} {median('full_s'):7.3f} {median('collected'):9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
