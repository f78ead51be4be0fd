"""Takedown strategies against the overlay.

The paper's resilience evaluation (section V-B, Figures 4--6) deletes nodes in
two regimes:

* **incremental / gradual** -- nodes are removed one at a time (cleanup,
  seizures), giving the DDSR overlay the chance to run its repair step after
  every deletion;
* **simultaneous** -- a coordinated mass takedown (e.g. DoSing many hidden
  services at once) removes a whole set before any repair can happen; Figure 6
  shows roughly 40 % of the nodes must go at once to partition the overlay.

Each strategy here produces the victim sequence and applies it to a
:class:`~repro.core.ddsr.DDSROverlay`, returning a :class:`TakedownResult`
with the partition/degree statistics the experiments plot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence

from repro.core.ddsr import DDSROverlay

NodeId = Hashable


@dataclass
class TakedownResult:
    """Outcome of a takedown campaign against an overlay."""

    strategy: str
    victims: List[NodeId]
    surviving_nodes: int
    connected_components: int
    largest_component_fraction: float
    max_degree: int
    repairs_performed: int
    #: ``{diameter, avg_path_length, avg_closeness}`` of the surviving
    #: largest component; populated only when the strategy was asked to
    #: record path metrics (``GradualTakedown(path_metrics=True)``).
    path_metrics: Optional[dict] = None

    @property
    def removed(self) -> int:
        """Number of nodes removed by the campaign."""
        return len(self.victims)

    @property
    def partitioned(self) -> bool:
        """Whether the surviving overlay split into multiple components."""
        return self.connected_components > 1


def _summarize(strategy: str, overlay: DDSROverlay, victims: List[NodeId]) -> TakedownResult:
    components, largest_fraction = overlay.connectivity_summary()
    return TakedownResult(
        strategy=strategy,
        victims=victims,
        surviving_nodes=overlay.graph.number_of_nodes(),
        connected_components=components,
        largest_component_fraction=largest_fraction,
        max_degree=overlay.max_degree(),
        repairs_performed=overlay.stats.repairs_performed,
    )


@dataclass
class RandomTakedown:
    """Remove uniformly random nodes one at a time (repair runs in between)."""

    count: int
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def execute(self, overlay: DDSROverlay) -> TakedownResult:
        """Run the campaign against ``overlay`` (mutating it)."""
        victims: List[NodeId] = []
        for _ in range(self.count):
            nodes = overlay.nodes()
            if not nodes:
                break
            victim = self.rng.choice(nodes)
            overlay.remove_node(victim)
            victims.append(victim)
        return _summarize("random", overlay, victims)


@dataclass
class TargetedDegreeTakedown:
    """Always remove the current highest-degree node (hub-targeted cleanup).

    The per-victim candidate search runs through
    :func:`repro.graphs.backend.top_degree_nodes`: at paper scale that is an
    argmax over the CSR degree array, rebuilt after each victim.  The
    candidate list (and therefore the rng draw) is identical on both
    backends.
    """

    count: int
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    def execute(self, overlay: DDSROverlay) -> TakedownResult:
        """Run the campaign against ``overlay`` (mutating it)."""
        from repro.graphs.backend import top_degree_nodes

        victims: List[NodeId] = []
        for _ in range(self.count):
            candidates = top_degree_nodes(overlay.graph)
            if not candidates:
                break
            victim = self.rng.choice(candidates)
            overlay.remove_node(victim)
            victims.append(victim)
        return _summarize("targeted-degree", overlay, victims)


@dataclass
class SimultaneousTakedown:
    """Remove a whole set of nodes at once, before any repair can run.

    ``allow_post_repair`` controls whether the survivors get to heal *after*
    the mass removal (the paper's Figure 6 measures partitioning immediately,
    i.e. with no time to self-repair).
    """

    fraction: float
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    allow_post_repair: bool = False

    def execute(self, overlay: DDSROverlay) -> TakedownResult:
        """Run the mass takedown against ``overlay`` (mutating it)."""
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        nodes = overlay.nodes()
        count = int(round(self.fraction * len(nodes)))
        victims = self.rng.sample(nodes, count) if count else []
        neighbor_sets = []
        for victim in victims:
            neighbors = overlay.remove_node(victim, repair=False)
            neighbor_sets.append(neighbors)
        if self.allow_post_repair:
            overlay.repair_after_mass_removal(neighbor_sets)
        return _summarize("simultaneous", overlay, list(victims))


@dataclass
class GradualTakedown:
    """Remove a fraction of nodes one at a time, recording metrics along the way.

    ``checkpoints`` gives the number of intermediate measurements; the caller
    receives one :class:`TakedownResult` per checkpoint, which is how the
    Figure 4/5 curves are produced.

    ``path_metrics=True`` additionally records the largest component's
    diameter, average shortest path length and average closeness at every
    checkpoint (``metric_sample`` sources for the path estimators, exact
    full-population closeness) -- affordable even at 100k-node scale now
    that the checkpoints ride the adaptive multi-word frontier engine.
    ``metric_sample=None`` upgrades every checkpoint to **exact**
    full-population path metrics: diameter, ASPL and closeness all come from
    one wave campaign per checkpoint
    (:func:`repro.graphs.backend.full_path_metrics`), no sampling anywhere.
    ``path_workers > 1`` then shards each exact campaign's sources across
    the invocation-wide persistent worker pool
    (:mod:`repro.runner.pool`) -- consecutive checkpoints reuse the same
    pool and shared-memory CSR publication, and the merged int64
    accumulators keep every checkpoint bit-identical to serial.
    """

    fraction: float
    checkpoints: int = 10
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    path_metrics: bool = False
    metric_sample: Optional[int] = 32
    metric_rng: Optional[random.Random] = None
    path_workers: int = 1

    def _checkpoint(self, overlay: DDSROverlay, removed: List[NodeId]) -> TakedownResult:
        if not self.path_metrics:
            return _summarize("gradual", overlay, removed)
        # One component scan serves both the summary fields and the path
        # metrics (path_metric_summary reports the same component counts
        # _summarize would recompute).
        summary = overlay.path_metric_summary(
            sample_size=self.metric_sample,
            rng=self.metric_rng,
            path_workers=self.path_workers,
        )
        return TakedownResult(
            strategy="gradual",
            victims=removed,
            surviving_nodes=overlay.graph.number_of_nodes(),
            connected_components=summary["components"],
            largest_component_fraction=summary["largest_fraction"],
            max_degree=overlay.max_degree(),
            repairs_performed=overlay.stats.repairs_performed,
            path_metrics={
                "diameter": summary["diameter"],
                "avg_path_length": summary["avg_path_length"],
                "avg_closeness": summary["avg_closeness"],
            },
        )

    def execute_with_checkpoints(self, overlay: DDSROverlay) -> List[TakedownResult]:
        """Run the campaign, returning one summary per checkpoint."""
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.checkpoints < 1:
            raise ValueError(f"checkpoints must be >= 1, got {self.checkpoints}")
        nodes = overlay.nodes()
        total_victims = int(round(self.fraction * len(nodes)))
        victims = self.rng.sample(nodes, total_victims) if total_victims else []
        per_checkpoint = max(1, total_victims // self.checkpoints) if total_victims else 1
        results: List[TakedownResult] = []
        removed: List[NodeId] = []
        for index, victim in enumerate(victims, start=1):
            if victim in overlay.graph:
                overlay.remove_node(victim)
                removed.append(victim)
            if index % per_checkpoint == 0 or index == total_victims:
                results.append(self._checkpoint(overlay, list(removed)))
        if not results:
            results.append(self._checkpoint(overlay, list(removed)))
        return results

    def execute(self, overlay: DDSROverlay) -> TakedownResult:
        """Run the campaign and return only the final summary."""
        return self.execute_with_checkpoints(overlay)[-1]


def victim_schedule(
    nodes: Sequence[NodeId],
    fraction: float,
    rng: Optional[random.Random] = None,
) -> List[NodeId]:
    """A reusable random victim ordering covering ``fraction`` of ``nodes``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    chooser = rng if rng is not None else random.Random(0)
    count = int(round(fraction * len(nodes)))
    return chooser.sample(list(nodes), count) if count else []
