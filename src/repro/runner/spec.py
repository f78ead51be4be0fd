"""Declarative description of one experiment campaign.

A :class:`ScenarioSpec` names a registered scenario and pins everything that
determines its output: base parameters, a parameter grid, the number of
trials per grid point and the master seed.  From those it derives the flat
list of :class:`WorkUnit` items the executor schedules, each with its own
deterministic child seed (via :func:`repro.sim.rng.derive_seed`), so results
are bit-identical whether units run serially, sharded across processes, or
are replayed from the on-disk cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from repro.runner.grid import canonical_params, check_params, expand_grid
from repro.sim.rng import derive_seed


@dataclass(frozen=True)
class WorkUnit:
    """One independent execution: a grid point at one trial index."""

    index: int
    scenario: str
    params: Mapping[str, Any]
    trial: int
    seed: int
    #: Index of the grid point this unit belongs to (trials share it).
    point_index: int

    def key_material(self, version: str) -> str:
        """The canonical string the cache key is hashed from.

        Besides the unit's own identity this covers the *active execution
        environment* -- the graph-backend policy and the BFS wave-width
        override -- so a result computed under ``REPRO_GRAPH_BACKEND=python``
        is never served to a ``fast``-backend invocation (or vice versa), and
        a run under a forced wave width never masks the default one.  The
        backends are contractually bit-identical, but the cache must not
        *assume* the contract it exists to help verify.
        """
        from repro.graphs import backend

        return "\n".join(
            [
                f"scenario={self.scenario}",
                f"version={version}",
                f"params={canonical_params(self.params)}",
                f"trial={self.trial}",
                f"seed={self.seed}",
                f"graph_backend={backend.policy()}",
                f"bfs_batch={backend.bfs_batch_policy()}",
            ]
        )

    def cache_key(self, version: str) -> str:
        """Stable hex key for the on-disk result cache."""
        digest = hashlib.sha256(self.key_material(version).encode("utf-8")).hexdigest()
        return digest[:32]


@dataclass
class ScenarioSpec:
    """Everything needed to (re)produce one experiment campaign."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        check_params(self.params)
        overlap = set(self.params) & set(self.grid)
        if overlap:
            raise ValueError(
                f"parameters {sorted(overlap)} appear in both params and grid"
            )

    # ------------------------------------------------------------------
    def resolved(self, defaults: Mapping[str, Any]) -> "ScenarioSpec":
        """This spec with scenario defaults folded into ``params``.

        Cache keys and unit seeds are derived from the *resolved* parameter
        set, so editing a scenario's registered defaults invalidates stale
        cache entries, and passing a parameter explicitly at its default
        value hits the same cache entry as omitting it.  Grid axes win over
        defaults; explicit params win over both.
        """
        merged = {key: value for key, value in defaults.items() if key not in self.grid}
        merged.update(self.params)
        if merged == self.params:
            return self
        return ScenarioSpec(
            name=self.name, params=merged, grid=self.grid, trials=self.trials, seed=self.seed
        )

    def points(self) -> List[Dict[str, Any]]:
        """Every grid point merged with the base parameters, in grid order."""
        merged = []
        for point in expand_grid(self.grid):
            combined = dict(self.params)
            combined.update(point)
            check_params(combined)
            merged.append(combined)
        return merged

    def grid_keys(self) -> List[str]:
        """Names of the swept axes (empty for a single-point run)."""
        return list(self.grid)

    def work_units(self) -> List[WorkUnit]:
        """The flat (grid point x trial) schedule with per-unit child seeds.

        Unit seeds depend only on the spec -- never on worker count or
        completion order -- which is what makes ``--workers N`` output
        bit-identical to ``--workers 1``.
        """
        units: List[WorkUnit] = []
        for point_index, point in enumerate(self.points()):
            point_token = canonical_params(point)
            for trial in range(self.trials):
                unit_seed = derive_seed(
                    self.seed, f"runner:{self.name}:{point_token}:trial={trial}"
                )
                units.append(
                    WorkUnit(
                        index=len(units),
                        scenario=self.name,
                        params=point,
                        trial=trial,
                        seed=unit_seed,
                        point_index=point_index,
                    )
                )
        return units

    def spec_hash(self) -> str:
        """Stable hash over the whole campaign (name, params, grid, trials, seed)."""
        axes = json.dumps(
            {name: list(values) for name, values in self.grid.items()},
            sort_keys=True,
            separators=(",", ":"),
        )
        material = "\n".join(
            [
                f"scenario={self.name}",
                f"params={canonical_params(self.params)}",
                f"grid={axes}",
                f"trials={self.trials}",
                f"seed={self.seed}",
            ]
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]
