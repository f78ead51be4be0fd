"""Metric collection for experiments.

The experiment harness (``repro.analysis``) records figure series such as
"average closeness centrality after *x* deletions" or "number of connected
components over time".  ``MetricRecorder`` offers two primitives:

* :class:`TimeSeries` -- append-only ``(x, value)`` pairs, where ``x`` is either
  simulated time or an experiment-defined abscissa (e.g. nodes deleted).
* :class:`CounterSet` -- monotonically increasing named counters (messages
  relayed, repairs triggered, clones admitted, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


@dataclass
class TimeSeries:
    """An append-only series of ``(x, value)`` observations."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, x: float, value: float) -> None:
        """Append one observation."""
        self.points.append((float(x), float(value)))

    def xs(self) -> List[float]:
        """All abscissa values in insertion order."""
        return [x for x, _ in self.points]

    def values(self) -> List[float]:
        """All observed values in insertion order."""
        return [v for _, v in self.points]

    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent observation, or ``None`` if empty."""
        return self.points[-1] if self.points else None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(self.points)

    def mean(self) -> float:
        """Arithmetic mean of the observed values (0.0 when empty)."""
        if not self.points:
            return 0.0
        return sum(self.values()) / len(self.points)

    def min(self) -> float:
        """Minimum observed value."""
        if not self.points:
            raise ValueError(f"series {self.name!r} is empty")
        return min(self.values())

    def max(self) -> float:
        """Maximum observed value."""
        if not self.points:
            raise ValueError(f"series {self.name!r} is empty")
        return max(self.values())


class CounterSet:
    """A collection of monotonically increasing named counters."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` (>= 0) to counter ``name`` and return the new value."""
        if amount < 0:
            raise ValueError(f"counters are monotonic; got negative amount {amount}")
        self._counters[name] = self._counters.get(name, 0) + amount
        return self._counters[name]

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of every counter."""
        return dict(self._counters)

    def __contains__(self, name: str) -> bool:
        return name in self._counters


class MetricRecorder:
    """Container for every metric an experiment produces."""

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}
        self.counters = CounterSet()

    def series(self, name: str) -> TimeSeries:
        """Return (creating if needed) the time series called ``name``."""
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def record(self, name: str, x: float, value: float) -> None:
        """Append an observation to the series called ``name``."""
        self.series(name).record(x, value)

    def has_series(self, name: str) -> bool:
        """Whether any observation has been recorded under ``name``."""
        return name in self._series

    def series_names(self) -> List[str]:
        """Names of every recorded series, sorted."""
        return sorted(self._series)

    def as_dict(self) -> Dict[str, List[Tuple[float, float]]]:
        """Snapshot of all series as plain lists (JSON-friendly)."""
        return {name: list(series.points) for name, series in self._series.items()}

    def merge(self, other: "MetricRecorder", prefix: str = "") -> None:
        """Copy every series and counter from ``other`` into this recorder."""
        for name, series in other._series.items():
            target = self.series(prefix + name)
            target.points.extend(series.points)
        for name, value in other.counters.as_dict().items():
            self.counters.increment(prefix + name, value)


def summarize(values: Iterable[float]) -> Mapping[str, float]:
    """Simple summary statistics used by the reporting layer."""
    data = [float(v) for v in values]
    if not data:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "count": len(data),
        "mean": sum(data) / len(data),
        "min": min(data),
        "max": max(data),
    }
