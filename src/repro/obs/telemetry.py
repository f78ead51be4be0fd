"""In-process telemetry collector: counters, gauges and wall-clock spans.

Design constraints, in priority order:

1. **Zero cost when off.**  The module-level active collector defaults to
   :data:`NULL`, a no-op singleton whose methods perform no allocation at
   all (``span()`` hands back one pre-built reusable context manager).
   Instrumented hot paths either call through unconditionally (cold-ish
   call sites like ``csr_of``) or hoist ``tel = current()`` /
   ``if tel.enabled:`` out of their inner loops (the wave engine), so a
   disabled run is indistinguishable from an uninstrumented one.
2. **Observational only.**  Nothing here reads or seeds any rng, and no
   instrumented call site may branch on collected values; enabling
   telemetry must leave every scientific result bit-identical
   (``tests/obs/test_no_perturbation.py``).
3. **Thread-safe and mergeable.**  One :class:`Collector` serves a whole
   process; worker processes run their own collector per task and ship
   :meth:`Collector.snapshot` dictionaries back for
   :meth:`Collector.merge_snapshot` -- counters add, span stats combine
   exactly, gauges last-write-win.

Typical use::

    from repro.obs import telemetry

    collector = telemetry.enable(label="resilience-at-scale")
    ...                                   # instrumented code runs
    telemetry.disable()
    report = render_report(collector, meta={...})

Instrumentation sites use :func:`current`::

    tel = telemetry.current()
    if tel.enabled:                       # hot loops hoist this check
        tel.count("wave.dispatch.dense")
    with tel.span("runner.unit"):         # fine unconditionally: the null
        ...                               # span is a reusable no-op
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

#: Environment variable the runner CLI reads: when set (non-empty), telemetry
#: is enabled for the run and the JSON report is written to this path.  An
#: *environment* knob rather than a scenario parameter on purpose --
#: parameters feed unit-seed derivation and cache identity
#: (:meth:`repro.runner.spec.WorkUnit.key_material`), and telemetry must
#: change neither.
ENV_VAR = "REPRO_TELEMETRY"


def env_report_path() -> Optional[str]:
    """The report path requested via :data:`ENV_VAR`, or ``None`` when unset."""
    raw = os.environ.get(ENV_VAR, "").strip()
    return raw or None


class _NullSpan:
    """Reusable no-op context manager handed out by the null collector."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullCollector:
    """The disabled-path collector: every method is an allocation-free no-op.

    A single module-level instance (:data:`NULL`) is the active collector
    whenever telemetry is off, so instrumented code never needs a ``None``
    check -- and the ``enabled`` class attribute lets hot loops skip even
    the no-op calls.
    """

    __slots__ = ()

    enabled = False

    def count(self, name: str, amount: int = 1) -> None:
        return None

    def gauge(self, name: str, value: Any) -> None:
        return None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, seconds: float) -> None:
        return None

    def section(self, name: str, payload: Any) -> None:
        return None

    def merge_snapshot(self, snapshot: Mapping[str, Any], prefix: str = "") -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"label": "", "counters": {}, "gauges": {}, "spans": {}, "sections": {}}


NULL = NullCollector()


class _Span:
    """Context manager recording one wall-clock interval into a collector."""

    __slots__ = ("_collector", "_name", "_started")

    def __init__(self, collector: "Collector", name: str) -> None:
        self._collector = collector
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._collector.record_span(self._name, time.perf_counter() - self._started)
        return False


class Collector:
    """Thread-safe accumulator of counters, gauges, spans and sections.

    * **counters** -- integer totals (``count``), e.g. per-level wave
      dispatch choices;
    * **gauges**   -- last-write-wins key/value observations (``gauge``),
      e.g. the active popcount backend or the pool's publication
      generation;
    * **spans**    -- wall-clock intervals aggregated per name into
      ``(count, total_s, max_s)`` (``span`` / ``record_span``), e.g.
      per-unit runner wall time;
    * **sections** -- arbitrary JSON-friendly payloads attached wholesale
      (``section``), e.g. a sim-layer :class:`~repro.sim.metrics.CounterSet`
      snapshot.
    """

    enabled = True

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Any] = {}
        #: name -> [count, total_seconds, max_seconds]
        self._spans: Dict[str, List[float]] = {}
        self._sections: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter called ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: Any) -> None:
        """Record the latest value of ``name`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def span(self, name: str) -> _Span:
        """A context manager timing one interval under ``name``."""
        return _Span(self, name)

    def record_span(self, name: str, seconds: float) -> None:
        """Fold one measured interval into the span stats for ``name``."""
        with self._lock:
            entry = self._spans.get(name)
            if entry is None:
                self._spans[name] = [1, seconds, seconds]
            else:
                entry[0] += 1
                entry[1] += seconds
                if seconds > entry[2]:
                    entry[2] = seconds

    def section(self, name: str, payload: Any) -> None:
        """Attach a JSON-friendly payload wholesale under ``name``."""
        with self._lock:
            self._sections[name] = payload

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly copy of everything collected so far.

        The shape is what :meth:`merge_snapshot` consumes and what
        :func:`repro.obs.report.render_report` renders -- worker processes
        return these through the process pool (plain dicts of
        str/int/float, so they pickle cheaply).
        """
        with self._lock:
            return {
                "label": self.label,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "spans": {
                    name: {"count": int(entry[0]), "total_s": entry[1], "max_s": entry[2]}
                    for name, entry in self._spans.items()
                },
                "sections": {name: payload for name, payload in self._sections.items()},
            }

    def merge_snapshot(self, snapshot: Mapping[str, Any], prefix: str = "") -> None:
        """Fold another collector's :meth:`snapshot` into this one.

        Counters add, span stats combine exactly (count/total add, max
        maxes), gauges and sections last-write-win.  ``prefix`` is
        prepended to every merged name, so per-worker data can be kept
        apart when wanted (the runner merges unprefixed: one vocabulary).
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                key = prefix + name
                self._counters[key] = self._counters.get(key, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[prefix + name] = value
            for name, stats in snapshot.get("spans", {}).items():
                key = prefix + name
                entry = self._spans.get(key)
                if entry is None:
                    self._spans[key] = [
                        int(stats["count"]),
                        float(stats["total_s"]),
                        float(stats["max_s"]),
                    ]
                else:
                    entry[0] += int(stats["count"])
                    entry[1] += float(stats["total_s"])
                    if stats["max_s"] > entry[2]:
                        entry[2] = float(stats["max_s"])
            for name, payload in snapshot.get("sections", {}).items():
                self._sections[prefix + name] = payload

    def counter(self, name: str) -> int:
        """Current value of one counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)


# ----------------------------------------------------------------------
# Module-level active collector
# ----------------------------------------------------------------------
_active: Any = NULL


def current():
    """The active collector: a :class:`Collector`, or :data:`NULL` when off."""
    return _active


def enabled() -> bool:
    """Whether a live collector is currently active."""
    return _active.enabled


def enable(label: str = "") -> Collector:
    """Install (and return) a fresh active collector, replacing any other."""
    global _active
    _active = Collector(label)
    return _active


def disable() -> Optional[Collector]:
    """Deactivate telemetry; returns the collector that was active (if any)."""
    global _active
    previous = _active
    _active = NULL
    return previous if previous.enabled else None


@contextmanager
def collecting(label: str = "") -> Iterator[Collector]:
    """Scope a fresh active collector, restoring the previous one on exit."""
    global _active
    previous = _active
    collector = Collector(label)
    _active = collector
    try:
        yield collector
    finally:
        _active = previous
