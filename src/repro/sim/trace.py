"""Structured trace log.

Traces record *what happened* in a simulation run: a bot rotated its address,
a relay gained the HSDir flag, a SOAP clone was admitted as a peer.  They are
primarily consumed by tests and by the worked examples, which replay or assert
on sequences of events rather than just aggregate metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEntry:
    """One structured trace record."""

    timestamp: float
    category: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)

    def matches(self, category: Optional[str] = None, message_contains: Optional[str] = None) -> bool:
        """Whether this entry matches the given filters."""
        if category is not None and self.category != category:
            return False
        if message_contains is not None and message_contains not in self.message:
            return False
        return True


class TraceLog:
    """Append-only list of :class:`TraceEntry` with simple querying.

    A maximum size can be configured; once full, the oldest entries are
    discarded.  Long-running resilience sweeps disable tracing entirely by
    setting ``enabled=False`` to avoid unbounded memory use.
    """

    def __init__(self, enabled: bool = True, max_entries: int = 100_000) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self._entries: List[TraceEntry] = []

    def record(
        self,
        timestamp: float,
        category: str,
        message: str,
        **details: Any,
    ) -> Optional[TraceEntry]:
        """Append a trace entry (no-op when tracing is disabled)."""
        if not self.enabled:
            return None
        entry = TraceEntry(timestamp=timestamp, category=category, message=message, details=details)
        self._entries.append(entry)
        if len(self._entries) > self.max_entries:
            overflow = len(self._entries) - self.max_entries
            del self._entries[:overflow]
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def filter(
        self,
        category: Optional[str] = None,
        message_contains: Optional[str] = None,
        predicate: Optional[Callable[[TraceEntry], bool]] = None,
    ) -> List[TraceEntry]:
        """Entries matching the given category / substring / predicate."""
        results = []
        for entry in self._entries:
            if not entry.matches(category, message_contains):
                continue
            if predicate is not None and not predicate(entry):
                continue
            results.append(entry)
        return results

    def count(self, category: Optional[str] = None, message_contains: Optional[str] = None) -> int:
        """Number of entries matching the filters."""
        return len(self.filter(category, message_contains))

    def last(self, category: Optional[str] = None) -> Optional[TraceEntry]:
        """Most recent entry (optionally restricted to a category)."""
        for entry in reversed(self._entries):
            if category is None or entry.category == category:
                return entry
        return None

    def clear(self) -> None:
        """Drop all recorded entries."""
        self._entries.clear()
