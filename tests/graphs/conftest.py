"""Shared fixtures for the graph-kernel tests."""

from __future__ import annotations

from contextlib import contextmanager

import pytest


@pytest.fixture
def wave_width(monkeypatch):
    """Scope every multi-source BFS wave to a fixed number of sources.

    ``with wave_width(192): ...`` substitutes
    :func:`repro.graphs.fast._wave_width` for the block (the engines round
    the count up to whole 64-bit frontier words).  The width tunes wall-clock
    time and memory only, so every result must stay the same under it.
    """
    fast = pytest.importorskip("repro.graphs.fast")

    @contextmanager
    def forced(width: int):
        with monkeypatch.context() as patch:
            patch.setattr(fast, "_wave_width", lambda csr, total_sources: width)
            yield

    return forced
