"""Shared fixtures for the runner suites."""

from __future__ import annotations

import gc
import glob

import pytest

from repro.runner.pool import SHM_PREFIX


def _segment_names():
    return set(glob.glob(f"/dev/shm/{SHM_PREFIX}*"))


@pytest.fixture
def pool_segments():
    """``/dev/shm`` pool segments that appeared since the test began.

    Yields a callable listing them (sorted).  The names present when the
    fixture is entered are snapshotted and never count, so another
    process's pooled run on the same machine cannot fail the audit; at exit
    no new name may remain.  Request it from a fixture that shuts the pools
    down after its ``yield``: fixtures tear down in reverse order, so the
    audit runs after the shutdown.
    """
    before = _segment_names()

    def new():
        return sorted(_segment_names() - before)

    yield new
    gc.collect()
    assert new() == []
