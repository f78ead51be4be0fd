"""Shared fixtures for the runner suites."""

from __future__ import annotations

import gc
import glob

import pytest

from repro.runner.pool import segment_prefix


def _segment_names():
    return set(glob.glob(f"/dev/shm/{segment_prefix()}*"))


@pytest.fixture
def pool_segments():
    """This process's ``/dev/shm`` pool segments that appeared since the test began.

    Yields a callable listing them (sorted).  Only names carrying this
    process's pid (``repro-pool-<pid>-*``) count, so another process's
    pooled run on the same machine cannot fail the audit, whenever it
    creates its segments; at exit no new name may remain.  Request it from
    a fixture that shuts the pools down after its ``yield``: fixtures tear
    down in reverse order, so the audit runs after the shutdown.
    """
    before = _segment_names()

    def new():
        return sorted(_segment_names() - before)

    yield new
    gc.collect()
    assert new() == []
