"""On-disk JSON result cache for work units.

Every finished work unit is stored as one small JSON file under
``<root>/<scenario>/<key>.json`` where ``key`` is the SHA-256 hash of the
unit's full identity (scenario name *and version*, canonical parameters,
trial index, derived seed) plus the active execution environment (the
``REPRO_GRAPH_BACKEND`` policy -- see
:meth:`repro.runner.spec.WorkUnit.key_material`).  Because the key covers
everything that can change the output -- and the knobs that *should not*
but whose contract the cache must not assume -- a cache hit is
always safe to serve, repeated runs are near-instant, and a
partially-cached sweep only computes the missing units.
Writes are atomic (temp file + ``os.replace``) so parallel workers and
concurrent sweeps never observe torn files.

Lookups distinguish four outcomes -- **hit**, **miss** (no entry on disk),
**corrupt** (an entry existed but could not be decoded) and **unreadable**
(an entry may exist but the filesystem refused to serve it: permissions,
EMFILE, a directory squatting on the path) -- counted on the instance and
mirrored into the active telemetry collector (``runner.cache.hit`` /
``runner.cache.miss`` / ``runner.cache.corrupt_evicted`` /
``runner.cache.unreadable``).  A corrupt entry is evicted from disk and its
recovery logged, never silently recomputed; an unreadable entry is *not*
evicted (the bytes may be fine) but is logged, so an ailing cache root
cannot silently recompute a whole sweep while looking like a cold cache.
Writes the filesystem refuses are equally non-fatal: the result is already
in memory, so :meth:`ResultCache.put` counts the failure (**unwritable** /
``runner.cache.write_failed``), logs it and lets the campaign finish.
Both I/O paths carry :func:`repro.runner.faults.fault_point` sites
(``cache.read`` / ``cache.write``) so chaos tests can drive them
deterministically.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.telemetry import current as _telemetry
from repro.runner.faults import fault_point
from repro.runner.spec import WorkUnit

#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

logger = logging.getLogger(__name__)


class ResultCache:
    """Filesystem-backed unit-result cache."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Entries that existed on disk but could not be decoded; each one
        #: is evicted (and the recovery logged), then recomputed as a miss.
        self.corrupt = 0
        #: Entries the filesystem refused to serve (``OSError`` other than
        #: "not found"); logged and recomputed, never evicted.
        self.unreadable = 0
        #: Entries the filesystem refused to persist; the result stays in
        #: memory and the campaign continues (logged, never fatal).
        self.unwritable = 0

    # ------------------------------------------------------------------
    def _dir_for(self, scenario: str) -> Path:
        """The (sanitized) per-scenario cache directory."""
        safe = "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in scenario)
        if safe in ("", ".", ".."):
            safe = safe.replace(".", "_") or "_"
        return self.root / safe

    def path_for(self, unit: WorkUnit, version: str) -> Path:
        """Where the given unit's result lives on disk."""
        return self._dir_for(unit.scenario) / f"{unit.cache_key(version)}.json"

    def _evict_corrupt(self, path: Path, reason: str) -> None:
        """Drop an undecodable entry, counting and logging the recovery."""
        self.corrupt += 1
        _telemetry().count("runner.cache.corrupt_evicted")
        path.unlink(missing_ok=True)
        logger.warning(
            "evicted corrupt cache entry %s (%s); the unit will be recomputed",
            path,
            reason,
        )

    def get(self, unit: WorkUnit, version: str) -> Optional[Dict[str, float]]:
        """Cached metrics for ``unit``, or ``None`` on a miss/corrupt entry.

        The three outcomes are counted separately (``hits`` / ``misses`` /
        ``corrupt``) and mirrored to telemetry; a corrupt entry is also
        evicted from disk so the recomputed result can replace it.
        """
        path = self.path_for(unit, version)
        try:
            fault_point("cache.read")
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            _telemetry().count("runner.cache.miss")
            return None
        except OSError as error:
            # Only "not found" is a miss.  Anything else (EACCES, EMFILE, a
            # directory squatting on the path...) means the cache root is
            # ailing: count it apart and log it, so a permissions problem
            # cannot silently recompute a whole sweep.
            self.unreadable += 1
            _telemetry().count("runner.cache.unreadable")
            logger.warning(
                "unreadable cache entry %s (%s); the unit will be recomputed",
                path,
                error,
            )
            return None
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._evict_corrupt(path, f"undecodable JSON: {error}")
            return None
        metrics = payload.get("metrics")
        try:
            result = {str(key): float(value) for key, value in metrics.items()}
        except (AttributeError, TypeError, ValueError):
            self._evict_corrupt(path, "malformed metrics mapping")
            return None
        self.hits += 1
        _telemetry().count("runner.cache.hit")
        return result

    def put(self, unit: WorkUnit, version: str, metrics: Dict[str, float]) -> Optional[Path]:
        """Atomically persist one unit result.

        A filesystem that refuses the write (``OSError``: read-only root,
        ENOSPC, permissions...) must not fail the campaign -- the result is
        already in memory.  The failure is counted (``unwritable`` /
        ``runner.cache.write_failed``) and logged, and ``None`` is
        returned; the unit simply recomputes on the next cold run.
        """
        path = self.path_for(unit, version)
        payload: Dict[str, Any] = {
            "scenario": unit.scenario,
            "version": version,
            "params": dict(unit.params),
            "trial": unit.trial,
            "seed": unit.seed,
            "metrics": metrics,
        }
        try:
            fault_point("cache.write")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as error:
            self.unwritable += 1
            _telemetry().count("runner.cache.write_failed")
            logger.warning(
                "failed to persist cache entry %s (%s); continuing without it",
                path,
                error,
            )
            return None
        return path

    # ------------------------------------------------------------------
    def clear(self, scenario: Optional[str] = None) -> int:
        """Delete cached entries (for one scenario, or everything).

        Also sweeps stale ``.tmp-*`` files left behind by writes that
        crashed between :func:`tempfile.mkstemp` and :func:`os.replace`;
        they are not entries, so they never count toward the return value.
        """
        removed = 0
        if not self.root.exists():
            return removed
        directories = (
            [self._dir_for(scenario)] if scenario is not None else list(self.root.iterdir())
        )
        for directory in directories:
            if not directory.is_dir():
                continue
            for entry in directory.glob("*.json"):
                if entry.name.startswith("."):
                    continue  # a stale temp file, swept (uncounted) below
                entry.unlink(missing_ok=True)
                removed += 1
            for stale in directory.glob(".tmp-*"):
                stale.unlink(missing_ok=True)
        return removed

    def entry_count(self) -> int:
        """Number of cached unit results on disk.

        Dot-prefixed names are excluded explicitly: a crashed ``put`` can
        leave ``.tmp-*.json`` files behind, and whether ``glob`` matches
        hidden files varies across pathlib versions -- an orphaned temp
        must never masquerade as an entry either way.
        """
        if not self.root.exists():
            return 0
        return sum(
            1 for path in self.root.glob("*/*.json") if not path.name.startswith(".")
        )
