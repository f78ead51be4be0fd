"""Deterministic fault injection for chaos-testing the runner.

The crash-safety layer (the pool's failure ladder -- two attempts per
task, then the caller's in-parent path -- the watchdogs and journal resume)
is only trustworthy if its failure paths can be driven *on purpose*,
reproducibly, from a test or a CI job.  This module provides that
plane: a fault spec names registered **injection sites** in the pool, the
executor and the result cache, and each armed clause fires at an exact
**invocation count** of its site -- so the same spec against the same
campaign always injects the same fault at the same point, and every chaos
differential ("kill the worker before shard 2, assert bit-identical
aggregates") is deterministic.

Spec grammar (``REPRO_FAULTS`` environment variable or the CLI's
``--inject-faults``)::

    SPEC    := CLAUSE ("," CLAUSE)*
    CLAUSE  := SITE "=" ACTION ["(" ARG ")"] ["@" N]
    SITE    := a key of :data:`SITES`
    ACTION  := kill | hang | delay | oserror | raise | interrupt
    N       := 1-based invocation of SITE at which the clause fires
               (exactly once; default 1)

Examples::

    REPRO_FAULTS="pool.task=kill@2"             # SIGKILL the worker running
                                                # the 2nd task entered
    REPRO_FAULTS="pool.task=hang@1,cache.read=oserror@3"
    REPRO_FAULTS="pool.task=delay(0.2)@1"       # slow one task by 200ms
    REPRO_FAULTS="executor.unit=interrupt@5"    # simulate ^C after 5 units

Invocation counters are **cross-process**: sites fire in pool workers as
well as in the parent, so counts live in small files under a state
directory (``REPRO_FAULTS_STATE``, created automatically and exported so
forked/spawned workers share it) and are bumped under an exclusive
``flock``.  A fired clause is spent -- respawned workers re-reading the
same spec never re-fire it -- which is what makes "kill once, then
recover" scenarios expressible at all.

Zero cost when off: :func:`fault_point` is a module-global ``None`` check
when no spec is configured.  Every firing logs a warning and counts
``runner.fault.injected`` on the active telemetry collector (best-effort:
a ``kill`` obviously never reports).
"""

from __future__ import annotations

import logging
import os
import re
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.telemetry import current as _telemetry

logger = logging.getLogger(__name__)

#: Environment variable holding the fault spec (empty/unset = no faults).
ENV_VAR = "REPRO_FAULTS"

#: Environment variable naming the shared counter-state directory.  Set
#: automatically the first time a spec is parsed, so pool workers inherit
#: the *same* directory and the per-site invocation counters are global
#: across the whole process tree.
STATE_ENV_VAR = "REPRO_FAULTS_STATE"

#: Registered injection sites.  A spec naming anything else is a
#: :class:`~repro.core.errors.ConfigError` -- a typo must fail loudly, not
#: silently inject nothing.
SITES = {
    "pool.task": "worker entry of a work-unit shard (pool._pool_run_shard)",
    "pool.path_task": "worker entry of a path-metric source shard",
    "pool.shm_attach": "worker attach of a published shared-memory segment",
    "executor.unit": "parent side, after one work unit's result is recorded",
    "cache.read": "result-cache lookup (ResultCache.get)",
    "cache.write": "result-cache persist (ResultCache.put)",
    "journal.write": "campaign-journal append (CampaignJournal._append)",
    "journal.read": "campaign-journal load (CampaignJournal._read)",
    "executor.checkpoint": (
        "parent side, entry of one sub-unit path-metric checkpoint "
        "(sharded_full_path_metrics)"
    ),
}

#: Supported actions; ``ARG`` is the sleep duration for hang/delay.
ACTIONS = ("kill", "hang", "delay", "oserror", "raise", "interrupt")

#: How long a ``hang`` sleeps when no argument is given -- far beyond any
#: sane ``REPRO_TASK_TIMEOUT``, so an unwatched hang is unmistakable.
DEFAULT_HANG_SECONDS = 600.0

#: Default ``delay`` duration.
DEFAULT_DELAY_SECONDS = 0.05

_CLAUSE_RE = re.compile(
    r"^(?P<site>[a-z_][a-z0-9_.]*)"
    r"=(?P<action>[a-z]+)"
    r"(?:\((?P<arg>[^)]*)\))?"
    r"(?:@(?P<at>\d+))?$"
)


class InjectedFault(RuntimeError):
    """The generic exception thrown by a ``raise`` clause."""


@dataclass(frozen=True)
class FaultClause:
    """One armed fault: fire ``action`` at invocation ``at`` of ``site``."""

    site: str
    action: str
    arg: Optional[float]
    at: int

    def spec(self) -> str:
        arg = f"({self.arg:g})" if self.arg is not None else ""
        return f"{self.site}={self.action}{arg}@{self.at}"


def parse_spec(spec: str) -> List[FaultClause]:
    """Parse a fault spec; raise ``ConfigError`` on any malformed clause."""
    from repro.core.errors import ConfigError

    clauses: List[FaultClause] = []
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        match = _CLAUSE_RE.match(raw)
        if match is None:
            raise ConfigError(
                f"invalid fault clause {raw!r}; expected "
                "SITE=ACTION[(ARG)][@N], e.g. pool.task=kill@2"
            )
        site = match.group("site")
        if site not in SITES:
            raise ConfigError(
                f"unknown fault site {site!r}; known sites: "
                f"{', '.join(sorted(SITES))}"
            )
        action = match.group("action")
        if action not in ACTIONS:
            raise ConfigError(
                f"unknown fault action {action!r} in {raw!r}; known actions: "
                f"{', '.join(ACTIONS)}"
            )
        arg = None
        if match.group("arg") is not None:
            try:
                arg = float(match.group("arg"))
            except ValueError:
                raise ConfigError(
                    f"fault clause {raw!r} has a non-numeric argument "
                    f"{match.group('arg')!r}"
                ) from None
        at = int(match.group("at") or 1)
        if at < 1:
            raise ConfigError(f"fault clause {raw!r} must fire at invocation >= 1")
        clauses.append(FaultClause(site=site, action=action, arg=arg, at=at))
    return clauses


class FaultPlane:
    """A parsed spec plus the shared cross-process invocation counters."""

    def __init__(self, clauses: List[FaultClause], state_dir: str) -> None:
        self.state_dir = state_dir
        self.by_site: Dict[str, List[FaultClause]] = {}
        for clause in clauses:
            self.by_site.setdefault(clause.site, []).append(clause)

    # ------------------------------------------------------------------
    def _bump(self, site: str) -> int:
        """Atomically increment and return ``site``'s invocation counter.

        The counter file is shared by every process that inherited
        :data:`STATE_ENV_VAR`, and the read-increment-write runs under an
        exclusive ``flock``, so each invocation across the whole process
        tree observes a unique count -- the property that makes ``@N``
        fire exactly once no matter which worker gets there.
        """
        import fcntl

        path = os.path.join(self.state_dir, site.replace("/", "_") + ".count")
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            raw = os.read(fd, 64)
            count = int(raw) if raw.strip() else 0
            count += 1
            os.lseek(fd, 0, os.SEEK_SET)
            os.truncate(fd, 0)
            os.write(fd, str(count).encode("ascii"))
            return count
        finally:
            os.close(fd)

    def fire(self, site: str) -> None:
        """Trigger whatever clauses are due at this invocation of ``site``."""
        clauses = self.by_site.get(site)
        if not clauses:
            return
        count = self._bump(site)
        for clause in clauses:
            if clause.at == count:
                self._trigger(clause, count)

    def _trigger(self, clause: FaultClause, count: int) -> None:
        logger.warning(
            "fault injected: %s (invocation %d of %s, pid %d)",
            clause.spec(),
            count,
            clause.site,
            os.getpid(),
        )
        _telemetry().count("runner.fault.injected")
        if clause.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif clause.action == "hang":
            time.sleep(clause.arg if clause.arg is not None else DEFAULT_HANG_SECONDS)
        elif clause.action == "delay":
            time.sleep(clause.arg if clause.arg is not None else DEFAULT_DELAY_SECONDS)
        elif clause.action == "oserror":
            raise OSError(f"injected fault at {clause.site} ({clause.spec()})")
        elif clause.action == "raise":
            raise InjectedFault(f"injected fault at {clause.site} ({clause.spec()})")
        elif clause.action == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt at {clause.site}")


# ----------------------------------------------------------------------
# Module-level active plane
# ----------------------------------------------------------------------
_plane: Optional[FaultPlane] = None
_loaded = False


def _build_plane(spec: str) -> Optional[FaultPlane]:
    clauses = parse_spec(spec)
    if not clauses:
        return None
    state_dir = os.environ.get(STATE_ENV_VAR, "").strip()
    if not state_dir:
        # First parser in the process tree owns the state dir; exporting it
        # makes every later fork/spawn share the same counters.
        state_dir = tempfile.mkdtemp(prefix="repro-faults-")
        os.environ[STATE_ENV_VAR] = state_dir
    else:
        os.makedirs(state_dir, exist_ok=True)
    return FaultPlane(clauses, state_dir)


def ensure_loaded() -> None:
    """Parse :data:`ENV_VAR` once (idempotent; called before pool fan-out).

    Parsing in the parent *before* the first worker is forked matters: it
    pins :data:`STATE_ENV_VAR` so all workers share one counter directory.
    """
    global _plane, _loaded
    if _loaded:
        return
    _loaded = True
    spec = os.environ.get(ENV_VAR, "").strip()
    _plane = _build_plane(spec) if spec else None


def install(spec: str) -> Optional[FaultPlane]:
    """Activate ``spec`` for this process tree (the CLI's ``--inject-faults``).

    Exports :data:`ENV_VAR` (and the shared state directory) so pool
    workers inherit the plane; raises ``ConfigError`` on a malformed spec.
    """
    global _plane, _loaded
    _loaded = True
    spec = (spec or "").strip()
    # Each install owns a *fresh* counter directory: re-arming the same spec
    # must restart every site at invocation 0, never inherit counts from a
    # previous plane in this process.
    os.environ.pop(STATE_ENV_VAR, None)
    if spec:
        # Parse before exporting: a malformed spec must raise without
        # leaving itself armed in the environment for later runs.
        plane = _build_plane(spec)
        os.environ[ENV_VAR] = spec
        _plane = plane
    else:
        os.environ.pop(ENV_VAR, None)
        _plane = None
    return _plane


def reset() -> None:
    """Forget the active plane; the next :func:`fault_point` re-reads the env.

    Also drops the exported counter-state directory so a re-armed spec
    starts counting from scratch (test isolation).
    """
    global _plane, _loaded
    _plane = None
    _loaded = False
    os.environ.pop(STATE_ENV_VAR, None)


def active() -> Optional[FaultPlane]:
    """The currently armed plane (``None`` when fault injection is off)."""
    ensure_loaded()
    return _plane


def fault_point(site: str) -> None:
    """Declare an injection site; fires whatever the active spec armed there.

    The disabled path is one module-global check -- instrumented code can
    call this unconditionally.
    """
    if not _loaded:
        ensure_loaded()
    if _plane is not None:
        _plane.fire(site)
