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

Spec grammar (the CLI's ``--inject-faults``, or :func:`install`)::

    SPEC    := CLAUSE ("," CLAUSE)*
    CLAUSE  := SITE "=" ACTION ["(" ARG ")"] ["@" N]
    SITE    := a key of :data:`SITES`
    ACTION  := kill | hang | delay | oserror | raise | interrupt
    N       := 1-based invocation of SITE at which the clause fires
               (exactly once; default 1)

Examples::

    --inject-faults "pool.task=kill@2"          # SIGKILL the worker running
                                                # the 2nd task entered
    --inject-faults "pool.task=hang@1,cache.read=oserror@3"
    --inject-faults "pool.task=delay(0.2)@1"    # slow one task by 200ms
    --inject-faults "executor.unit=interrupt@5" # simulate ^C after 5 units

Invocation counters are **cross-process**: sites fire in pool workers as
well as in the parent, so counts live in small files under a counter
directory that :func:`install` creates, bumped under an exclusive
``flock``.  The plane reaches the workers through each pool task's
context (:func:`shipped` in the parent, :func:`adopt` in the worker), so a
plane armed after the pool spun up still reaches its workers.  A fired
clause is spent -- respawned workers adopting the same plane never re-fire
it -- which is what makes "kill once, then recover" scenarios expressible
at all.  The process that created a counter directory removes it when its
plane is replaced or reset, and at exit.

Zero cost when off: :func:`fault_point` is a module-global ``None`` check
when no plane is armed.  Every firing logs a warning and counts
``runner.fault.injected`` on the active telemetry collector (best-effort:
a ``kill`` obviously never reports).
"""

from __future__ import annotations

import atexit
import logging
import os
import re
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.telemetry import current as _telemetry

logger = logging.getLogger(__name__)

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

    def __init__(
        self, spec: str, state_dir: str, *, owner: Optional[int] = None
    ) -> None:
        self.spec = spec
        self.state_dir = state_dir
        #: Pid of the process that created ``state_dir`` and removes it;
        #: ``None`` for a plane adopted from a task context.
        self.owner = owner
        self.by_site: Dict[str, List[FaultClause]] = {}
        for clause in parse_spec(spec):
            self.by_site.setdefault(clause.site, []).append(clause)

    # ------------------------------------------------------------------
    def _bump(self, site: str) -> int:
        """Atomically increment and return ``site``'s invocation counter.

        The counter file is shared by every process that armed or adopted
        this plane, and the read-increment-write runs under an
        exclusive ``flock``, so each invocation across the whole process
        tree observes a unique count -- the property that makes ``@N``
        fire exactly once no matter which worker gets there.
        """
        import fcntl

        path = os.path.join(self.state_dir, site.replace("/", "_") + ".count")
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            count = int(os.pread(fd, 64, 0) or 0) + 1
            # One fixed-width write and no truncate: a worker killed
            # mid-update (a broken pool terminates all its workers) must
            # never leave the counter empty, which would re-fire spent
            # clauses.
            os.pwrite(fd, b"%020d" % count, 0)
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


def _replace(plane: Optional[FaultPlane]) -> None:
    """Make ``plane`` the active one; remove the old counters if we made them."""
    global _plane
    old, _plane = _plane, plane
    if old is not None and old.owner == os.getpid():
        shutil.rmtree(old.state_dir, ignore_errors=True)


def install(spec: str) -> Optional[FaultPlane]:
    """Arm ``spec`` for this process and its pool tasks (``--inject-faults``).

    Raises ``ConfigError`` on a malformed spec, leaving the active plane as
    it was.  Each install owns a *fresh* counter directory: re-arming the
    same spec restarts every site at invocation 0.  An empty spec disarms.
    """
    spec = (spec or "").strip()
    plane = None
    if parse_spec(spec):
        plane = FaultPlane(
            spec, tempfile.mkdtemp(prefix="repro-faults-"), owner=os.getpid()
        )
    _replace(plane)
    return plane


def reset() -> None:
    """Disarm the active plane (and remove its counters if we made them)."""
    _replace(None)


def active() -> Optional[FaultPlane]:
    """The currently armed plane (``None`` when fault injection is off)."""
    return _plane


def shipped() -> Optional[Tuple[str, str]]:
    """The active plane as a pool task ships it: ``(spec, state_dir)``."""
    return None if _plane is None else (_plane.spec, _plane.state_dir)


def adopt(plane: Optional[Tuple[str, str]]) -> None:
    """Worker side: arm the plane a task context shipped, or disarm.

    An adopted plane shares the parent's counter directory, so invocation
    counts stay global across the process tree; the worker never removes
    that directory.
    """
    if shipped() != plane:
        _replace(None if plane is None else FaultPlane(*plane))


def fault_point(site: str) -> None:
    """Declare an injection site; fires whatever the active spec armed there.

    The disabled path is one module-global check -- instrumented code can
    call this unconditionally.
    """
    if _plane is not None:
        _plane.fire(site)


# Registered at import, before repro.runner.pool (which imports this module
# first) registers its shutdown: atexit runs handlers in reverse order, so
# the counters are removed only after the pools' workers are gone.
atexit.register(reset)
