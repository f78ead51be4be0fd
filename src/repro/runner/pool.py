"""Persistent worker pools with shared-memory CSR broadcast.

Checkpointed campaigns used to pay process-pool spin-up *and* full CSR
pickling at every checkpoint: ``execute()`` and
``sharded_full_path_metrics`` each built a throwaway
:class:`~concurrent.futures.ProcessPoolExecutor` per call.  This module
keeps one pool alive per runner invocation instead and separates
worker-resident state from per-task inputs:

* **Pool lifetime** -- :func:`get_pool` hands out one :class:`WorkerPool`
  per worker count; the underlying executor is created lazily on first use
  and survives across campaigns and checkpoints, so ``runner.pool_spinup``
  is recorded once per invocation, not once per campaign.  Pools are
  context managers and an ``atexit`` guard closes whatever is left, so
  shared-memory segments never outlive the parent even on a crashed run.
* **Shared-memory CSR publication** -- :meth:`WorkerPool.publish_csr`
  copies a snapshot's ``indptr`` / ``indices`` arrays into
  :mod:`multiprocessing.shared_memory` segments.  A publication is reused
  while it holds the very same CSR snapshot object; a new snapshot of the
  same graph is re-published into fresh segments and the old ones are
  unlinked at once.  Workers attach each snapshot once and keep it in an
  LRU keyed by segment name, so every task ships only its source slice and
  the segment names.
* **Failure paths** -- a killed worker breaks the executor; the pool
  respawns it once (after a deterministic backoff) and retries only the
  tasks whose results have not been merged yet (exactly-once delivery:
  accumulator merges are not idempotent).  A *hung* worker is caught by
  the task watchdog: when ``REPRO_TASK_TIMEOUT`` is set and no task
  completes within that many seconds, the pool's workers are SIGKILLed
  (``runner.watchdog.kill``) and the break flows into the same
  respawn-and-retry machinery.  Worker-side *transient* failures (a
  shared-memory attach refused by the OS) are retried per task up to
  ``REPRO_TASK_RETRIES`` times (``runner.retry``).  Once the pool is
  declared unhealthy -- respawned more than :data:`MAX_RESPAWNS` times --
  the remaining tasks are **drained serially in-parent**
  (``runner.degraded_serial`` + a warning) instead of failing the
  campaign; every recovery path preserves unit seeds, cache keys and the
  in-order Welford drain, so a degraded campaign stays bit-identical to a
  clean one.  Set ``REPRO_DEGRADED_SERIAL=0`` to fail fast with
  :class:`PoolError` instead; a task raising a real exception still
  surfaces as :class:`PoolTaskError` carrying the failing shard's unit
  context.

Everything is observation-instrumented via :mod:`repro.obs.telemetry`:
``runner.pool_spinup`` span, ``runner.pool.generation`` gauge, publish
attach/reattach and worker-side shm attach/reattach counters,
a ``runner.pool.bytes_shipped`` counter for the broadcast volume, and the
failure-path counters above.  Deterministic chaos tests drive these paths
via :mod:`repro.runner.faults` (sites ``pool.task`` / ``pool.path_task`` /
``pool.shm_attach``).
"""

from __future__ import annotations

import _thread
import atexit
import logging
import os
import signal
import threading
import time
import uuid
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.telemetry import current as _telemetry

logger = logging.getLogger(__name__)

#: Name prefix of every shared-memory segment the pool creates.  Tests (and
#: humans) can audit ``/dev/shm`` for leaks by this prefix.
SHM_PREFIX = "repro-pool-"

#: Live shared-memory publications kept per pool (LRU).  Checkpointed
#: campaigns publish one graph at a time; the cap bounds ``/dev/shm`` usage
#: when callers interleave several graphs.
MAX_PUBLICATIONS = 4

#: How many times one task batch survives a broken (killed-worker) executor
#: before the pool is declared unhealthy (degraded-serial drain or
#: :class:`PoolError`, per ``REPRO_DEGRADED_SERIAL``).
MAX_RESPAWNS = 1

#: Per-task deadline in seconds (float).  When set, the watchdog SIGKILLs
#: the pool's workers after that long without *any* task completing --
#: turning a hung worker into the (recoverable) killed-worker path.  Unset
#: = no deadline, matching the pre-watchdog behaviour.
TASK_TIMEOUT_ENV_VAR = "REPRO_TASK_TIMEOUT"

#: How many times one task survives a worker-side *transient* failure
#: (:class:`TransientTaskError`, e.g. a refused shm attach) before it is
#: abandoned as :class:`PoolTaskError`.  Default 1.
TASK_RETRIES_ENV_VAR = "REPRO_TASK_RETRIES"

#: Base of the deterministic respawn backoff: respawn ``k`` sleeps
#: ``base * 2**(k-1)`` seconds.  Default 0.05; 0 disables the sleep.
RETRY_BACKOFF_ENV_VAR = "REPRO_RETRY_BACKOFF"

#: ``0``/``false`` makes an unhealthy pool raise :class:`PoolError`
#: instead of draining the remaining shards serially in-parent.
DEGRADED_SERIAL_ENV_VAR = "REPRO_DEGRADED_SERIAL"


class PoolError(RuntimeError):
    """The pool itself failed (broken twice, closed...)."""


class PoolTaskError(PoolError):
    """One task failed in a worker; the message carries its unit context."""


class ParentTimeoutError(PoolError):
    """In-parent work (serial units, degraded drain) blew the task deadline.

    The pool watchdog can SIGKILL a hung *worker*, but work running in the
    parent process -- the serial ``workers=1`` unit loop, in-parent
    checkpoint shards, and above all the degraded-serial drain -- has no
    worker to kill.  :func:`parent_deadline` monitors those stretches with
    a heartbeat thread and converts a stall past ``REPRO_TASK_TIMEOUT``
    into this error, so an in-parent hang terminates with a resumable
    journal instead of hanging forever.
    """


class TransientTaskError(RuntimeError):
    """A worker-side failure worth retrying (the environment refused, the
    task itself did not fail).  Crosses the process boundary by pickling;
    the parent resubmits the task up to the ``REPRO_TASK_RETRIES`` budget.
    """


def _positive_float_env(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    from repro.core.errors import ConfigError

    try:
        value = float(raw)
    except ValueError:
        value = -1.0
    if value <= 0:
        raise ConfigError(
            f"invalid {name}={raw!r}; expected a positive number of seconds"
        )
    return value


def task_timeout_policy() -> Optional[float]:
    """The per-task watchdog deadline in seconds, or ``None`` when unset."""
    return _positive_float_env(TASK_TIMEOUT_ENV_VAR)


def task_retries_policy() -> int:
    """Transient-failure retries per task (default 1)."""
    raw = os.environ.get(TASK_RETRIES_ENV_VAR, "").strip()
    if not raw:
        return 1
    from repro.core.errors import ConfigError

    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ConfigError(
            f"invalid {TASK_RETRIES_ENV_VAR}={raw!r}; expected a "
            "non-negative integer"
        )
    return value


def retry_backoff_policy() -> float:
    """Base seconds of the deterministic respawn backoff (default 0.05)."""
    raw = os.environ.get(RETRY_BACKOFF_ENV_VAR, "").strip()
    if not raw:
        return 0.05
    from repro.core.errors import ConfigError

    try:
        value = float(raw)
    except ValueError:
        value = -1.0
    if value < 0:
        raise ConfigError(
            f"invalid {RETRY_BACKOFF_ENV_VAR}={raw!r}; expected a "
            "non-negative number of seconds"
        )
    return value


def degraded_serial_policy() -> bool:
    """Whether an unhealthy pool drains remaining shards in-parent (default)."""
    raw = os.environ.get(DEGRADED_SERIAL_ENV_VAR, "").strip().lower()
    if not raw:
        return True
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    from repro.core.errors import ConfigError

    raise ConfigError(
        f"invalid {DEGRADED_SERIAL_ENV_VAR}={raw!r}; expected 0/1"
    )


# ----------------------------------------------------------------------
# Parent-side watchdog (in-parent hangs: serial units, degraded drain)
# ----------------------------------------------------------------------
class _ParentDeadline:
    """A no-progress deadline over in-parent work, enforced by a monitor
    thread.

    The protected stretch calls :meth:`beat` at every progress point (unit
    finished, checkpoint shard merged).  A daemon monitor polls; once
    ``timeout`` seconds pass without a beat while the deadline is not
    :meth:`pause`-d, it fires **once**: warns, counts
    ``runner.watchdog.parent_timeout`` and interrupts the main thread.  The
    owning :func:`parent_deadline` context converts the resulting
    ``KeyboardInterrupt`` into :class:`ParentTimeoutError`; a genuine ^C
    (deadline never fired) passes through untouched.

    Pausing exists because the parent spends most of a pooled campaign
    *waiting on the pool* -- a stretch the pool's own watchdog already
    bounds; racing two watchdogs over it would misattribute worker hangs
    to the parent.
    """

    def __init__(self, what: str, timeout: float) -> None:
        self.what = what
        self.timeout = timeout
        self.fired = False
        self._on_main = threading.current_thread() is threading.main_thread()
        self._lock = threading.Lock()
        self._last_beat = time.monotonic()
        self._paused = 0
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    def start(self) -> None:
        self._monitor = threading.Thread(
            target=self._watch, name="repro-parent-watchdog", daemon=True
        )
        self._monitor.start()

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=1.0)
            self._monitor = None

    def beat(self) -> None:
        with self._lock:
            self._last_beat = time.monotonic()

    def pause(self) -> None:
        with self._lock:
            self._paused += 1

    def resume(self) -> None:
        with self._lock:
            if self._paused > 0:
                self._paused -= 1
            # Waiting on the pool made progress by definition; the clock
            # restarts when the parent picks the work back up.
            self._last_beat = time.monotonic()

    def _watch(self) -> None:
        poll = min(0.25, self.timeout / 4)
        while not self._stop.wait(poll):
            with self._lock:
                if self._paused:
                    continue
                if time.monotonic() - self._last_beat < self.timeout:
                    continue
                self.fired = True
            logger.warning(
                "parent watchdog: %s made no progress within %.3gs (%s); "
                "interrupting -- the campaign journal stays resumable",
                self.what,
                self.timeout,
                TASK_TIMEOUT_ENV_VAR,
            )
            _telemetry().count("runner.watchdog.parent_timeout")
            if self._on_main:
                try:
                    # A real SIGINT aimed at the main thread: unlike
                    # interrupt_main()'s between-bytecodes flag, it EINTRs
                    # whatever blocking C call the hang is stuck in.
                    signal.pthread_kill(
                        threading.main_thread().ident, signal.SIGINT
                    )
                except (AttributeError, ProcessLookupError, OSError):
                    _thread.interrupt_main()
            return


#: Innermost-active-last stack of armed parent deadlines.  The runner's
#: in-parent work is single-threaded, so a plain list suffices.
_parent_deadlines: List[_ParentDeadline] = []


@contextmanager
def parent_deadline(what: str):
    """Bound in-parent work by ``REPRO_TASK_TIMEOUT`` (no-op when unset).

    Also a no-op when an *outer* deadline is already armed: the outer
    context owns hang detection for everything nested under it, and its
    beats (via :func:`watchdog_beat`, which always targets the innermost
    armed deadline) keep flowing from the nested progress points.
    """
    timeout = task_timeout_policy()
    if timeout is None or _parent_deadlines:
        yield None
        return
    deadline = _ParentDeadline(what, timeout)
    _parent_deadlines.append(deadline)
    deadline.start()
    try:
        yield deadline
    except KeyboardInterrupt:
        if deadline.fired:
            raise ParentTimeoutError(
                f"{what} made no progress within {timeout:g}s "
                f"({TASK_TIMEOUT_ENV_VAR}); the campaign journal stays "
                "resumable -- rerun with --resume"
            ) from None
        raise
    finally:
        deadline.stop()
        _parent_deadlines.remove(deadline)


def watchdog_beat() -> None:
    """Record progress on the innermost armed parent deadline (if any)."""
    if _parent_deadlines:
        _parent_deadlines[-1].beat()


@contextmanager
def _paused_parent_deadline():
    """Suspend the armed parent deadline while the parent waits on the pool."""
    deadline = _parent_deadlines[-1] if _parent_deadlines else None
    if deadline is not None:
        deadline.pause()
    try:
        yield
    finally:
        if deadline is not None:
            deadline.resume()


@contextmanager
def _drain_deadline(what: str):
    """Arm hang detection for the degraded-serial drain.

    The drain runs under :func:`_paused_parent_deadline` (its caller,
    ``_run_tasks``, paused the outer deadline for the pool wait), so when
    an outer deadline exists it is *resumed* for the drain's duration and
    re-paused after -- the owning context still does the
    timeout-conversion.  With no outer deadline armed, a fresh one is.
    """
    outer = _parent_deadlines[-1] if _parent_deadlines else None
    if outer is not None:
        outer.resume()
        try:
            yield outer
        finally:
            outer.pause()
        return
    with parent_deadline(what) as deadline:
        yield deadline


# ----------------------------------------------------------------------
# Worker-side state and entry points (top-level so they pickle)
# ----------------------------------------------------------------------
#: Worker-resident CSR mirrors keyed by the name of their ``indices``
#: segment (unique per published snapshot).  The pcse-style state/rate
#: split: the mirror (attached segments + the lazily built wave tables on
#: the ``CSRGraph``) is long-lived worker state, while each task carries
#: only its source slice and the segment metadata.
_MIRRORS: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

#: Worker-side cap matching :data:`MAX_PUBLICATIONS`.
_MAX_MIRRORS = MAX_PUBLICATIONS


def _pool_worker_boot(src_path: str) -> None:
    """Pool initializer: make ``repro`` importable and warm the registry.

    Deliberately minimal -- everything policy-like (graph backend, wave
    width, telemetry, scenario home module) arrives *per task* via
    :func:`_apply_worker_context`, because a persistent pool outlives any
    single campaign's policies.
    """
    import sys

    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)
    from repro.runner import registry

    registry._ensure_builtins()


def _apply_worker_context(ctx: Dict[str, Any]) -> None:
    """Re-force the parent's per-campaign policies inside the worker."""
    from repro.runner import executor

    executor._worker_init(
        "", ctx.get("module", ""), ctx["backend"], ctx["bfs_batch"], ctx["telemetry"]
    )
    if not ctx["telemetry"]:
        # A forked worker may have inherited a live parent collector; a
        # dark campaign must not keep feeding it.
        from repro.obs import telemetry

        telemetry.disable()


def _pool_run_shard(ctx: Dict[str, Any], scenario_name: str, shard):
    """Worker task: one batch of work units under the shipped context."""
    from repro.runner import executor, faults

    faults.fault_point("pool.task")
    _apply_worker_context(ctx)
    return executor._run_shard(scenario_name, ctx.get("module", ""), shard)


def _attach_segment(meta: Dict[str, Any]):
    """Attach one published array; returns ``(shm, ndarray-view)``.

    An ``OSError`` here -- the OS refusing the attach, or the injected
    ``pool.shm_attach`` fault -- is *transient*: the segment exists and the
    parent is healthy, so the failure surfaces as
    :class:`TransientTaskError` and the parent retries the task within its
    ``REPRO_TASK_RETRIES`` budget instead of failing the campaign.
    """
    import numpy as np
    from multiprocessing import shared_memory

    from repro.runner import faults

    try:
        faults.fault_point("pool.shm_attach")
        shm = shared_memory.SharedMemory(name=meta["name"])
    except OSError as error:
        raise TransientTaskError(
            f"failed to attach shared-memory segment {meta['name']!r}: {error}"
        ) from error
    try:
        # Attaching registers the segment with the resource tracker on
        # Python < 3.13.  Under spawn/forkserver each worker runs its *own*
        # tracker, which would unlink the parent-owned segment when the
        # worker exits -- so unregister there.  Under fork the tracker is
        # shared with the parent and its name set is deduplicated, so a
        # worker-side unregister would strip the parent's own registration
        # (the parent's later unlink-time unregister then trips a KeyError
        # inside the tracker); leave the shared entry alone.
        import multiprocessing

        if multiprocessing.get_start_method(allow_none=True) != "fork":
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    array = np.ndarray(
        tuple(meta["shape"]), dtype=np.dtype(meta["dtype"]), buffer=shm.buf
    )
    return shm, array


def _close_mirror_segments(state: Dict[str, Any]) -> None:
    for shm in state.get("segments", ()):
        try:
            shm.close()
        except Exception:
            pass
    state["segments"] = []


def _mirror_of(token: str, arrays: Dict[str, Any], tel):
    """This worker's CSR mirror of one published snapshot, attached once.

    A snapshot newer than the mirror this worker holds for the same
    publication ``token`` supersedes it: the parent has already unlinked the
    old segments, so the stale mapping is released here as well.
    """
    from repro.graphs.fast import CSRGraph

    key = arrays["indices"]["name"]
    state = _MIRRORS.get(key)
    if state is not None:
        _MIRRORS.move_to_end(key)
        return state["csr"]
    stale = [name for name, old in _MIRRORS.items() if old["token"] == token]
    for name in stale:
        _close_mirror_segments(_MIRRORS.pop(name))
    segments: List[Any] = []
    try:
        for field in ("indptr", "indices"):
            segments.append(_attach_segment(arrays[field]))
    except BaseException:
        # A half-attached mirror must not leak handles while the parent
        # retries the task.
        _close_mirror_segments({"segments": [shm for shm, _ in segments]})
        raise
    (indptr_shm, indptr), (indices_shm, indices) = segments
    csr = CSRGraph(list(range(indptr.size - 1)), {}, indptr, indices)
    _MIRRORS[key] = {"token": token, "segments": [indptr_shm, indices_shm], "csr": csr}
    while len(_MIRRORS) > _MAX_MIRRORS:
        _, evicted = _MIRRORS.popitem(last=False)
        _close_mirror_segments(evicted)
    if tel is not None:
        tel.count("runner.pool.shm_reattach" if stale else "runner.pool.shm_attach")
    return csr


def _pool_path_shard(ctx: Dict[str, Any], token: str, arrays: Dict[str, Any], sources):
    """Worker task: one source shard's exact ``(ecc, totals)`` accumulators.

    Returns ``(ecc, totals, telemetry_snapshot)``; the snapshot is ``None``
    with telemetry off, else the shard's worker-local collection (mirror
    attach counters, the ``runner.path_shard`` accumulate span, the wave
    engine's own counters) for the parent to merge.
    """
    from repro.graphs import fast

    from repro.runner import faults

    faults.fault_point("pool.path_task")
    _apply_worker_context(ctx)
    if not ctx["telemetry"]:
        csr = _mirror_of(token, arrays, None)
        ecc, totals = fast.accumulate_path_shard(csr, sources)
        return ecc, totals, None
    from repro.obs import telemetry

    collector = telemetry.enable(label="path-shard")
    try:
        csr = _mirror_of(token, arrays, collector)
        collector.count("runner.path_shard.sources", int(len(sources)))
        with collector.span("runner.path_shard"):
            ecc, totals = fast.accumulate_path_shard(csr, sources)
    finally:
        telemetry.disable()
    return ecc, totals, collector.snapshot()


# ----------------------------------------------------------------------
# Parent-side publication bookkeeping
# ----------------------------------------------------------------------
def _unlink_segments(segments: List[Any]) -> None:
    """Close and unlink shared-memory segments (idempotent, swallow races)."""
    for shm in segments:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
    segments.clear()


class _Publication:
    """One graph's current CSR snapshot, copied into shared memory."""

    __slots__ = ("token", "generation", "csr", "arrays", "segments", "graph_ref", "finalizer")


class WorkerPool:
    """A persistent :class:`ProcessPoolExecutor` plus CSR publications.

    Obtain instances through :func:`get_pool`; direct construction is fine
    for tests.  Usable as a context manager; :meth:`close` is idempotent
    and also runs from the module ``atexit`` guard.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._spinup_started = 0.0
        self._spinup_pending = False
        self._pubs: "OrderedDict[int, _Publication]" = OrderedDict()
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut the executor down and unlink every published segment."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for key in list(self._pubs):
            self._drop_publication(key)

    def terminate(self) -> None:
        """Close *now*: SIGKILL workers, never wait, unlink every segment.

        The interrupt path (``KeyboardInterrupt``/SIGINT mid-campaign):
        a hung or busy worker must not block the shutdown, and no
        ``repro-pool-*`` segment may survive in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            for process in list(getattr(self._executor, "_processes", {}).values()):
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):
                    pass
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        for key in list(self._pubs):
            self._drop_publication(key)

    # -- executor -------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise PoolError("worker pool is closed")
        if self._executor is None:
            from repro.runner.executor import _repro_src_path

            self._spinup_started = time.perf_counter()
            self._spinup_pending = True
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_worker_boot,
                initargs=(_repro_src_path(),),
            )
        return self._executor

    def _recreate_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def _note_first_result(self) -> None:
        if self._spinup_pending:
            # Pool creation to first task back, as seen from the parent --
            # recorded once per executor lifetime, i.e. once per invocation
            # (plus once per respawn after a killed worker).
            _telemetry().record_span(
                "runner.pool_spinup", time.perf_counter() - self._spinup_started
            )
            self._spinup_pending = False

    # -- task fan-out ---------------------------------------------------
    def _watchdog_kill(self, timeout: float) -> None:
        """No task finished within the deadline: SIGKILL the pool's workers.

        Killing breaks the executor, which routes the hung tasks into the
        ordinary respawn-and-retry (or degraded-serial) machinery -- the
        one recovery path the pool already guarantees is exactly-once.
        """
        if self._executor is None:
            return
        processes = list(getattr(self._executor, "_processes", {}).values())
        pids = [process.pid for process in processes]
        logger.warning(
            "watchdog: no task completed within %.3gs; killing %d pool "
            "worker(s) %s and retrying unfinished shards",
            timeout,
            len(pids),
            pids,
        )
        _telemetry().count("runner.watchdog.kill")
        for process in processes:
            try:
                os.kill(process.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass

    def _drain_serially(
        self,
        remaining: Dict[int, Tuple],
        fallback: Callable[[int], Any],
        on_done: Callable[[int, Any], None],
    ) -> None:
        """Graceful degradation: finish the leftover tasks in-parent.

        Runs after the pool is declared unhealthy.  The fallback computes
        the *same* work from the same ``(index, params, seed)`` inputs, and
        results are merged through the same ``on_done``, so seeds, cache
        keys and the Welford drain order are untouched -- a degraded
        campaign is bit-identical to a clean one, just slower.
        """
        logger.warning(
            "worker pool declared unhealthy after repeated failures; "
            "finishing %d remaining task(s) serially in-parent "
            "(set %s=0 to fail fast instead)",
            len(remaining),
            DEGRADED_SERIAL_ENV_VAR,
        )
        _telemetry().count("runner.degraded_serial", len(remaining))
        self._recreate_executor()
        with _drain_deadline(
            f"degraded-serial drain ({len(remaining)} in-parent task(s))"
        ):
            for key in sorted(remaining):
                result = fallback(key)
                remaining.pop(key)
                on_done(key, result)
                watchdog_beat()

    def _run_tasks(
        self,
        fn: Callable[..., Any],
        tasks: Dict[int, Tuple],
        on_done: Callable[[int, Any], None],
        describe: Callable[[int], str],
        fallback: Optional[Callable[[int], Any]] = None,
    ) -> None:
        """Run every task, exactly-once merging results as they land.

        A :class:`BrokenProcessPool` (killed worker -- or the watchdog
        killing a hung one) respawns the executor after a deterministic
        backoff and resubmits only the tasks whose results were not merged
        yet; once respawns are exhausted the remaining tasks drain serially
        in-parent through ``fallback`` (or raise :class:`PoolError` when
        degradation is disabled or no fallback exists).  A worker-side
        :class:`TransientTaskError` resubmits just that task within its
        retry budget.  Any other task exception is re-raised as
        :class:`PoolTaskError` carrying ``describe(key)``.

        Any armed parent deadline is paused for the duration: while the
        parent waits on the pool, the pool's own watchdog owns hang
        detection (``_drain_serially`` resumes it -- in-parent work is the
        parent watchdog's jurisdiction again).
        """
        with _paused_parent_deadline():
            self._run_tasks_watched(fn, tasks, on_done, describe, fallback)

    def _run_tasks_watched(
        self,
        fn: Callable[..., Any],
        tasks: Dict[int, Tuple],
        on_done: Callable[[int, Any], None],
        describe: Callable[[int], str],
        fallback: Optional[Callable[[int], Any]] = None,
    ) -> None:
        from repro.runner import faults

        # Parse the fault spec in-parent before the first worker exists, so
        # the whole process tree shares one set of invocation counters.
        faults.ensure_loaded()
        tel = _telemetry()
        timeout = task_timeout_policy()
        max_retries = task_retries_policy()
        backoff = retry_backoff_policy()
        remaining = dict(tasks)
        retries: Dict[int, int] = {}
        respawns = 0
        while remaining:
            executor = self._ensure_executor()
            broken = False
            retried = False
            futures: Dict[Any, int] = {}
            try:
                for key, args in remaining.items():
                    futures[executor.submit(fn, *args)] = key
            except (BrokenProcessPool, RuntimeError):
                broken = True
            pending = set(futures)
            last_progress = time.monotonic()
            watchdog_fired = False
            try:
                while pending:
                    if timeout is None:
                        done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    else:
                        budget = timeout - (time.monotonic() - last_progress)
                        done, pending = wait(
                            pending,
                            timeout=max(budget, 0.05),
                            return_when=FIRST_COMPLETED,
                        )
                        if not done:
                            if (
                                not watchdog_fired
                                and time.monotonic() - last_progress >= timeout
                            ):
                                watchdog_fired = True
                                self._watchdog_kill(timeout)
                            continue
                    for future in done:
                        key = futures[future]
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            broken = True
                            continue
                        except TransientTaskError as error:
                            attempts = retries.get(key, 0)
                            if attempts >= max_retries:
                                raise PoolTaskError(describe(key)) from error
                            retries[key] = attempts + 1
                            retried = True
                            tel.count("runner.retry")
                            logger.warning(
                                "transient failure (attempt %d/%d) in %s: %s; "
                                "retrying",
                                attempts + 1,
                                max_retries,
                                describe(key),
                                error,
                            )
                            continue
                        except PoolError:
                            raise
                        except Exception as error:
                            raise PoolTaskError(describe(key)) from error
                        last_progress = time.monotonic()
                        self._note_first_result()
                        remaining.pop(key)
                        on_done(key, result)
            except BaseException:
                for future in pending:
                    future.cancel()
                raise
            if broken:
                respawns += 1
                if respawns > MAX_RESPAWNS:
                    if fallback is not None and degraded_serial_policy():
                        self._drain_serially(remaining, fallback, on_done)
                        return
                    raise PoolError(
                        f"worker pool broke {respawns} times (worker killed or "
                        f"crashed); {len(remaining)} task(s) unfinished; first "
                        f"pending: {describe(next(iter(remaining)))}"
                    )
                tel.count("runner.pool.respawn")
                if backoff > 0:
                    time.sleep(backoff * (2 ** (respawns - 1)))
                self._recreate_executor()
            elif remaining and not retried:
                # Every future drained without a break or a scheduled
                # retry, yet tasks are unfinished -- a logic error; loop
                # again would spin forever.
                raise PoolError(
                    f"{len(remaining)} task(s) unaccounted for after a "
                    f"clean drain; first: {describe(next(iter(remaining)))}"
                )

    def run_unit_shards(
        self,
        ctx: Dict[str, Any],
        scenario_name: str,
        shards: Sequence[Sequence[Tuple]],
        on_shard: Callable[[Any, Any], None],
    ) -> None:
        """Fan work-unit shards out; ``on_shard(results, snapshot)`` streams back."""
        tasks = {i: (ctx, scenario_name, shard) for i, shard in enumerate(shards)}

        def describe(key: int) -> str:
            return (
                f"scenario {scenario_name!r} shard failed in a pool worker; "
                f"units (index, params, seed): {list(shards[key])!r}"
            )

        def fallback(key: int):
            # Degraded-serial drain: the same (index, params, seed) units
            # run in-parent under the parent's own (already active)
            # policies -- no worker context to re-force, no snapshot to
            # merge (instrumented code feeds the live collector directly).
            from repro.runner import executor as executor_mod

            return executor_mod._run_shard(
                scenario_name, ctx.get("module", ""), shards[key]
            )

        self._run_tasks(
            _pool_run_shard,
            tasks,
            lambda key, result: on_shard(*result),
            describe,
            fallback=fallback,
        )

    def run_path_shards(
        self,
        graph,
        csr,
        shards: Sequence[Any],
        ctx: Dict[str, Any],
        on_result: Callable[[int, Any, Any, Any], None],
    ) -> None:
        """Fan path-metric source shards out over the published CSR mirror.

        ``on_result(shard_index, ecc, totals, snapshot)`` streams merged
        results back; the shard index lets the caller map each result onto
        its source span (sub-unit checkpoint journaling records completed
        shards by span).
        """
        pub = self.publish_csr(graph, csr)
        tasks = {
            i: (ctx, pub.token, pub.arrays, shard) for i, shard in enumerate(shards)
        }

        def describe(key: int) -> str:
            shard = shards[key]
            return (
                f"path-metric shard {key} ({len(shard)} sources) failed in a "
                f"pool worker (publication {pub.token}, generation "
                f"{pub.generation})"
            )

        def fallback(key: int):
            # Degraded-serial drain against the parent's own CSR (the
            # authoritative copy the publication mirrors); integer
            # accumulators merge identically wherever they were computed.
            from repro.graphs import fast

            ecc, totals = fast.accumulate_path_shard(csr, shards[key])
            return ecc, totals, None

        self._run_tasks(
            _pool_path_shard,
            tasks,
            lambda key, result: on_result(key, *result),
            describe,
            fallback=fallback,
        )

    # -- shared-memory publication --------------------------------------
    def publish_csr(self, graph, csr) -> _Publication:
        """Make ``csr`` (a snapshot of ``graph``) available to the workers.

        The graph's publication is reused while it holds this very snapshot
        object.  Any other snapshot is copied into fresh shared-memory
        segments (``publish_attach`` on first sight of the graph,
        ``publish_reattach`` after) and the previous segments are unlinked
        at once.
        """
        if self._closed:
            raise PoolError("worker pool is closed")
        key = id(graph)
        pub = self._pubs.get(key)
        if pub is not None and pub.graph_ref() is not graph:
            # id() reuse after the original graph died: drop the corpse.
            self._drop_publication(key)
            pub = None
        if pub is None:
            pub = _Publication()
            pub.token = uuid.uuid4().hex[:12]
            pub.generation = 0
            pub.segments = []
            pub.graph_ref = weakref.ref(graph)
            # Deterministic /dev/shm release even when the graph dies before
            # the pool closes (checkpoint subgraphs are short-lived): the
            # finalizer captures the mutable segment list, never the graph.
            pub.finalizer = weakref.finalize(graph, _unlink_segments, pub.segments)
            self._pubs[key] = pub
            counter = "runner.pool.publish_attach"
        elif pub.csr is csr:
            self._pubs.move_to_end(key)
            return pub
        else:
            _unlink_segments(pub.segments)
            counter = "runner.pool.publish_reattach"
        pub.csr = None
        pub.arrays, shipped = _create_segments(csr, pub.segments)
        pub.csr = csr
        pub.generation += 1
        tel = _telemetry()
        if tel.enabled:
            tel.count(counter)
            tel.count("runner.pool.bytes_shipped", shipped)
            tel.gauge("runner.pool.generation", pub.generation)
        self._pubs.move_to_end(key)
        while len(self._pubs) > MAX_PUBLICATIONS:
            self._drop_publication(next(iter(self._pubs)))
        return pub

    def _drop_publication(self, key: int) -> None:
        pub = self._pubs.pop(key, None)
        if pub is not None:
            # Runs _unlink_segments at most once; a later graph-death no-ops.
            pub.finalizer()


def _create_segments(csr, segments: List[Any]) -> Tuple[Dict[str, Any], int]:
    """Copy ``csr``'s arrays into new segments appended to ``segments``.

    Returns the per-array ``{name, shape, dtype}`` metadata the workers
    attach by, and the bytes copied.
    """
    import numpy as np
    from multiprocessing import shared_memory

    metas: Dict[str, Any] = {}
    shipped = 0
    for name, array in (("indptr", csr.indptr), ("indices", csr.indices)):
        data = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, int(data.nbytes)),
            name=SHM_PREFIX + uuid.uuid4().hex[:16],
        )
        segments.append(shm)
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        view[:] = data
        metas[name] = {"name": shm.name, "shape": list(data.shape), "dtype": str(data.dtype)}
        shipped += int(data.nbytes)
    return metas, shipped


# ----------------------------------------------------------------------
# Module-level pool registry (one pool per worker count per invocation)
# ----------------------------------------------------------------------
_POOLS: Dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """The invocation-wide persistent pool for ``workers`` processes."""
    pool = _POOLS.get(workers)
    if pool is None or pool.closed:
        pool = WorkerPool(workers)
        _POOLS[workers] = pool
    return pool


def shutdown_pools(*, terminate: bool = False) -> None:
    """Close every registered pool (idempotent; also the ``atexit`` guard).

    ``terminate=True`` is the interrupt path: workers are SIGKILLed and the
    shutdown never waits, so a hung worker cannot block a ^C.
    """
    for pool in list(_POOLS.values()):
        if terminate:
            pool.terminate()
        else:
            pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
