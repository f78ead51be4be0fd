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
  :mod:`multiprocessing.shared_memory` segments.  A pool holds one
  publication: it is reused while it holds the very same CSR snapshot
  object, and any other snapshot replaces it -- the old segments are
  unlinked at once, so ``/dev/shm`` never holds more than one snapshot per
  pool.  Each worker likewise holds one mirror, attached on the first task
  that names a new ``indices`` segment (and released at that point), so
  every task ships only its source slice and the segment names.
* **Failure ladder** -- every task gets :data:`MAX_POOL_ATTEMPTS`
  attempts.  A killed worker breaks the executor, which costs every task
  whose result has not been merged yet one attempt; the executor is then
  recreated (``runner.pool.respawn``) and only those tasks are resubmitted
  (exactly-once delivery: accumulator merges are not idempotent).  A *hung*
  worker is turned into a killed one by the watchdog: when
  ``REPRO_TASK_TIMEOUT`` is set and no task completes within that many
  seconds, the pool's workers are SIGKILLed (``runner.watchdog.kill``).  A
  worker-side :class:`TransientTaskError` (a shared-memory attach refused
  by the OS) costs only that task an attempt (``runner.retry``).  Tasks
  that use up their attempts go back to the caller, which runs them through
  its own in-parent path (``runner.degraded_serial`` + a warning) -- the
  same code that runs ``workers=1``, so unit seeds, cache keys and the
  in-order Welford drain are untouched and the campaign stays bit-identical
  to a clean one.  A task raising a real exception surfaces as
  :class:`PoolTaskError` carrying the failing shard's unit context.  Any
  abnormal exit while tasks are in flight -- that error, ^C, the parent
  deadline -- SIGKILLs the pool's workers and unlinks its segments first
  (:meth:`WorkerPool.terminate`), so a busy sibling task can never hold the
  interpreter's exit; the next campaign spins up a fresh pool.
* **Watchdog** -- :func:`parent_deadline`, one no-progress timer in the
  parent: expiring while it waits on the workers, it kills them (the
  ladder above); anywhere else, it raises :class:`ParentTimeoutError`.

Everything is observation-instrumented via :mod:`repro.obs.telemetry`:
``runner.pool_spinup`` span, ``runner.pool.generation`` gauge, publish
attach/reattach and worker-side shm attach/reattach counters,
a ``runner.pool.bytes_shipped`` counter for the broadcast volume, and the
failure-path counters above.  Deterministic chaos tests drive these paths
via :mod:`repro.runner.faults` (sites ``pool.task`` / ``pool.path_task`` /
``pool.shm_attach``).
"""

from __future__ import annotations

import atexit
import importlib
import logging
import os
import signal
import threading
import time
import uuid
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.telemetry import current as _telemetry
from repro.runner import config, faults

logger = logging.getLogger(__name__)

#: Name prefix of every shared-memory segment the pool creates.  Tests (and
#: humans) can audit ``/dev/shm`` for leaks by this prefix; the creating
#: process's pid follows it (:func:`segment_prefix`), so an audit can tell
#: its own segments from another campaign's on the same machine.  A name
#: ends in 12 hex digits: with a pid of at most 7 digits it stays within 31
#: characters, the POSIX limit on macOS.
SHM_PREFIX = "repro-pool-"


def segment_prefix() -> str:
    """``repro-pool-<pid>-``: the prefix of this process's segments."""
    return f"{SHM_PREFIX}{os.getpid()}-"


#: Attempts each pool task gets before it goes back to the caller to run
#: in-parent.  A broken executor costs every unmerged task one attempt; a
#: worker-side :class:`TransientTaskError` costs only its own task one.
MAX_POOL_ATTEMPTS = 2

#: Seconds :meth:`WorkerPool.terminate` waits for the executor's management
#: thread to notice its killed workers and close its wakeup pipe.
TERMINATE_JOIN_SECONDS = 5.0

class PoolError(RuntimeError):
    """The pool itself failed (closed, or an in-parent deadline fired)."""


class PoolTaskError(PoolError):
    """One task failed in a worker; the message carries its unit context."""


class ParentTimeoutError(PoolError):
    """In-parent work (serial units, shards, merges) blew the task deadline.

    Work in the parent -- the serial unit loop, in-parent checkpoint
    shards, the merge of each pool result, the tasks the pool handed back
    -- has no worker to kill, so when :func:`parent_deadline`'s timer
    expires there the deadline raises this, and the hang ends with a
    resumable journal instead of lasting forever.
    """


class TransientTaskError(RuntimeError):
    """A worker-side failure worth retrying (the environment refused, the
    task itself did not fail).  Crosses the process boundary by pickling;
    it costs the task one of its :data:`MAX_POOL_ATTEMPTS` attempts.
    """


# ----------------------------------------------------------------------
# Parent-side watchdog: one no-progress deadline on ITIMER_REAL
# ----------------------------------------------------------------------
class _DeadlineExpired(BaseException):
    """Raised by the deadline's ``SIGALRM`` handler outside a pool wait.

    A ``BaseException``, like ^C's ``KeyboardInterrupt``, so that no
    ``except Exception`` in the interrupted code can swallow it; the armed
    :func:`parent_deadline` turns it into :class:`ParentTimeoutError`.
    """


class _ParentDeadline:
    """A no-progress deadline on the main thread's ``ITIMER_REAL``.

    Every progress point re-arms the timer (:meth:`beat`).  Its ``SIGALRM``
    EINTRs whatever blocking call the main thread is in, and the handler
    then runs there.  While :attr:`on_stall` is set (the parent waits on
    pool workers) it calls ``on_stall(timeout)``, which kills the workers,
    and re-arms; otherwise it raises :class:`_DeadlineExpired` where the
    main thread stands.
    """

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self.on_stall: Optional[Callable[[float], None]] = None

    def beat(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.timeout)

    def _expired(self, signum, frame) -> None:
        if _armed is not self:
            return  # a late signal while the deadline is torn down
        if self.on_stall is not None:
            self.on_stall(self.timeout)
            self.beat()
            return
        raise _DeadlineExpired


#: The armed parent deadline, if any.  Only the main thread arms one.
_armed: Optional[_ParentDeadline] = None
_warned_off_main = False


@contextmanager
def parent_deadline(what: str):
    """Bound in-parent work by ``REPRO_TASK_TIMEOUT`` (``None`` when unset).

    Nested under an armed deadline, yields that outer deadline: it owns
    hang detection for everything under it, and the nested progress points
    keep beating it through :func:`watchdog_beat`.  Off the main thread it
    yields ``None`` and warns once, since no signal handler runs there: no
    in-parent deadline, and no hung pool worker is killed.  While armed it
    owns the process's ``ITIMER_REAL``; exiting disarms it.
    """
    global _armed, _warned_off_main
    timeout = config.value("task_timeout")
    if timeout is None:
        yield None
        return
    if threading.current_thread() is not threading.main_thread():
        if not _warned_off_main:
            _warned_off_main = True
            logger.warning(
                "REPRO_TASK_TIMEOUT is set but %s runs off the main thread, "
                "where no signal handler can run; it has no deadline and a "
                "hung pool worker is not killed",
                what,
            )
        yield None
        return
    if _armed is not None:
        yield _armed
        return
    deadline = _ParentDeadline(timeout)
    previous = signal.signal(signal.SIGALRM, deadline._expired)
    _armed = deadline
    try:
        deadline.beat()
        yield deadline
    except _DeadlineExpired:
        logger.warning(
            "parent watchdog: %s made no progress within %.3gs "
            "(REPRO_TASK_TIMEOUT); interrupting -- the campaign journal "
            "stays resumable",
            what,
            timeout,
        )
        _telemetry().count("runner.watchdog.parent_timeout")
        raise ParentTimeoutError(
            f"{what} made no progress within {timeout:g}s "
            "(REPRO_TASK_TIMEOUT); the campaign journal stays "
            "resumable -- rerun with --resume"
        )
    finally:
        _armed = None
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous or signal.SIG_DFL)


def watchdog_beat() -> None:
    """Record progress: re-arm the armed parent deadline (if any)."""
    if _armed is not None:
        _armed.beat()


# ----------------------------------------------------------------------
# Worker-side state and entry points (top-level so they pickle)
# ----------------------------------------------------------------------
#: This worker's CSR mirror of the parent's publication: ``(name of the
#: indices segment, attached segments, CSRGraph)``, or ``None``.  The mirror
#: (attached segments + the lazily built wave tables on the ``CSRGraph``) is
#: long-lived worker state, while each task carries only its source slice
#: and the segment metadata.
_mirror: Optional[Tuple[str, List[Any], Any]] = None


def _repro_src_path() -> str:
    """The directory that must be on ``sys.path`` for ``import repro``."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _pool_worker_boot(src_path: str) -> None:
    """Pool initializer: make ``repro`` importable and warm the registry.

    Deliberately minimal -- everything policy-like (graph backend,
    telemetry, scenario home module) arrives *per task* via
    :func:`_apply_worker_context`, because a persistent pool outlives any
    single campaign's policies.  The one exception is the wave thread
    count: the pool already keeps every core busy with one worker each, so
    each worker runs its waves on one thread (``fast.WAVE_THREADS = 1``).
    """
    import sys

    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)
    from repro.runner import registry

    registry._ensure_builtins()
    try:
        from repro.graphs import fast
    except ImportError:  # no numpy: every wave runs on the reference backend
        pass
    else:
        fast.WAVE_THREADS = 1


def task_context(module: str = "") -> Dict[str, Any]:
    """The parent's per-campaign policies, built once per fan-out.

    The scenario's home ``module`` (empty for path-metric shards), the
    result-changing knob ``pins`` (:func:`repro.runner.config.pins`),
    whether the parent collects ``telemetry`` and its armed ``faults``.
    """
    return {
        "module": module,
        "pins": config.pins(),
        "telemetry": _telemetry().enabled,
        "faults": faults.shipped(),
    }


def _apply_worker_context(ctx: Dict[str, Any]) -> None:
    """Re-force the parent's per-campaign policies inside the worker.

    The pool outlives any one campaign, so the parent's *resolved* graph
    backend (``ctx["pins"]``) is re-forced for every task: ``backend.use()``
    lives in process globals that ``spawn`` / ``forkserver`` children do not
    inherit, and the cache keys record the parent's policy, so workers must
    actually compute under it.  The fault plane is adopted first, so that a
    plane armed after the workers were forked still reaches them.  A
    scenario home module that fails to import raises
    :class:`~repro.core.errors.ConfigError` naming the module.
    """
    faults.adopt(ctx["faults"])
    from repro.graphs import backend
    from repro.obs import telemetry
    from repro.runner import registry

    backend.use(ctx["pins"]["graph_backend"])
    registry._ensure_builtins()
    module = ctx["module"]
    if module and module != "__main__":
        try:
            importlib.import_module(module)
        except ImportError as error:
            # A broken scenario home must fail loudly *here*, naming the
            # module -- not later as a baffling unknown-scenario error when
            # the first shard tries to resolve its scenario.
            from repro.core.errors import ConfigError

            logger.exception(
                "scenario home module %r failed to import in a worker", module
            )
            raise ConfigError(
                f"scenario home module {module!r} failed to import in a "
                f"worker: {error}"
            ) from error
    if not ctx["telemetry"]:
        # A forked worker may have inherited a live parent collector; a
        # dark campaign must not keep feeding it.
        telemetry.disable()


def _collected(ctx: Dict[str, Any], label: str, work: Callable[[Any], Any]):
    """Run ``work(tel)`` in a worker; returns ``(result, telemetry_snapshot)``.

    When the parent collects telemetry (``ctx["telemetry"]``), ``tel`` is a
    fresh worker-local collector labelled ``label`` and the snapshot is its
    collection, for the parent to merge.  Collection is task-scoped, so
    merging the snapshots never double-counts a long-lived worker.  When the
    parent runs dark, ``tel`` is the no-op :data:`repro.obs.telemetry.NULL`
    and the snapshot is ``None``.
    """
    from repro.obs import telemetry

    if not ctx["telemetry"]:
        return work(telemetry.NULL), None
    collector = telemetry.enable(label=label)
    try:
        result = work(collector)
    finally:
        telemetry.disable()
    return result, collector.snapshot()


def _pool_run_shard(ctx: Dict[str, Any], scenario_name: str, shard):
    """Worker task: one batch of ``(index, params, seed)`` work units.

    Returns ``([(index, metrics), ...], telemetry_snapshot)``, with one
    ``runner.unit`` span per unit in the snapshot.  The scenario's home
    module was imported by :func:`_apply_worker_context`, so the registry
    resolves it here.
    """
    from repro.runner import registry

    _apply_worker_context(ctx)
    faults.fault_point("pool.task")
    sc = registry.get_scenario(scenario_name)

    def run(tel) -> List[Tuple[int, Dict[str, float]]]:
        results = []
        for index, params, seed in shard:
            with tel.span("runner.unit"):
                results.append((index, sc.call(seed=seed, **params)))
        return results

    return _collected(ctx, "worker-shard", run)


def _attach_segment(meta: Dict[str, Any]):
    """Attach one published array; returns ``(shm, ndarray-view)``.

    An ``OSError`` here -- the OS refusing the attach, or the injected
    ``pool.shm_attach`` fault -- is *transient*: the segment exists and the
    parent is healthy, so the failure surfaces as
    :class:`TransientTaskError` and costs the task one attempt instead of
    failing the campaign.
    """
    import numpy as np
    from multiprocessing import shared_memory

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


def _close_segments(segments: List[Any]) -> None:
    for shm in segments:
        try:
            shm.close()
        except Exception:
            pass


def _mirror_of(arrays: Dict[str, Any], tel):
    """This worker's CSR mirror of the published snapshot, attached once.

    A task naming another ``indices`` segment means the parent published a
    new snapshot and has already unlinked the old one, so the old mirror is
    released before the new segments are attached.
    """
    global _mirror
    from repro.graphs.fast import CSRGraph

    name = arrays["indices"]["name"]
    replaced = _mirror is not None
    if replaced:
        if _mirror[0] == name:
            return _mirror[2]
        # Drop the CSR views first, so closing the mappings can succeed.
        old_segments = _mirror[1]
        _mirror = None
        _close_segments(old_segments)
    segments: List[Any] = []
    try:
        for field in ("indptr", "indices"):
            segments.append(_attach_segment(arrays[field]))
    except BaseException:
        # A half-attached mirror must not leak handles while the parent
        # retries the task.
        _close_segments([shm for shm, _ in segments])
        raise
    (indptr_shm, indptr), (indices_shm, indices) = segments
    csr = CSRGraph(list(range(indptr.size - 1)), {}, indptr, indices)
    _mirror = (name, [indptr_shm, indices_shm], csr)
    tel.count("runner.pool.shm_reattach" if replaced else "runner.pool.shm_attach")
    return csr


def _pool_path_shard(ctx: Dict[str, Any], arrays: Dict[str, Any], sources):
    """Worker task: one source shard's exact ``(ecc, totals)`` accumulators.

    Returns ``(ecc, totals, telemetry_snapshot)``; the snapshot holds the
    mirror attach counters, the ``runner.path_shard`` accumulate span and the
    wave engine's own counters (see :func:`_collected`).
    """
    from repro.graphs import fast

    _apply_worker_context(ctx)
    faults.fault_point("pool.path_task")

    def run(tel):
        csr = _mirror_of(arrays, tel)
        tel.count("runner.path_shard.sources", int(len(sources)))
        with tel.span("runner.path_shard"):
            return fast.accumulate_path_shard(csr, sources)

    (ecc, totals), snapshot = _collected(ctx, "path-shard", run)
    return ecc, totals, snapshot


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class WorkerPool:
    """A persistent :class:`ProcessPoolExecutor` plus one CSR publication.

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
        #: The published snapshot, its segments' metadata and the segments.
        self._csr = None
        self._arrays: Dict[str, Any] = {}
        self._segments: List[Any] = []
        #: Snapshots this pool has published (the ``generation`` gauge).
        self._generation = 0
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
        self._shut(kill=False)

    def terminate(self) -> None:
        """Close *now*: SIGKILL workers, never wait, unlink every segment.

        The abnormal-exit path of :meth:`_run_tasks` (a failed task, ^C, the
        parent deadline): a hung or busy worker must not block the shutdown,
        and no ``repro-pool-*`` segment may survive in ``/dev/shm``.  After the
        SIGKILL it joins the executor's management thread, for at most
        :data:`TERMINATE_JOIN_SECONDS`: left running, that thread's
        teardown can close its wakeup pipe while ``concurrent.futures``'
        exit hook writes to it, which prints ``OSError: [Errno 9] Bad file
        descriptor`` as the interpreter exits.
        """
        self._shut(kill=True)

    def _shut(self, kill: bool) -> None:
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            manager = getattr(self._executor, "_executor_manager_thread", None)
            if kill:
                self._kill_workers()
            self._executor.shutdown(wait=not kill, cancel_futures=kill)
            self._executor = None
            if kill and manager is not None:
                manager.join(TERMINATE_JOIN_SECONDS)
        self._unpublish()

    # -- executor -------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise PoolError("worker pool is closed")
        if self._executor is None:
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

    def _kill_workers(self) -> List[int]:
        """SIGKILL the executor's worker processes; returns their pids."""
        processes = getattr(self._executor, "_processes", {})
        pids = [process.pid for process in list(processes.values())]
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        return pids

    # -- task fan-out ---------------------------------------------------
    def _watchdog_kill(self, timeout: float) -> None:
        """No task finished within the deadline: SIGKILL the pool's workers.

        Killing breaks the executor, which routes the hung tasks into the
        ordinary failure ladder -- the one recovery path the pool already
        guarantees is exactly-once.
        """
        pids = self._kill_workers()
        logger.warning(
            "watchdog: no task completed within %.3gs; killing %d pool "
            "worker(s) %s and retrying unfinished shards",
            timeout,
            len(pids),
            pids,
        )
        _telemetry().count("runner.watchdog.kill")

    def _run_tasks(
        self,
        fn: Callable[..., Any],
        tasks: Dict[int, Tuple],
        on_done: Callable[[int, Any], None],
        describe: Callable[[int], str],
    ) -> List[int]:
        """Run every task, exactly-once merging results as they land.

        Each round submits the tasks whose results are not merged yet, and
        every task a round leaves unfinished has spent one attempt: a
        :class:`BrokenProcessPool` (killed worker -- or the watchdog killing
        a hung one) leaves every unmerged task unfinished and recreates the
        executor, a worker-side :class:`TransientTaskError` leaves just its
        own task.  Returns the sorted keys of the tasks that used up
        :data:`MAX_POOL_ATTEMPTS`; the caller finishes those in-parent.  Any
        other task exception is re-raised as :class:`PoolTaskError`
        carrying ``describe(key)``.

        Everything runs under the parent deadline -- the caller's when one
        is armed, else one armed here.  While the parent waits on the
        workers its ``on_stall`` is :meth:`_watchdog_kill`, so a stall kills
        the workers; ``on_done`` runs in the parent without it, so a stall
        there raises :class:`ParentTimeoutError`.  Each round start, each
        landed result and each merge beat the deadline.

        Tasks are in flight only in here, so this is where every abnormal
        exit -- a :class:`PoolTaskError`, ^C, the deadline, a failing merge
        -- stops them: with any task still unfinished, :meth:`terminate`
        kills the pool before the exception propagates.  Running calls
        cannot be cancelled, and left alone they would keep the interpreter's
        exit waiting in the ``atexit`` guard for as long as they run.
        """
        tel = _telemetry()
        remaining = dict(tasks)
        futures: Dict[Any, int] = {}
        try:
            with parent_deadline("merging pool results") as deadline:
                for attempt in range(1, MAX_POOL_ATTEMPTS + 1):
                    executor = self._ensure_executor()
                    broken = False
                    futures = {}
                    try:
                        for key, args in remaining.items():
                            futures[executor.submit(fn, *args)] = key
                    except (BrokenProcessPool, RuntimeError):
                        broken = True
                    pending = set(futures)
                    watchdog_beat()
                    while pending:
                        if deadline is not None:
                            deadline.on_stall = self._watchdog_kill
                        try:
                            done, pending = wait(pending, return_when=FIRST_COMPLETED)
                        finally:
                            if deadline is not None:
                                deadline.on_stall = None
                        for future in done:
                            key = futures[future]
                            try:
                                result = future.result()
                            except BrokenProcessPool:
                                broken = True
                                continue
                            except TransientTaskError as error:
                                tel.count("runner.retry")
                                logger.warning(
                                    "transient failure (attempt %d/%d) in %s: %s",
                                    attempt,
                                    MAX_POOL_ATTEMPTS,
                                    describe(key),
                                    error,
                                )
                                continue
                            except PoolError:
                                raise
                            except Exception as error:
                                raise PoolTaskError(describe(key)) from error
                            watchdog_beat()
                            self._note_first_result()
                            remaining.pop(key)
                            on_done(key, result)
                            watchdog_beat()
                    if broken:
                        self._recreate_executor()
                    if not remaining:
                        return []
                    if broken and attempt < MAX_POOL_ATTEMPTS:
                        tel.count("runner.pool.respawn")
        except BaseException:
            busy = sum(not future.done() for future in futures)
            if busy:
                logger.warning("killing the pool's workers: %d task(s) in flight", busy)
                self.terminate()
            raise
        logger.warning(
            "%d pool task(s) failed %d attempts; finishing them in-parent",
            len(remaining),
            MAX_POOL_ATTEMPTS,
        )
        tel.count("runner.degraded_serial", len(remaining))
        return sorted(remaining)

    def run_unit_shards(
        self,
        ctx: Dict[str, Any],
        scenario_name: str,
        shards: Sequence[Sequence[Tuple]],
        on_shard: Callable[[Any, Any], None],
    ) -> List[int]:
        """Fan work-unit shards out; ``on_shard(results, snapshot)`` streams back.

        Returns the indices of the shards the caller must run in-parent.
        """
        tasks = {i: (ctx, scenario_name, shard) for i, shard in enumerate(shards)}

        def describe(key: int) -> str:
            return (
                f"scenario {scenario_name!r} shard failed in a pool worker; "
                f"units (index, params, seed): {list(shards[key])!r}"
            )

        return self._run_tasks(
            _pool_run_shard, tasks, lambda key, result: on_shard(*result), describe
        )

    def run_path_shards(
        self,
        csr,
        shards: Sequence[Any],
        ctx: Dict[str, Any],
        on_result: Callable[[int, Any, Any, Any], None],
    ) -> List[int]:
        """Fan path-metric source shards out over the published CSR mirror.

        ``on_result(shard_index, ecc, totals, snapshot)`` streams merged
        results back; the shard index lets the caller map each result onto
        its source span (sub-unit checkpoint journaling records completed
        shards by span).  Returns the indices of the shards the caller must
        run in-parent.
        """
        arrays = self.publish_csr(csr)
        tasks = {i: (ctx, arrays, shard) for i, shard in enumerate(shards)}

        def describe(key: int) -> str:
            return (
                f"path-metric shard {key} ({len(shards[key])} sources) failed "
                f"in a pool worker (segment {arrays['indices']['name']}, "
                f"generation {self._generation})"
            )

        return self._run_tasks(
            _pool_path_shard,
            tasks,
            lambda key, result: on_result(key, *result),
            describe,
        )

    # -- shared-memory publication --------------------------------------
    def publish_csr(self, csr) -> Dict[str, Any]:
        """Make the snapshot ``csr`` available to the workers.

        Returns the ``{indptr, indices}`` segment metadata the workers attach
        by.  The publication is reused while it holds this very snapshot
        object.  Any other snapshot is copied into fresh shared-memory
        segments (``publish_attach`` for the pool's first publication,
        ``publish_reattach`` after) and the previous segments are unlinked
        at once.
        """
        if self._closed:
            raise PoolError("worker pool is closed")
        if self._csr is csr:
            return self._arrays
        self._unpublish()
        self._arrays, shipped = _create_segments(csr, self._segments)
        self._csr = csr
        self._generation += 1
        tel = _telemetry()
        if tel.enabled:
            tel.count(
                "runner.pool.publish_attach"
                if self._generation == 1
                else "runner.pool.publish_reattach"
            )
            tel.count("runner.pool.bytes_shipped", shipped)
            tel.gauge("runner.pool.generation", self._generation)
        return self._arrays

    def _unpublish(self) -> None:
        """Close and unlink the published segments (swallowing races)."""
        self._csr = None
        _close_segments(self._segments)
        for shm in self._segments:
            try:
                shm.unlink()
            except Exception:
                pass
        self._segments.clear()


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
            name=segment_prefix() + uuid.uuid4().hex[:12],
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


def shutdown_pools() -> None:
    """Close every registered pool (idempotent; also the ``atexit`` guard)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
