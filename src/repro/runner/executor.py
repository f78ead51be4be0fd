"""Sharded execution of scenario specs: serial, process-parallel, cached.

The executor turns a :class:`~repro.runner.spec.ScenarioSpec` into its flat
work-unit schedule, serves whatever it can from the
:class:`~repro.runner.cache.ResultCache`, and computes the remainder either
in-process or on the invocation-wide persistent worker pool
(:mod:`repro.runner.pool`).  Three properties hold by construction:

* **determinism** -- every unit's seed is derived from the spec alone, and
  results are re-ordered by unit index before aggregation, so ``workers=N``
  is bit-identical to ``workers=1``;
* **incrementality** -- the cache is keyed per unit, so enlarging a grid or
  adding trials only computes the new units;
* **streaming aggregation** -- per-point Welford accumulators are fed as
  results arrive; memory is O(grid points x metrics), not O(trials).
"""

from __future__ import annotations

import importlib
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.telemetry import current as _telemetry
from repro.runner.cache import ResultCache
from repro.runner.registry import get_scenario, resolve_for_worker
from repro.runner.spec import ScenarioSpec, WorkUnit
from repro.runner.stats import MetricAggregator

ProgressFn = Callable[[str], None]

logger = logging.getLogger(__name__)

#: Work units handed to each pool submission; batching amortises pickling and
#: process round-trips for sweeps with many tiny units.
DEFAULT_SHARD_SIZE = 8

#: Execution-level override for source-sharded path-metric campaigns inside
#: scenarios (``resilience-at-scale``): how many pool workers each
#: full-population campaign fans its sources across.  An *environment* knob
#: rather than a scenario parameter on purpose -- parameters feed unit-seed
#: derivation and cache identity, and a pure performance knob must change
#: neither (the sharded merge is bit-identical to serial by construction).
PATH_WORKERS_ENV_VAR = "REPRO_PATH_WORKERS"


def path_workers_policy() -> int:
    """Workers for in-scenario sharded path-metric campaigns (default 1).

    Parses :data:`PATH_WORKERS_ENV_VAR`; an invalid value raises
    :class:`repro.core.errors.ConfigError` instead of silently running
    serial.
    """
    raw = os.environ.get(PATH_WORKERS_ENV_VAR, "").strip()
    if not raw:
        return 1
    from repro.core.errors import ConfigError

    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(
            f"invalid {PATH_WORKERS_ENV_VAR}={raw!r}; expected a positive "
            "integer of pool workers"
        )
    return value


# ----------------------------------------------------------------------
# Worker-side entry points (top-level so they pickle under any start method)
# ----------------------------------------------------------------------
#: Worker-side flag: whether the parent had telemetry enabled when the pool
#: spun up.  When set, every shard runs under a fresh worker-local collector
#: whose snapshot rides back to the parent with the shard's results.
_WORKER_TELEMETRY = {"enabled": False}


def _worker_init(
    src_path: str, module: str, graph_backend: str, bfs_batch, telemetry: bool = False
) -> None:
    """Apply parent policies inside a worker (initializer or per-task).

    The persistent pool (:mod:`repro.runner.pool`) calls this per *task*
    with ``src_path=""``: the pool outlives any one campaign, so the
    parent's *resolved* graph-backend and wave-width policies are re-forced
    for every shard -- forced state set via ``backend.use()`` /
    ``use_bfs_batch()`` lives in process globals that ``spawn`` /
    ``forkserver`` children do not inherit, and the cache keys record the
    parent's policy, so workers must actually compute under it.  The
    parent's telemetry state is shipped the same way (a pure observation
    flag: it feeds no seed, parameter or cache key).  A scenario home
    module that fails to import raises
    :class:`~repro.core.errors.ConfigError` naming the module.
    """
    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)
    from repro.graphs import backend
    from repro.runner import registry

    backend.use(graph_backend)
    backend.use_bfs_batch(bfs_batch)
    _WORKER_TELEMETRY["enabled"] = bool(telemetry)
    registry._ensure_builtins()
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


def run_unit(scenario_name: str, module: str, params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """Execute one work unit and return its flat metrics."""
    sc = resolve_for_worker(scenario_name, module)
    return sc.call(seed=seed, **params)


def _run_shard(
    scenario_name: str,
    module: str,
    shard: Sequence[Tuple[int, Mapping[str, Any], int]],
) -> Tuple[List[Tuple[int, Dict[str, float]]], Optional[Dict[str, Any]]]:
    """Execute a batch of ``(index, params, seed)`` units in one worker call.

    Returns ``(results, telemetry_snapshot)``; the snapshot is ``None``
    unless the parent enabled telemetry, in which case the shard ran under a
    fresh worker-local collector (per-unit ``runner.unit`` spans plus
    whatever the scenario's instrumented subsystems recorded) that the
    parent merges.  Collection is shard-scoped precisely so merging the
    returned snapshots can never double-count a long-lived worker.

    Each unit runs under a sub-unit checkpoint scope
    (:func:`repro.runner.journal.unit_scope`) and beats the parent
    watchdog when it finishes.  Both are process-local no-ops in a pool
    worker; they only bite when this function is the *degraded-serial
    fallback* running in the parent of a journaled campaign -- there, a
    long unit's path-metric checkpoints journal at shard granularity and
    feed the drain's hang deadline.
    """
    from repro.runner import journal as journal_mod
    from repro.runner import pool as pool_mod

    def one_unit(index: int, params: Mapping[str, Any], seed: int) -> Dict[str, float]:
        with journal_mod.unit_scope(index):
            metrics = run_unit(scenario_name, module, params, seed)
        pool_mod.watchdog_beat()
        return metrics

    if not _WORKER_TELEMETRY["enabled"]:
        return [
            (index, one_unit(index, params, seed))
            for index, params, seed in shard
        ], None
    from repro.obs import telemetry

    collector = telemetry.enable(label="worker-shard")
    try:
        results = []
        for index, params, seed in shard:
            with collector.span("runner.unit"):
                results.append((index, one_unit(index, params, seed)))
    finally:
        telemetry.disable()
    return results, collector.snapshot()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything one executed spec produced."""

    spec: ScenarioSpec
    #: One flat metric mapping per work unit, in unit (schedule) order.
    unit_metrics: List[Dict[str, float]] = field(default_factory=list)
    #: One aggregator per grid point, in grid order.
    aggregates: List[MetricAggregator] = field(default_factory=list)
    points: List[Dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cache entries that existed but could not be decoded: evicted and
    #: recomputed (a subset of ``cache_misses``), reported apart so a sweep
    #: with a rotting cache is visible in the run summary.
    cache_corrupt: int = 0
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Units replayed verbatim from the campaign journal (``--resume``).
    replayed: int = 0
    #: Where this campaign journaled its progress (``None`` when off).
    journal_path: Optional[str] = None
    #: Sub-unit checkpoint shards replayed from the journal instead of
    #: recomputed (``--resume`` re-entering a partially-finished unit).
    checkpoints_replayed: int = 0
    #: Fresh sub-unit checkpoint shards appended to the journal.
    checkpoints_recorded: int = 0

    def rows(self) -> List[Dict[str, Any]]:
        """One reporting/export row per grid point: params + aggregate metrics.

        The shape plugs directly into
        :func:`repro.analysis.reporting.render_result_rows` and
        :func:`repro.analysis.export.write_rows_csv`.
        """
        rows: List[Dict[str, Any]] = []
        for point, aggregate in zip(self.points, self.aggregates):
            row: Dict[str, Any] = dict(point)
            row["trials"] = aggregate.trials()
            row.update(aggregate.row())
            rows.append(row)
        return rows

    def metrics_for(self, **conditions: Any) -> List[Dict[str, float]]:
        """Per-trial metrics of every unit whose params match ``conditions``."""
        units = self.spec.work_units()
        return [
            self.unit_metrics[unit.index]
            for unit in units
            if all(unit.params.get(key) == value for key, value in conditions.items())
        ]

    def scalar(self, metric: str, **conditions: Any) -> float:
        """Mean of one metric over the matching grid points' trials."""
        matched = self.metrics_for(**conditions)
        if not matched:
            raise KeyError(f"no units match {conditions!r}")
        values = [metrics[metric] for metrics in matched]
        return sum(values) / len(values)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _repro_src_path() -> str:
    """The directory that must be on ``sys.path`` for ``import repro``."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _shards(
    pending: List[WorkUnit], shard_size: int
) -> List[List[Tuple[int, Mapping[str, Any], int]]]:
    """Chunk pending units into pickling-friendly ``(index, params, seed)`` shards."""
    flat = [(unit.index, dict(unit.params), unit.seed) for unit in pending]
    return [flat[start : start + shard_size] for start in range(0, len(flat), shard_size)]


def execute(
    spec: ScenarioSpec,
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressFn] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    journal: Optional[Any] = None,
    resume: bool = False,
) -> RunResult:
    """Run every (grid point x trial) unit of ``spec`` and aggregate.

    ``workers=1`` runs in-process; ``workers>1`` shards the cache-miss units
    across a :class:`~concurrent.futures.ProcessPoolExecutor`.  Pass a
    :class:`ResultCache` to serve repeats from disk and persist fresh results.

    ``journal`` (a path) records every completed unit into an append-only
    :class:`~repro.runner.journal.CampaignJournal`; with ``resume=True`` the
    journal's recorded units are replayed verbatim first (header-validated
    against this spec and environment), so a campaign interrupted by a
    crash or ^C finishes with aggregates bit-identical to an uninterrupted
    run.  Journaled campaigns also checkpoint *inside* long units: exact
    path-metric checkpoints computed in the parent process journal their
    integer accumulators per shard (journal schema v2), and ``--resume``
    re-enters a partially-finished unit from its first incomplete
    checkpoint shard -- still bit-identical, because the accumulator
    merges are exact-integer and order-free.  ``resume=True`` without a
    journal raises :class:`~repro.core.errors.ConfigError`.

    ``KeyboardInterrupt`` mid-campaign tears the worker pools down
    deterministically (workers SIGKILLed, every ``repro-pool-*``
    shared-memory segment unlinked) before re-raising; serial in-parent
    units run under the parent watchdog (``REPRO_TASK_TIMEOUT``), whose
    :class:`~repro.runner.pool.ParentTimeoutError` gets the same teardown.
    Every exit path closes the journal, so whatever progress was recorded
    stays resumable.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    sc = get_scenario(spec.name)
    if sc.shard_size is not None:
        # Heavy at-scale scenarios cap their own shard width so a trial grid
        # fans out across every worker instead of queueing behind one shard
        # (results are unit-seeded, so sharding never affects values).
        shard_size = min(shard_size, sc.shard_size)
    sc.check_params(set(spec.params) | set(spec.grid))
    spec = spec.resolved(sc.defaults)
    units = spec.work_units()
    started = time.perf_counter()
    tel = _telemetry()
    if tel.enabled:
        tel.gauge("runner.scenario", spec.name)
        tel.gauge("runner.workers", workers)
        tel.gauge("runner.units", len(units))

    # Crash-safety bookkeeping: the journal records every completed unit as
    # it lands; --resume replays the recorded units verbatim (validated
    # against this resolved spec + environment) before touching the cache.
    from repro.core.errors import ConfigError
    from repro.runner import faults

    from repro.runner import journal as journal_mod

    jrnl = None
    replay: Dict[int, Dict[str, float]] = {}
    saved_checkpoints: Dict[Tuple[int, int], Dict[str, Any]] = {}
    if journal is not None:
        from repro.runner.journal import CampaignJournal, journal_header

        jrnl = CampaignJournal(journal)
        header = journal_header(spec, sc.version, len(units))
        if resume:
            replay = jrnl.resume_state(header)
            # Sub-unit checkpoint states of units the journal did NOT
            # finish: the replayed units above never recompute, so their
            # checkpoint records are dead weight -- only partial units
            # re-enter.
            saved_checkpoints = {
                key: value
                for key, value in jrnl.checkpoints.items()
                if key[0] not in replay
            }
        jrnl.open(header, resume=resume)
    elif resume:
        raise ConfigError(
            "resume requested but no journal given; pass a journal path "
            "(the CLI derives one under <cache-dir>/journals)"
        )

    # Streaming aggregation state: per-unit results are pushed into the
    # Welford accumulators as they land -- but strictly in unit schedule
    # order (an in-order drain over ``results``), never completion order.
    # That drain order is half of the parallel==serial guarantee (the other
    # half is spec-derived unit seeds); memory stays O(points x metrics).
    points = spec.points()
    aggregates = [MetricAggregator() for _ in points]
    results: Dict[int, Dict[str, float]] = {}
    drained = 0

    def drain_ready() -> None:
        nonlocal drained
        while drained < len(units):
            metrics = results.get(drained)
            if metrics is None:
                return
            aggregates[units[drained].point_index].push(metrics)
            drained += 1

    pending: List[WorkUnit] = []
    hits_before = cache.hits if cache else 0
    corrupt_before = cache.corrupt if cache else 0
    for unit in units:
        if unit.index in replay:
            # Journal replay wins over the cache: the record is the very
            # result this campaign already computed and merged once.
            results[unit.index] = replay[unit.index]
            continue
        cached = cache.get(unit, sc.version) if cache else None
        if cached is not None:
            results[unit.index] = cached
            if jrnl is not None:
                jrnl.record_unit(unit.index, cached)
        else:
            pending.append(unit)
    cache_hits = (cache.hits - hits_before) if cache else 0
    drain_ready()

    def finish_unit(unit_index: int, metrics: Dict[str, float]) -> None:
        results[unit_index] = metrics
        if cache is not None:
            cache.put(units[unit_index], sc.version, metrics)
        if jrnl is not None:
            jrnl.record_unit(unit_index, metrics)
        drain_ready()
        faults.fault_point("executor.unit")
        if progress is not None:
            progress(
                f"[{spec.name}] unit {unit_index + 1}/{len(units)} done "
                f"({len(results)}/{len(units)} complete)"
            )

    ckpt_replayed = 0
    ckpt_recorded = 0
    try:
        with journal_mod.campaign_checkpoints(jrnl, saved_checkpoints) as ckpt_ctx:
            try:
                if pending and workers == 1:
                    from repro.runner.pool import parent_deadline

                    for unit in pending:
                        # The unit scope lets in-parent path-metric
                        # checkpoints journal at shard granularity; the
                        # deadline bounds an in-parent hang the pool
                        # watchdog cannot see (there is no worker to kill).
                        with journal_mod.unit_scope(unit.index), parent_deadline(
                            f"work unit {unit.index} of scenario {spec.name!r}"
                        ):
                            with tel.span("runner.unit"):
                                metrics = sc.call(seed=unit.seed, **unit.params)
                        finish_unit(unit.index, metrics)
                elif pending:
                    shards = _shards(pending, shard_size)
                    max_workers = min(workers, len(shards))
                    if tel.enabled:
                        # The fan-out shape: shard count, effective width,
                        # pool size.
                        tel.gauge("runner.shards", len(shards))
                        tel.gauge("runner.shard_size", shard_size)
                        tel.gauge("runner.pool_workers", max_workers)
                    from repro.graphs import backend
                    from repro.runner.pool import get_pool

                    # Everything policy-like ships per task: the persistent
                    # pool outlives this campaign, so workers re-force the
                    # parent's resolved policies for every shard instead of
                    # baking them in at spin-up.
                    ctx = {
                        "module": sc.module,
                        "backend": backend.policy(),
                        "bfs_batch": backend.bfs_batch_policy(),
                        "telemetry": tel.enabled,
                    }

                    def on_shard(shard_results, shard_snapshot) -> None:
                        if shard_snapshot is not None:
                            tel.merge_snapshot(shard_snapshot)
                        for unit_index, metrics in shard_results:
                            finish_unit(unit_index, metrics)

                    get_pool(workers).run_unit_shards(ctx, spec.name, shards, on_shard)
            except KeyboardInterrupt:
                # Deterministic interruption: kill the pools (unlinking
                # every repro-pool-* shm segment) and leave the journal
                # resumable.
                from repro.runner.pool import shutdown_pools

                logger.warning(
                    "interrupted mid-campaign; terminating worker pools%s",
                    "" if jrnl is None else f" (resume with the journal at {jrnl.path})",
                )
                shutdown_pools(terminate=True)
                raise
            except Exception as error:
                from repro.runner.pool import ParentTimeoutError, shutdown_pools

                if isinstance(error, ParentTimeoutError):
                    # An in-parent hang blew REPRO_TASK_TIMEOUT: same
                    # deterministic teardown as ^C, then the distinct
                    # pool-failure exit path.
                    logger.warning(
                        "in-parent hang timed out mid-campaign; terminating "
                        "worker pools%s",
                        ""
                        if jrnl is None
                        else f" (resume with the journal at {jrnl.path})",
                    )
                    shutdown_pools(terminate=True)
                raise
            if ckpt_ctx is not None:
                ckpt_replayed = ckpt_ctx.shards_replayed
                ckpt_recorded = ckpt_ctx.shards_recorded

        drain_ready()
        ordered = [results[unit.index] for unit in units]
        if jrnl is not None:
            jrnl.finish()
    finally:
        # Whatever got us here -- success, ^C, a watchdog timeout, an
        # injected fault -- the journal ends up closed and resumable.
        if jrnl is not None:
            jrnl.close()

    elapsed = time.perf_counter() - started
    tel.record_span("runner.execute", elapsed)
    return RunResult(
        spec=spec,
        unit_metrics=ordered,
        aggregates=aggregates,
        points=points,
        cache_hits=cache_hits,
        cache_misses=len(pending),
        cache_corrupt=(cache.corrupt - corrupt_before) if cache else 0,
        workers=workers,
        elapsed_seconds=elapsed,
        replayed=len(replay),
        journal_path=str(jrnl.path) if jrnl is not None else None,
        checkpoints_replayed=ckpt_replayed,
        checkpoints_recorded=ckpt_recorded,
    )


def sharded_full_path_metrics(
    graph,
    *,
    workers: int = 1,
    shard_size: Optional[int] = None,
) -> Dict[str, float]:
    """Exact full-population path metrics with sources sharded across workers.

    The wave chunks of a full-population campaign are independent, so the
    source set of :func:`repro.graphs.fast.full_path_metrics` splits cleanly
    across a :class:`~concurrent.futures.ProcessPoolExecutor`: each worker
    accumulates its shard's exact int64 ``(ecc, totals)`` and the parent
    merges them (elementwise ``max`` / ``+``).  The accumulators are exact
    integers, so ``workers=N`` is **bit-identical** to ``workers=1`` -- no
    floating-point merge order to worry about.

    ``shard_size`` caps the sources per worker submission (default: an even
    ``ceil(sources / workers)`` split).  Requires the fast graph backend
    (numpy); the serial ``workers=1`` call is just
    ``fast.full_path_metrics(graph)``.

    ``workers > 1`` runs on the invocation-wide persistent pool
    (:func:`repro.runner.pool.get_pool`): the CSR arrays are published via
    shared memory once per checkpoint snapshot, and pool spin-up
    is paid once per invocation instead of once per checkpoint.

    Inside a journaled campaign's in-parent work unit
    (:func:`repro.runner.journal.active_unit_scope`), every completed shard
    journals its serialized accumulators under a checkpoint-scoped content
    hash, and a ``--resume`` re-run replays matching shards from the
    journal instead of recomputing them (``runner.journal.ckpt_replayed``)
    -- with ``workers=1`` the whole source set is one span, so the
    journaled path stays bit-identical to the plain serial call.
    """
    from repro.graphs import backend, fast
    from repro.runner import journal as journal_mod

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if not backend.fast_available():
        raise backend.BackendError(
            "sharded full-population path metrics need the fast graph "
            "backend, but numpy is not importable"
        )
    scope = journal_mod.active_unit_scope()
    if workers == 1 and scope is None:
        return fast.full_path_metrics(graph)

    def fan_out(working, csr, sources):
        import numpy as np

        from repro.runner import faults
        from repro.runner import pool as pool_mod

        tel = _telemetry()
        faults.fault_point("executor.checkpoint")
        size = int(sources.size)
        per_shard = shard_size or -(-max(size, 1) // workers)
        spans = [
            (offset, min(offset + per_shard, size))
            for offset in range(0, size, per_shard)
        ]
        ecc = np.zeros(csr.n, dtype=np.int64)
        totals = np.zeros(csr.n, dtype=np.int64)
        if not spans:
            return ecc, totals

        # Sub-unit journaling: anchor this checkpoint to a content hash of
        # the exact CSR snapshot + source set, and pull whatever spans a
        # previous (interrupted) run already journaled for it.
        key = ""
        seq = 0
        saved_spans: Dict[Tuple[int, int], Any] = {}
        if scope is not None:
            key = fast.accumulator_state_key(csr, sources)
            seq, saved_spans = scope.begin_checkpoint(key)

        pending: List[int] = []
        replayed = 0
        for index, span in enumerate(spans):
            state = saved_spans.get(span)
            if state is not None:
                decoded = fast.deserialize_accumulators(state, csr.n)
                if decoded is not None:
                    np.maximum(ecc, decoded[0], out=ecc)
                    np.add(totals, decoded[1], out=totals)
                    replayed += 1
                    continue
                tel.count("runner.journal.ckpt_invalid")
                logger.warning(
                    "journaled checkpoint state for span %s failed to "
                    "decode; recomputing that shard",
                    span,
                )
            pending.append(index)
        if replayed and scope is not None:
            scope.note_replayed(replayed)
            pool_mod.watchdog_beat()

        # Completion order is irrelevant: integer max/sum merges are
        # associative and commutative *exactly*.
        def merge_shard(index: int, shard_ecc, shard_totals) -> None:
            if shard_ecc.shape != ecc.shape:
                raise RuntimeError(
                    "pool worker returned accumulators of shape "
                    f"{shard_ecc.shape}, expected {ecc.shape}: worker mirror "
                    "diverged from the parent CSR"
                )
            np.maximum(ecc, shard_ecc, out=ecc)
            np.add(totals, shard_totals, out=totals)
            if scope is not None:
                scope.record_shard(
                    seq,
                    key,
                    spans[index],
                    len(spans),
                    fast.serialize_accumulators(shard_ecc, shard_totals),
                )
            pool_mod.watchdog_beat()

        if not pending:
            # Every span replayed from the journal: the checkpoint is done
            # without touching the pool (or the wave engine) at all.
            return ecc, totals

        if workers == 1:
            for index in pending:
                start, stop = spans[index]
                shard_ecc, shard_totals = fast.accumulate_path_shard(
                    csr, sources[start:stop]
                )
                merge_shard(index, shard_ecc, shard_totals)
            return ecc, totals

        shards = [sources[spans[index][0]:spans[index][1]] for index in pending]
        if tel.enabled:
            tel.gauge("runner.path_workers", min(workers, len(shards)))
            tel.gauge("runner.path_shards", len(shards))
        ctx = {
            "backend": backend.policy(),
            "bfs_batch": backend.bfs_batch_policy(),
            "telemetry": tel.enabled,
        }

        def on_result(task_key, shard_ecc, shard_totals, shard_snapshot) -> None:
            if shard_snapshot is not None:
                tel.merge_snapshot(shard_snapshot)
            merge_shard(pending[task_key], shard_ecc, shard_totals)

        try:
            pool_mod.get_pool(workers).run_path_shards(
                working, csr, shards, ctx, on_result
            )
        except KeyboardInterrupt:
            logger.warning(
                "interrupted mid path-metric fan-out; terminating worker pools"
            )
            pool_mod.shutdown_pools(terminate=True)
            raise
        return ecc, totals

    return fast.full_path_metrics(graph, shard_runner=fan_out)


def run_scenario(
    name: str,
    *,
    params: Optional[Mapping[str, Any]] = None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    trials: int = 1,
    seed: int = 0,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressFn] = None,
    journal: Optional[Any] = None,
    resume: bool = False,
) -> RunResult:
    """Convenience wrapper: build the spec and execute it in one call."""
    spec = ScenarioSpec(
        name=name,
        params=dict(params or {}),
        grid={key: list(values) for key, values in (grid or {}).items()},
        trials=trials,
        seed=seed,
    )
    return execute(
        spec,
        workers=workers,
        cache=cache,
        progress=progress,
        journal=journal,
        resume=resume,
    )
