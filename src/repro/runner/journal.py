"""Atomic per-campaign journals: crash-safe progress records and ``--resume``.

A journal is one append-only JSONL file per campaign.  The first line is a
**header** pinning everything that determines the campaign's output -- the
resolved spec hash, scenario name and version, master seed, trials, unit
count, and the active execution environment (graph backend and wave-width
policy, the same knobs :meth:`repro.runner.spec.WorkUnit.key_material`
folds into cache keys).  Every completed work unit appends one
``{"unit": index, "metrics": {...}}`` record (flushed immediately, so a
SIGKILL mid-campaign loses at most the record in flight), and a finished
campaign appends a ``{"complete": true}`` marker.

Schema v2 (``repro.runner/journal.v2``; the loader still reads v1) adds
**sub-unit checkpoint records**: a long-running unit whose exact
path-metric checkpoints run in the parent process appends one
``{"ckpt": unit, "seq": k, "key": ..., "span": [a, b], "state": {...}}``
record per completed checkpoint *shard* -- the serialized int64
eccentricity-max / distance-sum accumulators of
:func:`repro.graphs.fast.accumulate_path_shard`, keyed by a content hash of
the checkpoint's CSR snapshot and source set plus the shard's source span.
``--resume`` then re-enters a partially-finished unit: when the re-run
reaches a checkpoint whose content key matches a journaled one, the saved
accumulators are reloaded instead of recomputed (integer exactness makes
the merge order-free, so the resumed aggregates stay **bit-identical** to
an uninterrupted run), and at most one checkpoint shard of work is lost.

``python -m repro.runner run --resume`` replays the recorded units verbatim
-- JSON round-trips IEEE doubles exactly, and the executor drains results
in unit-schedule order either way.  Resume refuses a journal whose header
does not match the current campaign (different spec, scenario version, or
execution environment) with a :class:`~repro.core.errors.ConfigError`
naming the mismatched fields.

Crash tolerance on load: a process killed mid-append can leave one
truncated trailing line; it is dropped (with a warning) and the record
simply recomputes.  Anything undecodable *before* the end means real
corruption and fails loudly.  Filesystem **pressure** never fails a
campaign: a journal append the filesystem refuses (``ENOSPC``, read-only
root...) logs one warning, counts ``runner.journal.write_failed`` and
degrades the rest of the campaign to un-journaled execution -- mirroring
:meth:`repro.runner.cache.ResultCache.put` -- and an oversized checkpoint
state (above :func:`state_limit_policy`) is dropped with a logged fallback
to unit-granularity journaling instead of bloating the journal.

One writer per journal: :meth:`CampaignJournal.open` takes an exclusive,
non-blocking ``flock`` on the journal file and holds it until
:meth:`CampaignJournal.close`.  A second invocation pointed at the same
journal (two runs sharing one cache directory, say) fails with a
:class:`~repro.core.errors.ConfigError` naming the path instead of
truncating or interleaving the first run's records.  Reading a journal
(``--resume`` validation, :func:`inspect`) takes no lock.
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.obs.telemetry import current as _telemetry

logger = logging.getLogger(__name__)

#: Versioned identifier stamped into every new journal header.
JOURNAL_SCHEMA = "repro.runner/journal.v2"

#: The PR 8 schema: unit records only.  Still accepted on load/resume --
#: a v1 journal simply carries no sub-unit checkpoint state.
JOURNAL_SCHEMA_V1 = "repro.runner/journal.v1"

#: Every schema the loader accepts.
ACCEPTED_SCHEMAS = (JOURNAL_SCHEMA, JOURNAL_SCHEMA_V1)

#: Per-record byte budget for serialized checkpoint state
#: (:func:`state_limit_policy` override).  A 1M-node checkpoint shard is a
#: few MB compressed; anything past this cap falls back -- loudly -- to
#: unit-granularity journaling rather than ballooning the journal file.
STATE_LIMIT_ENV_VAR = "REPRO_JOURNAL_STATE_LIMIT"

#: Default checkpoint-state cap in bytes (64 MiB).
DEFAULT_STATE_LIMIT = 64 * 1024 * 1024


def state_limit_policy() -> int:
    """Max encoded bytes of one checkpoint-state record (default 64 MiB).

    Parses :data:`STATE_LIMIT_ENV_VAR`; an invalid value raises
    :class:`repro.core.errors.ConfigError` instead of silently journaling
    unbounded state.
    """
    raw = os.environ.get(STATE_LIMIT_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_STATE_LIMIT
    from repro.core.errors import ConfigError

    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(
            f"invalid {STATE_LIMIT_ENV_VAR}={raw!r}; expected a positive "
            "integer byte budget"
        )
    return value


def environment_pins() -> Dict[str, Any]:
    """The execution-environment fields pinned into every journal header.

    The same knobs :meth:`repro.runner.spec.WorkUnit.key_material` folds
    into cache keys: anything that could change a recorded value must
    refuse to replay under a different setting.
    """
    from repro.graphs import backend

    return {
        "graph_backend": backend.policy(),
        "bfs_batch": backend.bfs_batch_policy(),
    }


def journal_header(spec, version: str, unit_count: int) -> Dict[str, Any]:
    """The header record for one campaign: identity plus execution env.

    ``spec`` must already be resolved against the scenario's defaults --
    the executor builds the header from the same spec its unit seeds derive
    from, so a default edit (new resolved hash) or a version bump can never
    replay stale results.
    """
    header = {
        "journal": JOURNAL_SCHEMA,
        "scenario": spec.name,
        "version": version,
        "spec_hash": spec.spec_hash(),
        "seed": spec.seed,
        "trials": spec.trials,
        "units": unit_count,
    }
    header.update(environment_pins())
    return header


def _header_mismatches(recorded: Mapping[str, Any], header: Mapping[str, Any]):
    """Field names of ``header`` that ``recorded`` contradicts.

    The ``journal`` schema tag is compared separately (v1 journals resume
    under v2 code); every identity/environment field must match exactly.
    Only ``header``'s fields count, so a journal carrying a pin this code no
    longer writes still resumes.
    """
    return sorted(
        key
        for key in header
        if key != "journal" and recorded.get(key) != header[key]
    )


class CampaignJournal:
    """One campaign's append-only progress journal on disk."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = None
        #: Descriptor holding the single-writer ``flock`` while open.
        self._lock_fd: Optional[int] = None
        #: Set once the filesystem refuses an append: the campaign carries
        #: on un-journaled (warned once, counted once per journal).
        self.write_failed = False
        #: Sub-unit checkpoint states loaded by the last :meth:`_read` --
        #: ``{(unit, seq): {"key": str, "spans": {(a, b): state-dict}}}``.
        self.checkpoints: Dict[Tuple[int, int], Dict[str, Any]] = {}

    # -- reading -------------------------------------------------------
    def _read(self) -> Tuple[Optional[Dict[str, Any]], Dict[int, Dict[str, float]], bool]:
        """Parse the file: ``(header, {unit_index: metrics}, complete)``.

        Sub-unit checkpoint records land in :attr:`checkpoints` as a side
        effect.  Tolerates exactly one undecodable *trailing* line (a crash
        between write and flush); earlier garbage raises ``ConfigError``.
        """
        from repro.core.errors import ConfigError
        from repro.runner import faults

        header: Optional[Dict[str, Any]] = None
        units: Dict[int, Dict[str, float]] = {}
        checkpoints: Dict[Tuple[int, int], Dict[str, Any]] = {}
        complete = False
        try:
            faults.fault_point("journal.read")
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            raise
        except OSError as error:
            raise ConfigError(
                f"journal {self.path} could not be read ({error}); "
                "delete it to start the campaign from scratch"
            ) from error
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    logger.warning(
                        "journal %s: dropping truncated trailing record "
                        "(crash mid-append); the record will recompute",
                        self.path,
                    )
                    break
                raise ConfigError(
                    f"journal {self.path} is corrupt at line {lineno}; "
                    "delete it to start the campaign from scratch"
                ) from None
            if header is None:
                if (
                    not isinstance(record, dict)
                    or record.get("journal") not in ACCEPTED_SCHEMAS
                ):
                    raise ConfigError(
                        f"journal {self.path} has no {JOURNAL_SCHEMA} header; "
                        "delete it to start the campaign from scratch"
                    )
                header = record
            elif record.get("complete"):
                complete = True
            elif "ckpt" in record:
                self._load_checkpoint_record(record, checkpoints)
            elif "unit" in record:
                units[int(record["unit"])] = {
                    str(key): float(value)
                    for key, value in record.get("metrics", {}).items()
                }
        self.checkpoints = checkpoints
        return header, units, complete

    def _load_checkpoint_record(
        self,
        record: Mapping[str, Any],
        checkpoints: Dict[Tuple[int, int], Dict[str, Any]],
    ) -> None:
        """Fold one ``ckpt`` record into the per-``(unit, seq)`` state map.

        A record whose content key disagrees with an earlier one for the
        same checkpoint replaces it wholesale (the later run's environment
        won); a structurally broken record is dropped with a warning --
        checkpoint state is an optimization, never worth failing a resume.
        """
        try:
            unit = int(record["ckpt"])
            seq = int(record["seq"])
            key = str(record["key"])
            a, b = record["span"]
            span = (int(a), int(b))
            state = record["state"]
            if not isinstance(state, dict):
                raise TypeError("state must be a mapping")
        except (KeyError, TypeError, ValueError) as error:
            logger.warning(
                "journal %s: dropping malformed checkpoint record (%s); "
                "that shard will recompute",
                self.path,
                error,
            )
            return
        entry = checkpoints.get((unit, seq))
        if entry is None or entry["key"] != key:
            entry = {"key": key, "spans": {}}
            checkpoints[(unit, seq)] = entry
        entry["spans"][span] = state

    def resume_state(self, header: Mapping[str, Any]) -> Dict[int, Dict[str, float]]:
        """Validate the on-disk journal against ``header`` and load its units.

        Also populates :attr:`checkpoints` with the journal's sub-unit
        checkpoint states.  Raises ``ConfigError`` when there is nothing to
        resume or the journal belongs to a different campaign/environment.
        """
        from repro.core.errors import ConfigError

        if not self.path.exists():
            raise ConfigError(
                f"nothing to resume: no journal at {self.path} "
                "(run without --resume first)"
            )
        recorded, units, _complete = self._read()
        if recorded is None:
            raise ConfigError(
                f"nothing to resume: journal {self.path} has no readable header"
            )
        mismatched = _header_mismatches(recorded, header)
        if mismatched:
            detail = ", ".join(
                f"{key}: journal={recorded.get(key)!r} vs campaign={header[key]!r}"
                for key in mismatched
            )
            raise ConfigError(
                f"journal {self.path} does not match this campaign ({detail}); "
                "delete it or rerun without --resume"
            )
        total = int(header["units"])
        out_of_range = [index for index in units if not 0 <= index < total]
        if out_of_range:
            raise ConfigError(
                f"journal {self.path} records out-of-range unit(s) "
                f"{sorted(out_of_range)} for a {total}-unit campaign"
            )
        stale = [key for key in self.checkpoints if not 0 <= key[0] < total]
        for key in stale:
            # Checkpoint state is an optimization: out-of-range records are
            # dropped (warned), never fatal like a contradictory unit record.
            logger.warning(
                "journal %s: dropping checkpoint state for out-of-range "
                "unit %d",
                self.path,
                key[0],
            )
            del self.checkpoints[key]
        return units

    # -- writing -------------------------------------------------------
    def open(self, header: Mapping[str, Any], *, resume: bool = False) -> None:
        """Start journaling: fresh runs truncate and write the header,
        resumed runs append below the existing records.

        A resumed open **re-verifies** the on-disk header immediately
        before appending: the tolerant-truncation pass (or a concurrent
        writer) may have changed what is actually on disk since
        :meth:`resume_state` ran, and appending under a stale or absent pin
        would let a journal truncated down into its header silently restart
        a different campaign.  Mismatch or unreadable header raises
        :class:`~repro.core.errors.ConfigError`.

        Both modes first take the single-writer lock (see the module
        docstring); a journal another process holds open raises
        :class:`~repro.core.errors.ConfigError` before anything is touched.
        """
        from repro.core.errors import ConfigError

        self.path.parent.mkdir(parents=True, exist_ok=True)
        resuming = resume and self.path.exists()
        self._lock()
        try:
            if resuming:
                recorded, _units, _complete = self._read()
                if recorded is None:
                    raise ConfigError(
                        f"cannot resume into journal {self.path}: no readable "
                        "header survives on disk; delete it and rerun without "
                        "--resume"
                    )
                mismatched = _header_mismatches(recorded, header)
                if mismatched:
                    raise ConfigError(
                        f"cannot resume into journal {self.path}: the on-disk "
                        f"header no longer matches this campaign "
                        f"(fields: {', '.join(mismatched)}); delete it or rerun "
                        "without --resume"
                    )
                self._handle = self.path.open("a", encoding="utf-8")
                return
            self._handle = self.path.open("w", encoding="utf-8")
            self._append(header, fsync=True)
        except BaseException:
            self._unlock()
            raise

    def _lock(self) -> None:
        """Take the exclusive single-writer ``flock`` without blocking."""
        import fcntl

        from repro.core.errors import ConfigError

        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise ConfigError(
                f"journal {self.path} is in use by another running campaign; "
                "wait for it to finish or pass a different --journal path"
            ) from None
        except BaseException:
            os.close(fd)
            raise
        self._lock_fd = fd

    def _unlock(self) -> None:
        if self._lock_fd is not None:
            import fcntl

            # Unlock explicitly: pool workers forked while the lock was held
            # share its open file description, so closing our descriptor
            # alone would leave the journal locked until they exit.
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            os.close(self._lock_fd)
            self._lock_fd = None

    def _degrade_writes(self, error: OSError) -> None:
        """First refused append: warn once, count once, stop journaling.

        The campaign's results are all in memory (and in the cache when one
        is active), so an ailing filesystem must cost the *journal*, never
        the run -- the same posture as ``ResultCache.put``.
        """
        self.write_failed = True
        _telemetry().count("runner.journal.write_failed")
        logger.warning(
            "journal %s: append refused by the filesystem (%s); continuing "
            "the campaign un-journaled (--resume will replay only the "
            "records already on disk)",
            self.path,
            error,
        )
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def _append(self, record: Mapping[str, Any], *, fsync: bool = False) -> bool:
        if self._handle is None:
            return False
        from repro.runner import faults

        try:
            faults.fault_point("journal.write")
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            # Flush every record: a SIGKILLed parent then loses at most the
            # line being written, and the tolerant loader drops that one.
            self._handle.flush()
            if fsync:
                os.fsync(self._handle.fileno())
        except OSError as error:
            self._degrade_writes(error)
            return False
        return True

    def record_unit(self, index: int, metrics: Mapping[str, float]) -> None:
        """Append one completed unit's metrics."""
        self._append({"unit": index, "metrics": dict(metrics)})

    def record_checkpoint_shard(
        self,
        unit: int,
        seq: int,
        key: str,
        span: Tuple[int, int],
        spans: int,
        state: Mapping[str, str],
    ) -> bool:
        """Append one completed checkpoint shard's serialized accumulators.

        ``state`` maps accumulator names to encoded payloads
        (:func:`repro.graphs.fast.serialize_accumulators`).  Oversized
        states (past :func:`state_limit_policy`) are not written: the
        fallback to unit-granularity journaling is logged and counted
        (``runner.journal.ckpt_oversize``), because an interrupted unit
        that silently stopped checkpointing would look resumable-at-shard
        granularity when it is not.
        """
        if self._handle is None:
            return False
        encoded_size = sum(len(value) for value in state.values())
        if encoded_size > state_limit_policy():
            _telemetry().count("runner.journal.ckpt_oversize")
            logger.warning(
                "journal %s: checkpoint state for unit %d seq %d is %d "
                "bytes (limit %d, %s); falling back to unit-granularity "
                "journaling for this checkpoint",
                self.path,
                unit,
                seq,
                encoded_size,
                state_limit_policy(),
                STATE_LIMIT_ENV_VAR,
            )
            return False
        written = self._append(
            {
                "ckpt": unit,
                "seq": seq,
                "key": key,
                "span": [int(span[0]), int(span[1])],
                "spans": int(spans),
                "state": dict(state),
            }
        )
        if written:
            _telemetry().count("runner.journal.ckpt_recorded")
        return written

    def finish(self) -> None:
        """Mark the campaign complete and close the file."""
        self._append({"complete": True}, fsync=True)
        self.close()

    def close(self) -> None:
        """Close the handle and drop the writer lock (idempotent; an
        unfinished journal stays resumable)."""
        if self._handle is not None:
            try:
                self._handle.flush()
            except OSError:
                pass
            finally:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
        self._unlock()


# ----------------------------------------------------------------------
# Sub-unit checkpoint plumbing (parent-process state)
# ----------------------------------------------------------------------
# The executor installs one CheckpointJournalContext per journaled campaign
# and a UnitCheckpointScope around every work unit it computes *in the
# parent process* (the in-parent unit loop: every unit at ``workers=1``,
# and the units the pool hands back).  Checkpointed computations deep
# inside a unit -- the exact path-metric campaigns of
# ``sharded_full_path_metrics`` -- consult
# :func:`active_unit_scope` to replay journaled accumulators and to record
# fresh ones.  Pool workers never see this state (it is process-local and
# never shipped), so a unit running in a worker journals at unit
# granularity exactly as before.

class CheckpointJournalContext:
    """One journaled campaign's sub-unit checkpoint state (parent-side)."""

    def __init__(
        self,
        journal: CampaignJournal,
        saved: Mapping[Tuple[int, int], Dict[str, Any]],
    ) -> None:
        self.journal = journal
        self.saved = dict(saved)
        #: Checkpoint shards replayed from the journal instead of computed.
        self.shards_replayed = 0
        #: Fresh checkpoint shards appended to the journal.
        self.shards_recorded = 0


class UnitCheckpointScope:
    """One in-parent work unit's view of the campaign checkpoint context."""

    def __init__(self, context: CheckpointJournalContext, unit_index: int) -> None:
        self.context = context
        self.unit = unit_index
        #: Checkpoints are numbered in execution order within the unit; the
        #: re-run reaches them in the same deterministic order, which is
        #: what lets ``seq`` anchor a journaled state to "the k-th
        #: checkpoint of unit i".
        self.seq = 0

    def begin_checkpoint(self, key: str) -> Tuple[int, Dict[Tuple[int, int], Any]]:
        """Enter the next checkpoint; returns ``(seq, saved_spans)``.

        ``saved_spans`` maps source spans to serialized states journaled
        for this exact checkpoint (same unit, same sequence position, same
        content key).  A key mismatch -- the journaled state belongs to a
        different graph snapshot -- yields no spans: the checkpoint simply
        recomputes, it can never replay the wrong state.
        """
        seq = self.seq
        self.seq += 1
        entry = self.context.saved.get((self.unit, seq))
        if entry is not None and entry["key"] == key:
            return seq, dict(entry["spans"])
        return seq, {}

    def note_replayed(self, spans: int = 1) -> None:
        self.context.shards_replayed += spans
        _telemetry().count("runner.journal.ckpt_replayed", spans)

    def record_shard(
        self,
        seq: int,
        key: str,
        span: Tuple[int, int],
        spans: int,
        state: Mapping[str, str],
    ) -> None:
        if self.context.journal.record_checkpoint_shard(
            self.unit, seq, key, span, spans, state
        ):
            self.context.shards_recorded += 1


_campaign_context: Optional[CheckpointJournalContext] = None
_active_scope: Optional[UnitCheckpointScope] = None


@contextmanager
def campaign_checkpoints(
    journal: Optional[CampaignJournal],
    saved: Optional[Mapping[Tuple[int, int], Dict[str, Any]]] = None,
):
    """Install the campaign checkpoint context for the executor's duration.

    Yields the installed :class:`CheckpointJournalContext` (``None`` when
    ``journal`` is ``None``: an un-journaled campaign runs with sub-unit
    checkpointing off).  Re-entrant: a nested campaign shadows and then
    restores the outer one.
    """
    global _campaign_context
    previous = _campaign_context
    context = (
        CheckpointJournalContext(journal, saved or {}) if journal is not None else None
    )
    _campaign_context = context
    try:
        yield context
    finally:
        _campaign_context = previous


@contextmanager
def unit_scope(unit_index: int):
    """Activate sub-unit checkpointing for one in-parent work unit.

    A no-op (yields ``None``) outside a journaled campaign -- which is
    exactly what happens inside pool workers, where the campaign context is
    never installed.
    """
    global _active_scope
    if _campaign_context is None:
        yield None
        return
    previous = _active_scope
    scope = UnitCheckpointScope(_campaign_context, unit_index)
    _active_scope = scope
    try:
        yield scope
    finally:
        _active_scope = previous


def active_unit_scope() -> Optional[UnitCheckpointScope]:
    """The in-flight unit's checkpoint scope (``None`` almost everywhere)."""
    return _active_scope


# ----------------------------------------------------------------------
# Inspection (the ``python -m repro.runner journal`` subcommand)
# ----------------------------------------------------------------------
def inspect(path: Union[str, Path]) -> Dict[str, Any]:
    """Summarize a journal for humans and CI: validity, progress, env fit.

    Returns a plain dict; raises :class:`~repro.core.errors.ConfigError`
    (or ``FileNotFoundError``) when the journal is unreadable or corrupt --
    the CLI maps both onto exit code 3.
    """
    journal = CampaignJournal(path)
    header, units, complete = journal._read()
    if header is None:
        from repro.core.errors import ConfigError

        raise ConfigError(f"journal {path} has no readable header")
    total = int(header.get("units", 0))
    in_range = [index for index in units if 0 <= index < total]
    out_of_range = sorted(set(units) - set(in_range))
    current_env = environment_pins()
    env_mismatches = sorted(
        key for key in current_env if header.get(key) != current_env[key]
    )
    checkpoint_shards = sum(
        len(entry["spans"]) for entry in journal.checkpoints.values()
    )
    return {
        "path": str(path),
        "schema": header.get("journal"),
        "scenario": header.get("scenario"),
        "version": header.get("version"),
        "spec_hash": header.get("spec_hash"),
        "seed": header.get("seed"),
        "trials": header.get("trials"),
        "units_total": total,
        "units_complete": len(in_range),
        "percent_complete": (100.0 * len(in_range) / total) if total else 0.0,
        "complete": complete,
        "checkpoints": len(journal.checkpoints),
        "checkpoint_shards": checkpoint_shards,
        "environment": {key: header.get(key) for key in current_env},
        "environment_mismatches": env_mismatches,
        "out_of_range_units": out_of_range,
        "resumable": not env_mismatches and not out_of_range,
    }
