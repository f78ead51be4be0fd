"""Atomic per-campaign journals: crash-safe progress records and ``--resume``.

A journal is one append-only JSONL file per campaign.  The first line is a
**header** pinning everything that determines the campaign's output -- the
resolved spec hash, scenario name and version, master seed, trials, unit
count, and the active execution environment (:func:`repro.runner.config.pins`,
the same settings :meth:`repro.runner.spec.WorkUnit.key_material` folds
into cache keys).  Every completed work unit appends one
``{"unit": index, "metrics": {...}}`` record (flushed immediately, so a
SIGKILL mid-campaign loses at most the record in flight), and a finished
campaign appends a ``{"complete": true}`` marker.

The schema (``repro.runner/journal.v2``) also carries **sub-unit checkpoint
records**: a long-running unit whose exact path-metric checkpoints run in
the parent process appends one
``{"ckpt": unit, "seq": k, "key": ..., "span": [a, b], "state": {...}}``
record per completed checkpoint *shard* -- the serialized int64
eccentricity-max / distance-sum accumulators of
:func:`repro.graphs.fast.accumulate_path_shard`, keyed by a content hash of
the checkpoint's CSR snapshot and source set plus the shard's source span.
A header with any other schema tag (the retired unit-records-only v1
included) is refused with a :class:`~repro.core.errors.ConfigError` naming
the schema found.

``--resume`` is one locked read: :meth:`CampaignJournal.open` takes the
writer lock, parses the file once, and refuses a header that "does not
match this campaign" (different spec, scenario version, or execution
environment) with a ``ConfigError`` naming the fields.  It returns the
replay: the recorded units, replayed verbatim (JSON round-trips IEEE doubles
exactly), and the checkpoint states of the units the journal did not
finish.  A re-run reaching a checkpoint whose content key matches a
journaled one reloads the saved accumulators instead of recomputing them
(integer exactness makes the merge order-free, so the resumed aggregates
stay **bit-identical** to an uninterrupted run); at most one checkpoint
shard of work is lost.

Crash tolerance on load: a process killed mid-append can leave one
truncated trailing line; it is dropped (with a warning), a resume cuts it
from the file before appending, and the record simply recomputes.
Anything undecodable *before* the end means real corruption and fails
loudly.  Filesystem **pressure** never fails a
campaign: a journal append the filesystem refuses (``ENOSPC``, read-only
root...) logs one warning, counts ``runner.journal.write_failed`` and
degrades the rest of the campaign to un-journaled execution -- mirroring
:meth:`repro.runner.cache.ResultCache.put` -- and an oversized checkpoint
state (above :data:`STATE_LIMIT`) is dropped with a logged fallback
to unit-granularity journaling instead of bloating the journal.

One writer per journal: :meth:`CampaignJournal.open` takes an exclusive
``flock`` on the journal file and holds it until
:meth:`CampaignJournal.close`.  A second invocation pointed at the same
journal (two runs sharing one cache directory, say) prints one stderr line
naming the journal and waits for the lock -- bounded by the parent watchdog
when ``REPRO_TASK_TIMEOUT`` is set -- instead of truncating or interleaving
the first run's records; it then reads what the first run left (a fresh run
finds the first run's units in the result cache).  Opening a journal this
process already holds raises :class:`~repro.core.errors.ConfigError` at
once.  Reading a journal (:func:`inspect`) takes no lock.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Set, Tuple, Union

from repro.obs.telemetry import current as _telemetry
from repro.runner import config

logger = logging.getLogger(__name__)

#: Versioned identifier stamped into every journal header; the only schema
#: the loader accepts.
JOURNAL_SCHEMA = "repro.runner/journal.v2"

#: Per-record byte budget for serialized checkpoint state (64 MiB).  A
#: 1M-node checkpoint shard is a few MB compressed; anything past this cap
#: falls back -- loudly -- to unit-granularity journaling rather than
#: ballooning the journal file.
STATE_LIMIT = 64 * 1024 * 1024

#: Unit metrics by unit index, as journaled.
Units = Dict[int, Dict[str, float]]

#: Sub-unit checkpoint states:
#: ``{(unit, seq): {"key": str, "spans": {(a, b): state-dict}}}``.
Checkpoints = Dict[Tuple[int, int], Dict[str, Any]]

#: Journals this process holds the writer lock on (resolved paths).  A
#: second open of one of them fails at once: ``flock`` locks belong to the
#: open file description, so a blocking lock taken through a second
#: descriptor would wait on this process forever.
_held: Set[str] = set()


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
    header.update(config.pins())
    return header


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

    # -- reading -------------------------------------------------------
    def _read(self) -> Tuple[Optional[Dict[str, Any]], Units, Checkpoints, bool, int]:
        """Parse the file: ``(header, units, checkpoints, complete, intact)``.

        Tolerates exactly one torn *trailing* line -- undecodable, or
        missing its newline (a crash between write and flush) -- and drops
        it; ``intact`` is the byte length of what precedes it (the whole
        file when nothing was dropped).  Earlier garbage, or a first record
        that is not a :data:`JOURNAL_SCHEMA` header, raises ``ConfigError``.
        """
        from repro.core.errors import ConfigError
        from repro.runner import faults

        header: Optional[Dict[str, Any]] = None
        units: Units = {}
        checkpoints: Checkpoints = {}
        complete = False
        try:
            faults.fault_point("journal.read")
            data = self.path.read_bytes()
        except FileNotFoundError:
            raise
        except OSError as error:
            raise ConfigError(
                f"journal {self.path} could not be read ({error}); "
                "delete it to start the campaign from scratch"
            ) from error
        intact = len(data)
        lines = data.splitlines(keepends=True)
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("record has no newline")
                record = json.loads(line)
            except ValueError:
                if lineno == len(lines):
                    logger.warning(
                        "journal %s: dropping truncated trailing record "
                        "(crash mid-append); the record will recompute",
                        self.path,
                    )
                    intact -= len(line)
                    break
                raise ConfigError(
                    f"journal {self.path} is corrupt at line {lineno}; "
                    "delete it to start the campaign from scratch"
                ) from None
            if header is None:
                schema = record.get("journal") if isinstance(record, dict) else None
                if schema != JOURNAL_SCHEMA:
                    raise ConfigError(
                        f"journal {self.path} has no {JOURNAL_SCHEMA} header "
                        f"(schema: {schema!r}); delete it to start the "
                        "campaign from scratch"
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
        return header, units, checkpoints, complete, intact

    def _load_checkpoint_record(
        self, record: Mapping[str, Any], checkpoints: Checkpoints
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

    # -- writing -------------------------------------------------------
    def open(
        self, header: Mapping[str, Any], *, resume: bool = False
    ) -> Tuple[Units, Checkpoints]:
        """Take the writer lock, then start journaling; returns the replay.

        A fresh open truncates the file and writes ``header`` (empty replay).
        A resumed open reads the journal once, under the lock, cuts a torn
        trailing line, appends below its records and returns
        ``(units, checkpoints)``: the recorded unit
        metrics, and the checkpoint states of the units the journal did not
        finish.  Nothing to resume, an unreadable or mismatched header, or
        an out-of-range unit record raise
        :class:`~repro.core.errors.ConfigError`.
        """
        from repro.core.errors import ConfigError

        if resume and not self.path.exists():
            raise ConfigError(
                f"nothing to resume: no journal at {self.path} "
                "(run without --resume first)"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock()
        try:
            replay = self._replay(header) if resume else ({}, {})
            self._handle = self.path.open("a" if resume else "w", encoding="utf-8")
            if not resume:
                self._append(header, fsync=True)
        except BaseException:
            self._unlock()
            raise
        return replay

    def _replay(self, header: Mapping[str, Any]) -> Tuple[Units, Checkpoints]:
        """The resume half of :meth:`open`: one read, validated."""
        from repro.core.errors import ConfigError

        recorded, units, checkpoints, _complete, intact = self._read()
        if recorded is None:
            raise ConfigError(
                f"nothing to resume: journal {self.path} has no readable "
                "header; delete it and rerun without --resume"
            )
        # Only ``header``'s fields count, so a journal carrying a pin this
        # code no longer writes still resumes.
        mismatched = sorted(key for key in header if recorded.get(key) != header[key])
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
        for key in list(checkpoints):
            if not 0 <= key[0] < total:
                # Checkpoint state is an optimization: out-of-range records
                # are dropped (warned), never fatal like a unit record.
                logger.warning(
                    "journal %s: dropping checkpoint state for out-of-range "
                    "unit %d",
                    self.path,
                    key[0],
                )
                del checkpoints[key]
            elif key[0] in units:
                del checkpoints[key]
        # Appends go right after the last intact record: a torn trailing
        # line left in place would corrupt the first record appended.
        os.truncate(self.path, intact)
        return units, checkpoints

    def _lock(self) -> None:
        """Take the exclusive single-writer ``flock``, waiting for a holder."""
        import fcntl

        from repro.core.errors import ConfigError
        from repro.runner.pool import parent_deadline

        key = os.path.realpath(self.path)
        if key in _held:
            raise ConfigError(
                f"journal {self.path} is already open in this process; "
                "pass a different --journal path"
            )
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                message = f"waiting for journal {self.path}: another campaign holds it"
                print(message, file=sys.stderr, flush=True)
                with parent_deadline(f"the wait for journal {self.path}"):
                    fcntl.flock(fd, fcntl.LOCK_EX)
        except BaseException:
            os.close(fd)
            raise
        self._lock_fd = fd
        _held.add(key)

    def _unlock(self) -> None:
        if self._lock_fd is not None:
            import fcntl

            # Unlock explicitly: pool workers forked while the lock was held
            # share its open file description, so closing our descriptor
            # alone would leave the journal locked until they exit.
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            os.close(self._lock_fd)
            self._lock_fd = None
            _held.discard(os.path.realpath(self.path))

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
        self._close_handle()

    def _close_handle(self) -> None:
        # ``close`` flushes first and closes the file even when that flush
        # fails.
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
        states (past :data:`STATE_LIMIT`) are not written: the
        fallback to unit-granularity journaling is logged and counted
        (``runner.journal.ckpt_oversize``), because an interrupted unit
        that silently stopped checkpointing would look resumable-at-shard
        granularity when it is not.
        """
        if self._handle is None:
            return False
        encoded_size = sum(len(value) for value in state.values())
        if encoded_size > STATE_LIMIT:
            _telemetry().count("runner.journal.ckpt_oversize")
            logger.warning(
                "journal %s: checkpoint state for unit %d seq %d is %d "
                "bytes (limit %d); falling back to unit-granularity "
                "journaling for this checkpoint",
                self.path,
                unit,
                seq,
                encoded_size,
                STATE_LIMIT,
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
        self._close_handle()
        self._unlock()


# ----------------------------------------------------------------------
# Sub-unit checkpoint plumbing (parent-process state)
# ----------------------------------------------------------------------
# The executor wraps every work unit it computes *in the parent process*
# (the in-parent unit loop: every unit at ``workers=1``, and the units the
# pool hands back) in a :func:`unit_scope`.  Checkpointed computations deep
# inside a unit -- the exact path-metric campaigns of
# ``sharded_full_path_metrics`` -- consult :func:`active_unit_scope` to
# replay journaled accumulators and to record fresh ones.  Pool workers
# never see this state (it is process-local and never shipped), so a unit
# running in a worker journals at unit granularity.

class UnitCheckpointScope:
    """One in-parent work unit's checkpoint replay and recording."""

    def __init__(
        self, journal: CampaignJournal, saved: Checkpoints, unit_index: int
    ) -> None:
        self.journal = journal
        self.saved = saved
        self.unit = unit_index
        #: The checkpoint in flight: its position in the unit (``-1`` before
        #: the first) and content key.  Checkpoints are numbered in
        #: execution order within the unit; the re-run reaches them in the
        #: same deterministic order, which is what lets ``seq`` anchor a
        #: journaled state to "the k-th checkpoint of unit i".
        self.seq = -1
        self.key = ""
        #: Checkpoint shards replayed from the journal instead of computed.
        self.replayed = 0
        #: Fresh checkpoint shards appended to the journal.
        self.recorded = 0

    def begin_checkpoint(self, key: str) -> Dict[Tuple[int, int], Any]:
        """Enter the next checkpoint; returns its saved spans.

        They map source spans to serialized states journaled for this exact
        checkpoint (same unit, same sequence position, same content key).
        A key mismatch -- the journaled state belongs to a different graph
        snapshot -- yields no spans: the checkpoint simply recomputes, it
        can never replay the wrong state.
        """
        self.seq += 1
        self.key = key
        entry = self.saved.get((self.unit, self.seq))
        if entry is not None and entry["key"] == key:
            return dict(entry["spans"])
        return {}

    def note_replayed(self, spans: int = 1) -> None:
        self.replayed += spans
        _telemetry().count("runner.journal.ckpt_replayed", spans)

    def record_shard(
        self, span: Tuple[int, int], spans: int, state: Mapping[str, str]
    ) -> None:
        """Journal one computed shard of the checkpoint in flight."""
        if self.journal.record_checkpoint_shard(
            self.unit, self.seq, self.key, span, spans, state
        ):
            self.recorded += 1


_active_scope: Optional[UnitCheckpointScope] = None


@contextmanager
def unit_scope(
    journal: Optional[CampaignJournal], saved: Checkpoints, unit_index: int
):
    """Activate sub-unit checkpointing for one in-parent work unit.

    Yields the unit's :class:`UnitCheckpointScope` -- ``saved`` is the
    replay :meth:`CampaignJournal.open` returned -- or ``None`` when
    ``journal`` is ``None`` (an un-journaled campaign runs with sub-unit
    checkpointing off).  Re-entrant: a nested unit shadows and then
    restores the outer one.
    """
    global _active_scope
    previous = _active_scope
    scope = None if journal is None else UnitCheckpointScope(journal, saved, unit_index)
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
    header, units, checkpoints, complete, _intact = CampaignJournal(path)._read()
    if header is None:
        from repro.core.errors import ConfigError

        raise ConfigError(f"journal {path} has no readable header")
    total = int(header.get("units", 0))
    in_range = [index for index in units if 0 <= index < total]
    out_of_range = sorted(set(units) - set(in_range))
    current_env = config.pins()
    env_mismatches = sorted(
        key for key in current_env if header.get(key) != current_env[key]
    )
    checkpoint_shards = sum(len(entry["spans"]) for entry in checkpoints.values())
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
        "checkpoints": len(checkpoints),
        "checkpoint_shards": checkpoint_shards,
        "environment": {key: header.get(key) for key in current_env},
        "environment_mismatches": env_mismatches,
        "out_of_range_units": out_of_range,
        "resumable": not env_mismatches and not out_of_range,
    }
