"""Command-line entry point: ``python -m repro.runner
list|run|sweep|telemetry|journal``.

Examples::

    python -m repro.runner list
    python -m repro.runner run soap-campaign --set n=200 --trials 4 --workers 4
    python -m repro.runner sweep fig6-partition-threshold \
        --grid size=200,500,1000 --trials 2 --workers 4 --csv fig6.csv
    python -m repro.runner run soap-campaign --telemetry obs.json
    python -m repro.runner telemetry obs.json
    python -m repro.runner journal .repro-cache/journals/<spec-hash>.jsonl

``run`` executes one scenario at its defaults plus ``--set`` overrides;
``sweep`` additionally crosses ``--grid`` axes.  Both cache per-unit results
under ``--cache-dir`` (default ``.repro-cache``), so a repeated invocation is
served from disk; pass ``--no-cache`` to force recomputation.

``--telemetry PATH`` enables the :mod:`repro.obs` collector for the run and
writes its JSON report to PATH afterwards -- an observation flag that never
feeds unit seeds or cache keys, so an instrumented run is bit-identical to a
dark one.  The report's ``meta.config`` records the run's environment
knobs, :func:`repro.runner.config.snapshot` of the one declared table
(``REPRO_GRAPH_BACKEND``, ``REPRO_PATH_WORKERS``, ``REPRO_TASK_TIMEOUT``),
which is read before any work starts, so an invalid value exits 3 at once.
``telemetry`` pretty-prints (and validates) a saved report.

Crash safety: unless ``--no-journal`` is given, every cached run journals
completed units under ``<cache-dir>/journals/<spec-hash>.jsonl`` (override
with ``--journal PATH``); after a crash or ^C, ``--resume`` replays the
journal's units verbatim and finishes the remainder, bit-identical to an
uninterrupted run; it reads the journal once, under the journal's writer
lock.  The journal also records sub-unit checkpoint state, so a campaign
killed *inside* a long unit re-enters it from its first incomplete
path-metric checkpoint shard.  A second invocation on the same journal
(two runs sharing one ``--cache-dir``) prints one stderr line naming it
and waits for the first to finish, then serves the first run's units from
the cache.  ``journal PATH`` inspects a journal without running anything
or taking the lock: schema version, progress, whether ``--resume`` in the
current environment would accept it (exit 0 valid / 3 mismatched, corrupt,
or an unknown schema such as the retired v1).  ``--inject-faults SPEC`` arms the
deterministic fault plane (:mod:`repro.runner.faults`) for chaos testing;
each pool task carries the plane in its context, so workers fire it too.

Exit codes are distinct per failure class so scripts and CI can tell them
apart:

* ``0``   success
* ``2``   usage errors (unknown scenario, bad ``--set``/``--grid`` values)
* ``3``   configuration errors (:class:`~repro.core.errors.ConfigError`:
  bad environment policy, malformed fault spec, journal mismatch on
  resume or inspect)
* ``4``   the worker pool failed (:class:`~repro.runner.pool.PoolError`,
  including an in-parent hang -- or a journal-lock wait -- caught by the
  parent watchdog)
* ``5``   a task failed inside a worker
  (:class:`~repro.runner.pool.PoolTaskError`); returned at once, because
  the pool kills its workers still busy with sibling tasks
* ``130`` interrupted (^C); busy pool workers are killed and the journal
  stays resumable
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.executor import execute
from repro.runner.grid import parse_grid_axis, parse_grid_value
from repro.runner.registry import ScenarioError, all_scenarios, get_scenario
from repro.runner.spec import ScenarioSpec


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="registered scenario name (see `list`)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one scenario parameter (repeatable)",
    )
    parser.add_argument("--trials", type=int, default=1, help="trials per grid point")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = in-process)"
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, help="result cache directory"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="do not read or write the cache"
    )
    parser.add_argument("--json", dest="json_out", help="write aggregate rows as JSON")
    parser.add_argument("--csv", dest="csv_out", help="write aggregate rows as CSV")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-unit progress lines"
    )
    parser.add_argument(
        "--telemetry",
        dest="telemetry_out",
        default=None,
        metavar="PATH",
        help="collect run telemetry and write the JSON report to PATH",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "journal completed units to PATH (default: "
            "<cache-dir>/journals/<spec-hash>.jsonl unless --no-cache)"
        ),
    )
    parser.add_argument(
        "--no-journal", action="store_true", help="disable the campaign journal"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay the journal's completed units and finish the remainder "
            "(bit-identical to an uninterrupted run)"
        ),
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help=(
            "arm deterministic fault injection in this process and its pool "
            "workers, e.g. 'pool.task=kill@2' (see repro.runner.faults)"
        ),
    )


def _parse_overrides(items: Sequence[str]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = parse_grid_value(value)
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Declarative, parallel, cached experiment orchestration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list registered scenarios")
    list_parser.add_argument(
        "--composed", action="store_true", help="only composed (multi-subsystem) scenarios"
    )

    run_parser = sub.add_parser("run", help="run one scenario (no grid)")
    _add_common_run_args(run_parser)

    sweep_parser = sub.add_parser("sweep", help="run a scenario over a parameter grid")
    _add_common_run_args(sweep_parser)
    sweep_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="one grid axis (repeatable; crossed as a Cartesian product)",
    )

    telemetry_parser = sub.add_parser(
        "telemetry", help="validate and pretty-print a saved telemetry report"
    )
    telemetry_parser.add_argument("report", help="path to a --telemetry JSON report")

    journal_parser = sub.add_parser(
        "journal", help="validate and summarize a campaign journal"
    )
    journal_parser.add_argument("journal", help="path to a campaign journal (.jsonl)")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import format_table

    rows = []
    for sc in all_scenarios():
        if args.composed and not sc.composed:
            continue
        defaults = ", ".join(f"{key}={value}" for key, value in sc.defaults.items())
        rows.append(
            [sc.name, "composed" if sc.composed else "wrapper", sc.description, defaults]
        )
    print(format_table(["scenario", "kind", "description", "defaults"], rows))
    return 0


#: Distinct exit codes per failure class (documented in the module docstring).
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_POOL = 4
EXIT_TASK = 5
EXIT_INTERRUPTED = 130


def _journal_path(args: argparse.Namespace, spec: ScenarioSpec) -> Optional[str]:
    """Where this invocation journals (``None`` when journaling is off)."""
    if args.no_journal:
        return None
    if args.journal:
        return args.journal
    if args.no_cache:
        # No cache directory to anchor the default path under; journaling
        # stays opt-in via an explicit --journal.
        return None
    from pathlib import Path

    return str(Path(args.cache_dir) / "journals" / f"{spec.spec_hash()}.jsonl")


def _cmd_run(args: argparse.Namespace, grid_args: Sequence[str]) -> int:
    from repro.core.errors import ConfigError
    from repro.obs import telemetry
    from repro.runner import config, faults
    from repro.runner.pool import PoolError, PoolTaskError

    try:
        sc = get_scenario(args.scenario)
    except ScenarioError as error:
        print(str(error), file=sys.stderr)
        return EXIT_USAGE
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    collector = None
    if args.telemetry_out:
        collector = telemetry.enable(label=f"runner:{sc.name}")
    journal = None
    try:
        # Read every environment knob up front: an invalid value must fail
        # before any work is done, and the report records what ran.
        knobs = config.snapshot()
        if args.inject_faults is not None:
            faults.install(args.inject_faults)
        grid: Dict[str, List[Any]] = {}
        for axis in grid_args:
            name, values = parse_grid_axis(axis)
            grid[name] = values
        spec = ScenarioSpec(
            name=sc.name,
            params=_parse_overrides(args.overrides),
            grid=grid,
            trials=args.trials,
            seed=args.seed,
        )
        journal = _journal_path(args, spec)
        result = execute(
            spec,
            workers=args.workers,
            cache=cache,
            progress=progress,
            journal=journal,
            resume=args.resume,
        )
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except PoolTaskError as error:
        # Before PoolError: PoolTaskError subclasses it.
        print(f"task failed: {error}", file=sys.stderr)
        return EXIT_TASK
    except PoolError as error:
        print(f"worker pool failed: {error}", file=sys.stderr)
        return EXIT_POOL
    except KeyboardInterrupt:
        note = f"; resume with --resume (journal: {journal})" if journal else ""
        print(f"interrupted{note}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collector is not None:
            telemetry.disable()

    from repro.analysis.reporting import render_result_rows

    rows = result.rows()
    print(render_result_rows(rows))
    corrupt_note = (
        f", {result.cache_corrupt} corrupt evicted" if result.cache_corrupt else ""
    )
    replay_note = f", {result.replayed} replayed" if result.replayed else ""
    if result.checkpoints_replayed:
        replay_note += f", {result.checkpoints_replayed} ckpt shard(s) replayed"
    print(
        f"\n{len(result.unit_metrics)} unit(s) "
        f"[{result.cache_hits} cached, {result.cache_misses} computed"
        f"{corrupt_note}{replay_note}] "
        f"in {result.elapsed_seconds:.2f}s with {result.workers} worker(s); "
        f"spec hash {spec.spec_hash()}"
    )
    if args.json_out:
        from repro.analysis.export import write_json

        write_json(args.json_out, {"spec_hash": spec.spec_hash(), "rows": rows})
        print(f"wrote {args.json_out}")
    if args.csv_out:
        from repro.analysis.export import write_rows_csv

        write_rows_csv(args.csv_out, rows)
        print(f"wrote {args.csv_out}")
    if collector is not None:
        from repro.obs.report import render_report, write_report

        meta: Dict[str, Any] = {
            "scenario": sc.name,
            "spec_hash": spec.spec_hash(),
            "trials": args.trials,
            "seed": args.seed,
            "workers": result.workers,
            "elapsed_seconds": result.elapsed_seconds,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "cache_corrupt": result.cache_corrupt,
            "config": knobs,
        }
        if result.journal_path is not None:
            meta["journal"] = {
                "path": result.journal_path,
                "resumed": bool(args.resume),
                "replayed": result.replayed,
                "units": len(result.unit_metrics),
                "checkpoints_recorded": result.checkpoints_recorded,
                "checkpoints_replayed": result.checkpoints_replayed,
            }
        if args.inject_faults:
            meta["injected_faults"] = args.inject_faults
        report = render_report(collector, meta=meta)
        write_report(args.telemetry_out, report)
        print(f"wrote telemetry report {args.telemetry_out}")
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """Inspect a campaign journal: exit 0 when --resume would accept it."""
    from repro.core.errors import ConfigError
    from repro.runner import journal as journal_mod

    try:
        summary = journal_mod.inspect(args.journal)
    except FileNotFoundError:
        print(f"{args.journal}: no such journal", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as error:
        print(f"{args.journal}: invalid journal -- {error}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"journal   {summary['path']}")
    print(f"schema    {summary['schema']}")
    print(
        f"campaign  {summary['scenario']} v{summary['version']} "
        f"(spec hash {summary['spec_hash']}, seed {summary['seed']}, "
        f"{summary['trials']} trial(s))"
    )
    state = "complete" if summary["complete"] else "in progress"
    print(
        f"progress  {summary['units_complete']}/{summary['units_total']} "
        f"unit(s) ({summary['percent_complete']:.1f}%), {state}"
    )
    if summary["checkpoints"]:
        print(
            f"sub-unit  {summary['checkpoint_shards']} checkpoint shard(s) "
            f"across {summary['checkpoints']} checkpoint(s)"
        )
    for key in summary["environment_mismatches"]:
        print(
            f"mismatch  {key}: journal recorded "
            f"{summary['environment'][key]!r} but the current environment "
            "differs",
            file=sys.stderr,
        )
    if summary["out_of_range_units"]:
        print(
            f"mismatch  out-of-range unit record(s) "
            f"{summary['out_of_range_units']}",
            file=sys.stderr,
        )
    if not summary["resumable"]:
        print("resume    would be REFUSED in this environment", file=sys.stderr)
        return EXIT_CONFIG
    print("resume    would be accepted in this environment")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.obs.report import format_report, load_report
    from repro.obs.schema import validate_report

    try:
        report = load_report(args.report)
        validate_report(report)
    except (OSError, ValueError) as error:
        # SchemaError subclasses ValueError: invalid shape and invalid JSON
        # both land here with the violation list attached.
        print(f"{args.report}: invalid telemetry report -- {error}", file=sys.stderr)
        return 2
    print(format_report(report), end="")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args, grid_args=[])
    if args.command == "sweep":
        return _cmd_run(args, grid_args=args.grid)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "journal":
        return _cmd_journal(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
