"""The repository benchmark: long exact campaigns through the runner CLI.

Run from the repository root::

    python3 perfbench/run.py --workload resilience-serial --seed 0 --seconds 36 --trace 0

Workloads (each one batch campaign per fresh process, a closed loop with one
client; sizes are fixed, so throughput reads as ``campaign_s`` at that size):

* ``resilience-serial`` -- ``resilience-at-scale`` n=20000 k=8
  max_fraction=0.1 checkpoints=6, one trial, everything in one process:
  the paper's Fig. 5 gradual takedown with exact path metrics at every
  checkpoint.
* ``resilience-pooled`` -- the same campaign with ``REPRO_PATH_WORKERS=2``:
  the path-metric waves fan out over the worker pool.  Its outputs must be
  bit-identical to ``resilience-serial``.
* ``soap-containment`` -- ``soap-at-scale`` n=40000 k=10, one trial: the
  paper's Fig. 7 SOAP campaign; no waves, no pool, the most memory.

``--trace 0`` reports the end-to-end metrics, medians over the run's
campaigns: ``campaign_s`` (``execute`` entry -> process exit), ``setup_s``
(process launch -> ``execute`` entry) and ``peak_rss_mb`` (largest resident
set of the campaign process or any pool worker).  ``--trace 1`` runs one
untraced and one traced campaign and reports the per-layer metrics of
``layers.json``.  Every campaign runs in a fresh process with an empty
cache/journal directory, and its outputs pass the correctness gate
(:func:`check_rows`) or it counts as failed.  The last line of standard
output is the JSON result.

``--pin SEEDS`` (e.g. ``0-23``) recomputes the goldens of ``goldens.json``
with serial campaigns (with ``--workload``, only that workload's family), for
a change that alters outputs on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from campaign import UNIT_LAYER, layer_times  # noqa: E402

ROOT = Path.cwd()
CAMPAIGN = HERE / "campaign.py"
GOLDENS = HERE / "goldens.json"
LAYER_MAP = HERE / "layers.json"
SCRATCH = ROOT / ".perfbench-tmp"

#: A run makes one campaign per this many seconds of ``--seconds`` (at
#: least one), a fixed count that never depends on the run's own timings.
#: Each workload's campaign takes about 8-17 s, so a 36 s run takes the
#: median of 3; an odd count keeps one slow or fast outlier out of it.
SECONDS_PER_CAMPAIGN = 12.0
#: Hard limit on one campaign process, and the point after which a run
#: starts no further campaign (the whole run must end within 180 s).
CAMPAIGN_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0
PR_SET_CHILD_SUBREAPER = 36

#: Every work-changing ``REPRO_*`` knob, set explicitly for each workload;
#: ``None`` leaves it unset (the program default).  Any other ``REPRO_*``
#: variable in the caller's environment is dropped.
BASE_KNOBS: Dict[str, Optional[str]] = {
    "REPRO_GRAPH_BACKEND": "auto",
    "REPRO_BFS_BATCH": "auto",
    "REPRO_FORCE_POPCOUNT_LUT": "0",
    "REPRO_PATH_WORKERS": None,
    "REPRO_FAULTS": None,
    "REPRO_TELEMETRY": None,
    "REPRO_TASK_TIMEOUT": None,
    "REPRO_TASK_RETRIES": None,
    "REPRO_RETRY_BACKOFF": None,
    "REPRO_DEGRADED_SERIAL": None,
    "REPRO_JOURNAL_STATE_LIMIT": None,
}


@dataclass(frozen=True)
class Workload:
    scenario: str
    #: ``size -> scenario parameters``; ``small`` is for the self-tests.
    params: Mapping[str, Mapping[str, Any]]
    #: Golden family: serial and pooled resilience must agree bit for bit.
    golden: str
    knobs: Mapping[str, Optional[str]] = field(default_factory=dict)


RESILIENCE = {
    "full": {"n": 20000, "k": 8, "max_fraction": 0.1, "checkpoints": 6},
    "small": {"n": 4000, "k": 8, "max_fraction": 0.1, "checkpoints": 4},
}
WORKLOADS: Dict[str, Workload] = {
    "resilience-serial": Workload("resilience-at-scale", RESILIENCE, "resilience"),
    "resilience-pooled": Workload(
        "resilience-at-scale",
        RESILIENCE,
        "resilience",
        knobs={"REPRO_PATH_WORKERS": "2"},
    ),
    "soap-containment": Workload(
        "soap-at-scale",
        {"full": {"n": 40000, "k": 10}, "small": {"n": 4000, "k": 10}},
        "soap",
    ),
}
#: The serial workload whose outputs each golden family pins.
REFERENCE = {"resilience": "resilience-serial", "soap": "soap-containment"}


def knobs_of(workload: Workload) -> Dict[str, Optional[str]]:
    knobs = dict(BASE_KNOBS)
    knobs.update(workload.knobs)
    return knobs


def campaign_env(workload: Workload, workdir: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    for key, value in knobs_of(workload).items():
        if value is not None:
            env[key] = value
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


# ----------------------------------------------------------------------
# One campaign process
# ----------------------------------------------------------------------
@dataclass
class Campaign:
    returncode: int
    setup_s: Optional[float] = None
    campaign_s: Optional[float] = None
    peak_rss_mb: float = 0.0
    rows: Optional[List[Dict[str, Any]]] = None
    cold: bool = False
    telemetry: Optional[Dict[str, Any]] = None
    spans: Optional[List[List[Any]]] = None
    journal_bytes: int = 0
    journal_records: int = 0
    log: str = ""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _become_subreaper() -> None:
    """Adopt orphaned descendants (pool workers), so they can be reaped here."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_strays(pgid: int) -> None:
    """Kill whatever is left of a campaign's process group and reap it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def launch(
    name: str,
    seed: int,
    size: str,
    *,
    setup_only: bool = False,
    trace: bool = False,
) -> Campaign:
    """Run one campaign process in a fresh directory and measure it."""
    workload = WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        record_path = workdir / "record.json"
        rows_path = workdir / "rows.json"
        telemetry_path = workdir / "telemetry.json"
        cache_dir = workdir / "cache"
        argv = [sys.executable, str(CAMPAIGN), "--record", str(record_path)]
        if setup_only:
            argv.append("--setup-only")
        if trace:
            argv.append("--trace")
        argv += ["--", "run", workload.scenario]
        for key, value in workload.params[size].items():
            argv += ["--set", f"{key}={value}"]
        argv += [
            "--trials", "1", "--workers", "1", "--seed", str(seed),
            "--cache-dir", str(cache_dir), "--quiet", "--json", str(rows_path),
        ]
        if trace:
            argv += ["--telemetry", str(telemetry_path)]
        with open(workdir / "log.txt", "wb") as log:
            launched = _monotonic()
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=campaign_env(workload, workdir),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            timer = threading.Timer(CAMPAIGN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                exited = _monotonic()
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            _reap_strays(proc.pid)
        result = Campaign(returncode=proc.returncode)
        result.log = (workdir / "log.txt").read_text(errors="replace")[-2000:]
        if record_path.exists():
            record = json.loads(record_path.read_text())
            entry = record.get("execute_entry")
            if entry is not None:
                result.setup_s = entry - launched
                result.campaign_s = exited - entry
            result.spans = record.get("spans")
        # ru_maxrss (KiB) of a reaped child covers the descendants it reaped:
        # the pool workers.
        result.peak_rss_mb = usage.ru_maxrss / 1024.0
        if rows_path.exists():
            result.rows = json.loads(rows_path.read_text())["rows"]
        summary = re.search(r"\[(\d+) cached, (\d+) computed([^\]]*)\]", result.log)
        result.cold = bool(
            summary
            and summary.group(1) == "0"
            and summary.group(2) == "1"
            and "replayed" not in summary.group(3)
        )
        if telemetry_path.exists():
            result.telemetry = json.loads(telemetry_path.read_text())
        for journal in (cache_dir / "journals").glob("*.jsonl"):
            data = journal.read_bytes()
            result.journal_bytes += len(data)
            result.journal_records += data.count(b"\n")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def load_goldens() -> Dict[str, Any]:
    return json.loads(GOLDENS.read_text())


def invariant_problems(golden: str, row: Mapping[str, Any]) -> List[str]:
    wanted = {
        "resilience": ("n", "deleted", "survivors", "stayed_connected_until_fraction"),
        "soap": ("containment_fraction",),
    }[golden]
    missing = [key for key in wanted if key not in row]
    if missing:
        return [f"outputs lack {missing}"]
    problems = []
    if golden == "resilience":
        if row["survivors"] != row["n"] - row["deleted"]:
            problems.append(
                f"survivors {row['survivors']} != n {row['n']} - deleted {row['deleted']}"
            )
        if not 0.0 <= row["stayed_connected_until_fraction"] <= 1.0:
            problems.append("stayed_connected_until_fraction outside [0, 1]")
    else:
        if not 0.0 <= row["containment_fraction"] <= 1.0:
            problems.append(
                f"containment_fraction {row['containment_fraction']} outside [0, 1]"
            )
    return problems


def check_rows(
    name: str,
    seed: int,
    size: str,
    rows: Optional[List[Dict[str, Any]]],
    goldens: Mapping[str, Any],
    reference: Optional[List[Dict[str, Any]]] = None,
) -> List[str]:
    """Why ``rows`` are wrong (empty when they pass the gate).

    Structural invariants always hold; the outputs equal the pinned golden
    of their family where one exists for ``(size, seed)``; and they equal
    ``reference`` (the serial campaign's rows) when one is given.  Equality
    is exact: JSON round-trips floats bit for bit.
    """
    golden = WORKLOADS[name].golden
    if not rows or len(rows) != 1:
        return [f"expected one aggregate row, got {rows!r}"]
    problems = invariant_problems(golden, rows[0])
    pinned = goldens.get(size, {}).get(golden, {}).get(str(seed))
    if pinned is not None and rows[0] != pinned:
        problems.append(f"outputs differ from the golden: {_diff(rows[0], pinned)}")
    if reference is not None and rows != reference:
        problems.append(
            f"outputs differ from the serial campaign: {_diff(rows[0], reference[0])}"
        )
    return problems


def _diff(got: Mapping[str, Any], want: Mapping[str, Any]) -> str:
    keys = sorted(set(got) | set(want))
    return ", ".join(
        f"{key}: {got.get(key)!r} != {want.get(key)!r}"
        for key in keys
        if got.get(key) != want.get(key)
    )


def serial_reference(
    name: str, seed: int, size: str, goldens: Mapping[str, Any]
) -> Optional[List[Dict[str, Any]]]:
    """The serial rows a pooled campaign must equal when no golden pins them."""
    golden = WORKLOADS[name].golden
    reference = REFERENCE[golden]
    if reference == name or str(seed) in goldens.get(size, {}).get(golden, {}):
        return None
    campaign = launch(reference, seed, size)
    if campaign.returncode != 0 or not campaign.rows:
        raise RuntimeError(f"serial reference campaign failed:\n{campaign.log}")
    return campaign.rows


def unit_problems(
    name: str,
    seed: int,
    size: str,
    campaign: Campaign,
    goldens: Mapping[str, Any],
    reference: Optional[List[Dict[str, Any]]],
) -> List[str]:
    if campaign.returncode != 0:
        return [f"exit code {campaign.returncode}: {campaign.log.strip()[-400:]}"]
    if campaign.campaign_s is None:
        return ["execute was never entered"]
    if not campaign.cold:
        return ["not a cold run (cache hit or journal replay)"]
    return check_rows(name, seed, size, campaign.rows, goldens, reference)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def warm_up(name: str, seed: int, size: str) -> None:
    """Compile every module once so no ``.pyc`` write lands in a timing."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/repro", str(HERE)],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    launch(name, seed, size, setup_only=True)


def fingerprint(name: str) -> Dict[str, Any]:
    """The machine and build a number was measured on."""
    import numpy

    for key, value in knobs_of(WORKLOADS[name]).items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    sys.path.insert(0, str(ROOT / "src"))
    from repro.graphs import fast

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "popcount_backend": fast.configure_popcount(),
    }


def timed_run(
    name: str, seed: int, seconds: float, size: str, goldens: Mapping[str, Any]
) -> Dict[str, Any]:
    """End-to-end metrics: medians over ``seconds`` worth of campaigns."""
    reference = serial_reference(name, seed, size, goldens)
    planned = max(1, int(seconds / SECONDS_PER_CAMPAIGN + 0.5))
    started = time.monotonic()
    setups, campaigns, failed = [], [], 0
    longest = 0.0
    for index in range(planned):
        if time.monotonic() - started + longest > RUN_BUDGET_S:
            break
        begun = time.monotonic()
        # One extra set-up sample per campaign, spread over the whole run.
        sample = launch(name, seed, size, setup_only=True)
        if sample.returncode != 0 or sample.setup_s is None:
            raise RuntimeError(f"set-up sample failed:\n{sample.log}")
        setups.append(sample.setup_s)
        campaign = launch(name, seed, size)
        problems = unit_problems(name, seed, size, campaign, goldens, reference)
        status = "ok" if not problems else "FAILED " + "; ".join(problems)
        print(
            f"campaign {index + 1}/{planned}: campaign_s={campaign.campaign_s} "
            f"setup_s={campaign.setup_s} peak_rss_mb={campaign.peak_rss_mb:.1f} {status}"
        )
        longest = max(longest, time.monotonic() - begun)
        if problems:
            failed += 1
        else:
            campaigns.append(campaign)
            setups.append(campaign.setup_s)
    attempted = len(campaigns) + failed
    metrics: Dict[str, Dict[str, Any]] = {}
    if campaigns:
        metrics = {
            "campaign_s": _metric(statistics.median(c.campaign_s for c in campaigns), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(c.peak_rss_mb for c in campaigns), "MB"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def traced_run(
    name: str, seed: int, size: str, goldens: Mapping[str, Any]
) -> Dict[str, Any]:
    """Per-layer metrics from one traced campaign, plus one untraced for overhead."""
    reference = serial_reference(name, seed, size, goldens)
    results = {}
    failed = 0
    for traced in (False, True):
        campaign = launch(name, seed, size, trace=traced)
        problems = unit_problems(name, seed, size, campaign, goldens, reference)
        if traced and not problems and not (campaign.spans and campaign.telemetry):
            problems = ["the traced campaign recorded no spans or telemetry"]
        print(
            f"{'traced' if traced else 'untraced'} campaign: "
            f"campaign_s={campaign.campaign_s} "
            f"{'ok' if not problems else 'FAILED ' + '; '.join(problems)}"
        )
        failed += bool(problems)
        results[traced] = campaign
    metrics = {}
    if not failed:
        metrics = layer_metrics(results[True], results[False])
    return {"correct": failed == 0, "attempted": 2, "failed": failed, "metrics": metrics}


def per_layer_units() -> Dict[str, str]:
    table = json.loads(LAYER_MAP.read_text())
    return {
        metric["name"]: metric["unit"]
        for layer in table["layers"]
        for metric in layer["metrics"]
    }


def layer_metrics(traced: Campaign, untraced: Campaign) -> Dict[str, Dict[str, Any]]:
    """Every ``layers.json`` metric from a traced campaign's spans and telemetry."""
    layers = layer_times(traced.spans)
    counters = traced.telemetry["counters"]
    spans = traced.telemetry["spans"]
    gauges = traced.telemetry["gauges"]
    row = traced.rows[0]

    def own(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def span(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    unit = layers[UNIT_LAYER]
    worker_busy = span("runner.path_shard")
    pool_wait = own("pool.wait")
    pool_workers = int(gauges.get("runner.path_workers", 0))
    values = {
        "generators.k_regular_s": own("generators.k_regular"),
        "ddsr.remove_s": own("ddsr.remove"),
        "ddsr.repair_edges": int(row.get("repair_edges_added", 0)),
        "csr.build_s": own("csr.build"),
        "csr.sync_s": span("csr.sync"),
        "csr.builds": layers.get("csr.build", {}).get("calls", 0),
        "csr.hits": counters.get("csr.cache.hit", 0),
        "csr.patches": counters.get("csr.cache.patch", 0),
        "csr.rebuild_overflow": counters.get("csr.cache.rebuild_overflow", 0),
        "fast.path_metrics_s": own("fast.path_metrics"),
        "fast.accumulate_s": own("fast.accumulate") + worker_busy,
        "wave.count": counters.get("wave.count", 0),
        "wave.levels_dense": counters.get("wave.dispatch.dense", 0),
        "wave.levels_sparse": counters.get("wave.dispatch.sparse", 0),
        "wave.levels_pull": counters.get("wave.dispatch.pull", 0),
        "wave.node_levels": counters.get("wave.node_levels", 0),
        "wave.frontier_rows": counters.get("wave.frontier_rows", 0),
        "soap.campaign_s": own("soap.campaign"),
        "soap.components_s": own("soap.components"),
        "soap.peering_requests": int(row.get("peering_requests", 0)),
        "soap.clones_created": int(row.get("clones_created", 0)),
        "pool.spinup_s": span("runner.pool_spinup"),
        "pool.publish_s": own("pool.publish"),
        "pool.wait_s": pool_wait,
        "pool.worker_busy_s": worker_busy,
        "pool.utilization": (
            worker_busy / (pool_workers * pool_wait) if pool_workers and pool_wait else 0.0
        ),
        "pool.bytes_shipped": counters.get("runner.pool.bytes_shipped", 0),
        "pool.publish_attach": counters.get("runner.pool.publish_attach", 0),
        "pool.publish_patch": counters.get("runner.pool.publish_patch", 0),
        "pool.publish_reattach": counters.get("runner.pool.publish_reattach", 0),
        "pool.retries": counters.get("runner.retry", 0),
        "pool.respawns": counters.get("runner.pool.respawn", 0),
        "journal.write_s": own("journal.write"),
        "journal.records": traced.journal_records,
        "journal.bytes": traced.journal_bytes,
        "journal.write_failed": counters.get("runner.journal.write_failed", 0),
        "cache.io_s": own("cache.io"),
        "cache.misses": counters.get("runner.cache.miss", 0),
        "executor.unit_s": unit["total_s"],
        "executor.overhead_s": traced.campaign_s - unit["total_s"],
        "trace.overhead_s": traced.campaign_s - untraced.campaign_s,
        "trace.coverage": (unit["total_s"] - unit["self_s"]) / unit["total_s"],
    }
    units = per_layer_units()
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"layers.json and the traced metrics disagree on {sorted(missing)}")
    return {name: _metric(values[name], units[name]) for name in units}


def pin(seeds: Sequence[int], size: str, families: Sequence[str]) -> None:
    """Recompute the goldens of ``seeds`` from serial campaigns."""
    goldens = load_goldens() if GOLDENS.exists() else {}
    for family in families:
        name = REFERENCE[family]
        pinned = goldens.setdefault(size, {}).setdefault(family, {})
        for seed in seeds:
            campaign = launch(name, seed, size)
            problems = unit_problems(name, seed, size, campaign, {}, None)
            if problems:
                raise RuntimeError(f"{name} seed {seed}: {'; '.join(problems)}")
            pinned[str(seed)] = campaign.rows[0]
            print(f"pinned {size} {family} seed {seed}", flush=True)
            GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def _seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="campaign sizes (small: the self-tests)",
    )
    parser.add_argument("--pin", metavar="SEEDS", help="re-pin goldens, e.g. 0-23")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "runner" / "cli.py").is_file():
        print(
            f"error: no program under {ROOT / 'src'}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    if args.pin is None and args.workload is None:
        parser.error("--workload is required")
    _become_subreaper()
    try:
        if args.pin:
            families = [WORKLOADS[args.workload].golden] if args.workload else REFERENCE
            pin(_seed_list(args.pin), args.size, families)
            return 0
        result = run_workload(args)
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']} {entry['unit']}")
    print(f"units_failed/units_attempted = {result['failed']}/{result['attempted']}")
    print(json.dumps(result), flush=True)
    return 0


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    knobs = json.dumps(knobs_of(WORKLOADS[args.workload]))
    print(f"workload {args.workload} seed {args.seed} size {args.size} knobs {knobs}")
    print(f"fingerprint {json.dumps(fingerprint(args.workload))}")
    goldens = load_goldens()
    warm_up(args.workload, args.seed, args.size)
    if args.trace:
        return traced_run(args.workload, args.seed, args.size, goldens)
    return timed_run(args.workload, args.seed, args.seconds, args.size, goldens)


if __name__ == "__main__":
    raise SystemExit(main())
