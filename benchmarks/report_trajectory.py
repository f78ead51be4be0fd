"""Render the per-PR speedup trajectory from ``BENCH_graph_kernels.json``.

Every PR appends one entry to the ``runs`` list of the benchmark report
(PR 2 onward); this tool turns that trajectory into

* a markdown table (``BENCH_trajectory.md``) -- one row per workload series,
  one column per PR, and
* a dependency-free hand-rolled SVG line chart (``BENCH_trajectory.svg``)
  of the speedup curves on a log scale.

Run it from the repository root::

    python -m benchmarks.report_trajectory            # writes both artifacts
    python -m benchmarks.report_trajectory --quiet    # files only, no stdout

Smoke entries appended by the bench CLI (labelled ``... (cli smoke)``) are
ignored; only canonical full-scale entries contribute points.

When a telemetry report (``repro.obs`` ``--telemetry`` output) is saved next
to the trajectory JSON as ``BENCH_telemetry.json`` -- or pointed at with
``--telemetry PATH`` -- a "Run telemetry" section is folded into the
markdown: the wave-dispatch histogram, the runner/CSR cache-hit rates and
the headline spans of that instrumented run.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_graph_kernels.json"

#: Sidecar telemetry report folded into the markdown when present.
DEFAULT_TELEMETRY = "BENCH_telemetry.json"

#: Placeholder-palette series colours (dark-on-light friendly).
_COLORS = (
    "#4063d8", "#389826", "#cb3c33", "#9558b2", "#aa7f39",
    "#0e7490", "#b45309", "#6b7280",
)


def _series_points(runs: List[dict]) -> Dict[str, List[Tuple[int, float]]]:
    """``{series name: [(pr_index, speedup), ...]}`` from canonical runs."""
    series: Dict[str, List[Tuple[int, float]]] = {}

    def add(name: str, index: int, speedup) -> None:
        if speedup is None:
            return
        series.setdefault(name, []).append((index, float(speedup)))

    for index, run in enumerate(runs):
        for row in run.get("rows", []):
            add(f"kernels n={row['n']:,}", index, row.get("speedup"))
        for row in run.get("batched_bfs", []):
            add(f"batched BFS n={row['n']:,}", index, row.get("speedup"))
        soap = run.get("soap_campaign")
        if soap:
            add(f"SOAP campaign n={soap['n']:,}", index, soap.get("speedup"))
        full = run.get("full_closeness")
        if full:
            add(f"full closeness n={full['n']:,}", index, full.get("speedup"))
        ring = run.get("sparse_frontier")
        if ring:
            add(f"ring diameter n={ring['n']:,}", index, ring.get("speedup"))
        full_path = run.get("full_path_metrics")
        if full_path:
            add(
                f"exact path metrics n={full_path['n']:,}",
                index,
                full_path.get("speedup"),
            )
    return series


def load_runs(path: Path = DEFAULT_JSON) -> List[dict]:
    """The canonical (non-smoke) per-PR entries, in trajectory order."""
    report = json.loads(path.read_text())
    return [
        run for run in report.get("runs", [])
        if "cli smoke" not in str(run.get("pr", ""))
    ]


def _hit_rate(hits: int, total: int) -> str:
    return f"{hits}/{total} ({100.0 * hits / total:.1f}%)" if total else "n/a"


def render_telemetry_section(report: dict) -> str:
    """Fold one ``repro.obs`` report into a markdown section.

    Renders the per-level wave-dispatch histogram (how often the engine
    picked dense / sparse-push / saturation-pull), the runner and CSR
    cache-hit rates, and the top wall-clock spans of the instrumented run.
    """
    counters: Dict[str, int] = report.get("counters", {})
    lines = ["## Run telemetry", ""]
    label = report.get("label") or "-"
    meta = report.get("meta", {})
    source = meta.get("scenario") or meta.get("workload") or label
    lines.append(f"From the instrumented run `{source}` (`{label}`):")
    lines.append("")

    dispatch = {
        name.rsplit(".", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("wave.dispatch.")
    }
    if dispatch:
        levels = sum(dispatch.values())
        lines += [
            "### Wave dispatch histogram",
            "",
            "| step kind | levels | share |",
            "|---|---|---|",
        ]
        for kind, value in sorted(dispatch.items(), key=lambda item: -item[1]):
            bar = "█" * max(1, round(20 * value / levels))
            lines.append(f"| {kind} | {value} | `{bar}` {100.0 * value / levels:.1f}% |")
        lines += ["", f"{levels} BFS levels over {counters.get('wave.count', 0)} waves."]
        lines.append("")

    cache_rows = []
    runner_hits = counters.get("runner.cache.hit", 0)
    runner_total = (
        runner_hits
        + counters.get("runner.cache.miss", 0)
        + counters.get("runner.cache.corrupt_evicted", 0)
    )
    if runner_total:
        cache_rows.append(("runner result cache", _hit_rate(runner_hits, runner_total)))
    csr_hits = counters.get("csr.cache.hit", 0) + counters.get("csr.cache.patch", 0)
    csr_total = csr_hits + sum(
        counters.get(name, 0)
        for name in (
            "csr.cache.build",
            "csr.cache.rebuild_overflow",
            "csr.cache.rebuild_patch_rejected",
        )
    )
    if csr_total:
        cache_rows.append(("CSR cache (hit or patched)", _hit_rate(csr_hits, csr_total)))
    if cache_rows:
        lines += ["### Cache behaviour", "", "| cache | hit rate |", "|---|---|"]
        lines += [f"| {name} | {rate} |" for name, rate in cache_rows]
        lines.append("")

    spans = report.get("spans", {})
    if spans:
        lines += [
            "### Where the wall-clock went",
            "",
            "| span | count | total s | mean s |",
            "|---|---|---|---|",
        ]
        by_total = sorted(spans.items(), key=lambda item: -item[1]["total_s"])[:8]
        for name, stats in by_total:
            lines.append(
                f"| `{name}` | {stats['count']} | {stats['total_s']:.4f} "
                f"| {stats['mean_s']:.6f} |"
            )
        lines.append("")
    return "\n".join(lines)


def load_telemetry(path: Optional[Path]) -> Optional[dict]:
    """The sidecar telemetry report, or ``None`` when absent/foreign."""
    if path is None or not path.exists():
        return None
    report = json.loads(path.read_text())
    if not isinstance(report, dict) or "obs/report" not in str(report.get("schema", "")):
        return None
    return report


def render_markdown(runs: List[dict], telemetry: Optional[dict] = None) -> str:
    """Markdown table: one row per workload series, one column per PR."""
    labels = [str(run.get("pr", f"run {i}")) for i, run in enumerate(runs)]
    series = _series_points(runs)
    lines = [
        "# Graph-kernel speedup trajectory",
        "",
        "Speedup of the vectorized/adaptive implementation over its baseline",
        "(pure-Python reference, per-source loop, reference SOAP campaign, or",
        "PR 3 wave path, per workload), one column per PR entry in",
        "`BENCH_graph_kernels.json`.",
        "",
        "| workload | " + " | ".join(labels) + " |",
        "|---" * (len(labels) + 1) + "|",
    ]
    for name in sorted(series):
        cells = {index: value for index, value in series[name]}
        row = [name] + [
            f"{cells[i]:.1f}x" if i in cells else "—" for i in range(len(labels))
        ]
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    if telemetry is not None:
        lines.append(render_telemetry_section(telemetry))
    return "\n".join(lines)


def _log_y(value: float, top: float, plot_top: float, plot_bottom: float) -> float:
    """Map a speedup onto the SVG y axis (log10 scale from 1 to ``top``)."""
    span = math.log10(top)
    fraction = math.log10(max(value, 1.0)) / span if span else 0.0
    return plot_bottom - fraction * (plot_bottom - plot_top)


def render_svg(runs: List[dict], *, width: int = 760, height: int = 440) -> str:
    """A dependency-free SVG line chart of every speedup series."""
    labels = [str(run.get("pr", f"run {i}")) for i, run in enumerate(runs)]
    series = _series_points(runs)
    left, right, top, bottom = 64, 240, 36, 48
    plot_w = width - left - right
    plot_h = height - top - bottom
    plot_bottom = top + plot_h
    peak = max((v for pts in series.values() for _, v in pts), default=10.0)
    y_top = 10 ** math.ceil(math.log10(max(peak, 2.0)))

    def x_of(index: int) -> float:
        if len(labels) == 1:
            return left + plot_w / 2
        return left + index * plot_w / (len(labels) - 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="system-ui, sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{left}" y="20" font-size="14" font-weight="600" '
        'fill="#111827">Graph-kernel speedup trajectory (log scale)</text>',
    ]
    # Gridlines at decades and 2/5 subdivisions.
    tick = 1.0
    ticks = []
    while tick <= y_top:
        for factor in (1, 2, 5):
            value = tick * factor
            if 1.0 <= value <= y_top:
                ticks.append(value)
        tick *= 10
    for value in sorted(set(ticks)):
        y = _log_y(value, y_top, top, plot_bottom)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            'stroke="#e5e7eb" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'fill="#6b7280">{value:g}x</text>'
        )
    for index, label in enumerate(labels):
        x = x_of(index)
        parts.append(
            f'<text x="{x:.1f}" y="{plot_bottom + 20}" text-anchor="middle" '
            f'fill="#374151">{label}</text>'
        )
    for rank, name in enumerate(sorted(series)):
        color = _COLORS[rank % len(_COLORS)]
        points = " ".join(
            f"{x_of(i):.1f},{_log_y(v, y_top, top, plot_bottom):.1f}"
            for i, v in series[name]
        )
        if len(series[name]) > 1:
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                'stroke-width="2"/>'
            )
        for i, v in series[name]:
            parts.append(
                f'<circle cx="{x_of(i):.1f}" '
                f'cy="{_log_y(v, y_top, top, plot_bottom):.1f}" r="3" '
                f'fill="{color}"/>'
            )
        legend_y = top + 16 * rank
        parts.append(
            f'<rect x="{left + plot_w + 16}" y="{legend_y - 9}" width="10" '
            f'height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 32}" y="{legend_y}" '
            f'fill="#111827">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(
    json_path: Path = DEFAULT_JSON,
    output_dir: Optional[Path] = None,
    telemetry_path: Optional[Path] = None,
) -> Tuple[Path, Path]:
    """Write markdown + SVG next to the JSON (or into ``output_dir``).

    ``telemetry_path`` defaults to the :data:`DEFAULT_TELEMETRY` sidecar
    next to the JSON; when a valid report is there, its section is folded
    into the markdown.
    """
    runs = load_runs(json_path)
    if telemetry_path is None:
        telemetry_path = json_path.parent / DEFAULT_TELEMETRY
    telemetry = load_telemetry(telemetry_path)
    target = output_dir if output_dir is not None else json_path.parent
    markdown_path = target / "BENCH_trajectory.md"
    svg_path = target / "BENCH_trajectory.svg"
    markdown_path.write_text(render_markdown(runs, telemetry))
    svg_path.write_text(render_svg(runs))
    return markdown_path, svg_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", type=Path, default=DEFAULT_JSON, help="trajectory JSON to read"
    )
    parser.add_argument(
        "--output-dir", type=Path, default=None, help="where to write the artifacts"
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        help=(
            "repro.obs telemetry report to fold in (default: "
            f"{DEFAULT_TELEMETRY} next to the trajectory JSON, when present)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="write files without echoing the table"
    )
    args = parser.parse_args(argv)
    if not args.json.exists():
        parser.error(f"no benchmark trajectory at {args.json}")
    if args.telemetry is not None and not args.telemetry.exists():
        parser.error(f"no telemetry report at {args.telemetry}")
    markdown_path, svg_path = write_report(args.json, args.output_dir, args.telemetry)
    if not args.quiet:
        print(markdown_path.read_text())
    print(f"wrote {markdown_path}")
    print(f"wrote {svg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
