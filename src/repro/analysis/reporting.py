"""Plain-text reporting helpers.

The benchmarks regenerate the paper's tables and figure series as text; these
helpers keep the rendering consistent (aligned columns, fixed float formats)
so the README's "Reproducing the paper" section and the bench output read
the same way.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned, pipe-separated text table."""
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    header_line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths[: len(headers)]))
    for row in rendered_rows:
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[float], ys: Sequence[float]) -> str:
    """Render one figure series as ``name: (x, y) (x, y) ...``."""
    pairs = " ".join(f"({_format_cell(x)}, {_format_cell(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def render_result_rows(rows: Sequence[Mapping[str, object]]) -> str:
    """Render a list of homogeneous dicts as a table (keys become headers)."""
    if not rows:
        return "(no rows)"
    headers: List[str] = list(rows[0].keys())
    return format_table(headers, [[row.get(header, "") for header in headers] for row in rows])
