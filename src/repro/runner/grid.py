"""Parameter-grid expansion and canonicalisation.

Kept dependency-free so the spec, registry and CLI modules can import it
without pulling the whole orchestration stack.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Mapping, Sequence

#: Parameter values the runner can hash, cache and ship across processes.
Primitive = (str, int, float, bool, type(None))


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of ``grid`` as one dict per point, in insertion order.

    ``expand_grid({"a": [1, 2], "b": ["x"]})`` yields
    ``[{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]``.  An empty grid yields the
    single empty point (one run with only base parameters).
    """
    names = list(grid)
    if not names:
        return [{}]
    for name in names:
        values = grid[name]
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise TypeError(
                f"grid axis {name!r} must be a sequence of values, got {type(values).__name__}"
            )
        if len(values) == 0:
            raise ValueError(f"grid axis {name!r} has no values")
    return [
        dict(zip(names, values))
        for values in itertools.product(*(grid[name] for name in names))
    ]


def check_params(params: Mapping[str, Any]) -> None:
    """Reject parameter values the cache/executor cannot round-trip."""
    for key, value in params.items():
        if not isinstance(key, str):
            raise TypeError(f"parameter names must be strings, got {key!r}")
        if not isinstance(value, Primitive):
            raise TypeError(
                f"parameter {key!r} must be a JSON primitive (str/int/float/bool/None), "
                f"got {type(value).__name__}; pass enums and objects by name and "
                f"resolve them inside the scenario function"
            )


def canonical_params(params: Mapping[str, Any]) -> str:
    """Stable JSON encoding of a parameter point (sorted keys, no whitespace)."""
    check_params(params)
    return json.dumps(dict(params), sort_keys=True, separators=(",", ":"))


def parse_grid_value(text: str) -> Any:
    """Parse one CLI grid/override value: int, float, bool, null, else str.

    Only ``null`` maps to ``None`` -- the word ``none`` stays a string, since
    several scenario parameters (e.g. the repair policy) use it as a literal.
    """
    lowered = text.strip()
    if lowered.lower() in ("true", "false"):
        return lowered.lower() == "true"
    if lowered.lower() == "null":
        return None
    for converter in (int, float):
        try:
            return converter(lowered)
        except ValueError:
            continue
    return lowered


def parse_grid_axis(text: str) -> tuple:
    """Parse one ``name=v1,v2,...`` CLI axis into ``(name, [values])``."""
    if "=" not in text:
        raise ValueError(f"expected name=v1,v2,..., got {text!r}")
    name, _, values = text.partition("=")
    name = name.strip()
    if not name:
        raise ValueError(f"empty axis name in {text!r}")
    parsed = [parse_grid_value(item) for item in values.split(",") if item.strip() != ""]
    if not parsed:
        raise ValueError(f"axis {name!r} has no values in {text!r}")
    return name, parsed
