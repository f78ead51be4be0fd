"""The runner's ``REPRO_*`` environment knobs, declared in one table.

Each row of :data:`KNOBS` names a knob (its key in a report's
``meta.config``), its environment variable, its default, whether it can
change a result, and how to read and validate it: an invalid value raises
:class:`~repro.core.errors.ConfigError` naming the variable, never a silent
default.  :func:`snapshot` reads every row (the CLI's up-front check and
``meta.config``); :func:`pins` reads the rows that can change a result,
which cache keys (:meth:`repro.runner.spec.WorkUnit.key_material`) and
journal headers pin.  The ``graph_backend`` row reads through
:func:`repro.graphs.backend.policy`, so ``backend.use()`` still wins over
the environment.  A ``REPRO_*`` name the table does not list is ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.core.errors import ConfigError
from repro.graphs import backend


@dataclass(frozen=True)
class Knob:
    name: str
    env_var: str
    default: Any
    #: Pinned in cache keys and journal headers; the other knobs are
    #: performance or robustness settings that must not move any number.
    changes_results: bool
    read: Callable[["Knob"], Any]


def _positive(convert: Callable[[str], Any], expected: str) -> Callable[[Knob], Any]:
    def read(knob: Knob) -> Any:
        raw = os.environ.get(knob.env_var, "").strip()
        if not raw:
            return knob.default
        try:
            value = convert(raw)
        except ValueError:
            value = 0
        if value <= 0:
            raise ConfigError(
                f"invalid {knob.env_var}={raw!r}; expected a positive {expected}"
            )
        return value

    return read


KNOBS = (
    Knob("graph_backend", backend.ENV_VAR, "auto", True, lambda _: backend.policy()),
    Knob("path_workers", "REPRO_PATH_WORKERS", 1, False,
         _positive(int, "integer of pool workers")),
    Knob("task_timeout", "REPRO_TASK_TIMEOUT", None, False,
         _positive(float, "number of seconds")),
)

_BY_NAME = {knob.name: knob for knob in KNOBS}


def value(name: str) -> Any:
    """The effective value of one knob."""
    knob = _BY_NAME[name]
    return knob.read(knob)


def snapshot() -> Dict[str, Any]:
    """Every knob's effective value, in table order."""
    return {knob.name: knob.read(knob) for knob in KNOBS}


def pins() -> Dict[str, Any]:
    """The effective values of the knobs that can change a result."""
    return {knob.name: knob.read(knob) for knob in KNOBS if knob.changes_results}
