"""Decorator-based scenario registry.

A *scenario* is a plain function ``fn(*, seed, **params) -> Mapping[str, float]``
returning flat scalar metrics.  Registering it gives it a stable name the CLI,
the cache and the process-pool workers can all resolve:

    @scenario(
        name="soap-campaign",
        description="SOAP clone campaign against a fresh k-regular overlay",
        defaults={"n": 300, "k": 10},
    )
    def soap_campaign(*, seed: int, n: int, k: int) -> dict:
        ...

The built-in scenarios live in :mod:`repro.runner.scenarios` and are imported
lazily on first lookup, so importing light runner modules never drags in the
whole analysis stack (and cannot create an import cycle through
``repro.analysis``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.runner.grid import check_params

MetricFn = Callable[..., Mapping[str, float]]

_BUILTIN_MODULE = "repro.runner.scenarios"


class ScenarioError(LookupError):
    """Raised when a scenario name cannot be resolved."""


@dataclass(frozen=True)
class Scenario:
    """One registered scenario: the function plus its metadata."""

    name: str
    fn: MetricFn
    description: str = ""
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Bumped when the implementation changes in a result-affecting way; part
    #: of every cache key, so stale cached results are never served.
    version: str = "1"
    #: Module to import so process-pool workers can resolve the function.
    module: str = ""
    #: True for scenarios composing several subsystems (attack + defense +
    #: workload) that the flat ``run_*`` experiment API could not express.
    composed: bool = False
    #: Cap on work units per process-pool submission.  Heavy at-scale
    #: scenarios set ``1`` so a trial grid spreads across every worker
    #: instead of riding one shard; ``None`` keeps the executor default.
    shard_size: Optional[int] = None

    def accepted_params(self) -> Optional[set]:
        """Parameter names the function accepts, or ``None`` for ``**kwargs``."""
        import inspect

        parameters = inspect.signature(self.fn).parameters.values()
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
            return None
        return {p.name for p in parameters if p.name != "seed"}

    def check_params(self, names: "set[str]") -> None:
        """Raise a descriptive error for parameter names the fn would reject."""
        accepted = self.accepted_params()
        if accepted is None:
            return
        unknown = set(names) - accepted
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} does not accept parameter(s) "
                f"{sorted(unknown)}; accepted: {sorted(accepted)}"
            )

    def call(self, *, seed: int, **params: Any) -> Dict[str, float]:
        """Invoke with defaults filled in; validate the flat metric mapping."""
        merged = dict(self.defaults)
        merged.update(params)
        result = self.fn(seed=seed, **merged)
        if not isinstance(result, Mapping):
            raise TypeError(
                f"scenario {self.name!r} must return a mapping of metrics, "
                f"got {type(result).__name__}"
            )
        metrics: Dict[str, float] = {}
        for key, value in result.items():
            if not isinstance(value, (int, float, bool)):
                raise TypeError(
                    f"scenario {self.name!r} metric {key!r} must be numeric, "
                    f"got {type(value).__name__}"
                )
            metrics[str(key)] = float(value)
        return metrics


_REGISTRY: Dict[str, Scenario] = {}
_builtins_loaded = False


def scenario(
    *,
    name: str,
    description: str = "",
    defaults: Optional[Mapping[str, Any]] = None,
    version: str = "1",
    composed: bool = False,
    shard_size: Optional[int] = None,
) -> Callable[[MetricFn], MetricFn]:
    """Register the decorated function as a named scenario."""
    defaults = dict(defaults or {})
    check_params(defaults)
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")

    def decorator(fn: MetricFn) -> MetricFn:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        doc_first_line = (fn.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = Scenario(
            name=name,
            fn=fn,
            description=description or (doc_first_line[0] if doc_first_line else ""),
            defaults=defaults,
            version=version,
            module=fn.__module__,
            composed=composed,
            shard_size=shard_size,
        )
        return fn

    return decorator


def _ensure_builtins() -> None:
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        importlib.import_module(_BUILTIN_MODULE)


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario by name, importing the built-in module if needed."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ScenarioError(f"unknown scenario {name!r}; known: {known}") from None


def unregister(name: str) -> None:
    """Remove a scenario registered at runtime (test helper).

    Removing a *built-in* is permanent for the process: the scenarios module
    is already imported, so its ``@scenario`` decorators will not run again.
    """
    _REGISTRY.pop(name, None)


def scenario_names(*, composed_only: bool = False) -> List[str]:
    """Sorted names of every registered scenario."""
    _ensure_builtins()
    return sorted(
        name for name, sc in _REGISTRY.items() if sc.composed or not composed_only
    )


def all_scenarios() -> List[Scenario]:
    """Every registered scenario, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
