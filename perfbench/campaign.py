"""One benchmark campaign: the runner CLI in this fresh process, timed from inside.

``perfbench/run.py`` launches this file once per measured campaign::

    python3 perfbench/campaign.py --record RECORD.json [--setup-only] [--trace] \\
        -- run resilience-at-scale --set n=20000 ...

Everything after ``--`` is handed to :func:`repro.runner.cli.main`, the same
entry point as ``python -m repro.runner``.  The CLI's ``execute`` is wrapped
to note the CLOCK_MONOTONIC instant it is entered: the parent holds the
launch and exit instants, so set-up is launch -> entry and the campaign is
entry -> exit.  ``--setup-only`` stops at that instant (the set-up samples).

``--trace`` wraps the public functions at each layer boundary (``LAYERS``)
from this file -- no program code changes -- and records one span per call
(layer, start, end, parent span) in memory; the spans are written to the
record when the campaign ends.  :func:`layer_times` turns them into
per-layer call counts, inclusive times and self times (a span minus the
spans of its children).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Sequence

#: (layer, module, class or None for a module function, function names).
#: ``executor.unit`` is the scenario call of one work unit; every other
#: layer that runs inside a unit is one of its children.
LAYERS = (
    ("generators.k_regular", "repro.graphs.generators", None, ("k_regular_graph",)),
    ("ddsr.remove", "repro.core.ddsr", "DDSROverlay", ("remove_nodes",)),
    ("csr.build", "repro.graphs.fast", None, ("build_csr",)),
    ("fast.path_metrics", "repro.graphs.fast", None, ("full_path_metrics",)),
    ("fast.accumulate", "repro.graphs.fast", None, ("accumulate_path_shard",)),
    ("soap.campaign", "repro.adversary.soap", "SoapAttack", ("run_campaign",)),
    (
        "soap.components",
        "repro.adversary.soap",
        "SoapAttack",
        ("benign_subgraph_components",),
    ),
    ("pool.publish", "repro.runner.pool", "WorkerPool", ("publish_csr",)),
    ("pool.wait", "repro.runner.pool", "WorkerPool", ("run_path_shards",)),
    (
        "journal.write",
        "repro.runner.journal",
        "CampaignJournal",
        ("open", "record_unit", "record_checkpoint_shard", "finish"),
    ),
    ("cache.io", "repro.runner.cache", "ResultCache", ("get", "put")),
    ("executor.unit", "repro.runner.registry", "Scenario", ("call",)),
)

UNIT_LAYER = "executor.unit"


class SpanRecorder:
    """In-memory spans ``[layer, start_ns, end_ns, parent_index]``.

    Only the thread that created the recorder is traced; calls from any other
    thread pass straight through, so the open-span stack stays well nested.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        self._thread = threading.get_ident()

    def wrap(self, layer: str, function: Callable) -> Callable:
        spans = self.spans
        open_spans = self._open

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return function(*args, **kwargs)
            span = [layer, 0, 0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                open_spans.pop()

        return traced


def install(recorder: SpanRecorder) -> None:
    """Wrap every ``LAYERS`` function, including names other modules imported."""
    modules = {name: importlib.import_module(name) for _, name, _, _ in LAYERS}
    loaded = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for layer, module_name, owner_name, functions in LAYERS:
        module = modules[module_name]
        owner = getattr(module, owner_name) if owner_name else module
        for function_name in functions:
            raw = inspect.getattr_static(owner, function_name)
            if isinstance(raw, staticmethod):
                setattr(
                    owner, function_name, staticmethod(recorder.wrap(layer, raw.__func__))
                )
                continue
            wrapped = recorder.wrap(layer, raw)
            setattr(owner, function_name, wrapped)
            if owner_name is None:
                # ``from module import function`` bindings elsewhere.
                for other in loaded:
                    for attribute, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, attribute, wrapped)


def layer_times(spans: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """``layer -> {calls, total_s, self_s}``; self time excludes child spans.

    Durations are integer nanoseconds until the final division, and a child
    lies inside its parent's interval, so no self time can go negative.
    """
    children_ns = [0] * len(spans)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            children_ns[parent] += end - start
    totals: Dict[str, List[int]] = {}
    for index, (layer, start, end, _parent) in enumerate(spans):
        entry = totals.setdefault(layer, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - children_ns[index]
    return {
        layer: {"calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
        for layer, (calls, total, own) in totals.items()
    }


class _SetupDone(BaseException):
    """Raised at ``execute`` entry in ``--setup-only`` mode (not an error)."""


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, help="where to write the record")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.runner import cli

    record: Dict[str, Any] = {}
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)
    execute = cli.execute

    def timed_execute(*call_args, **call_kwargs):
        record["execute_entry"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        if args.setup_only:
            raise _SetupDone
        return execute(*call_args, **call_kwargs)

    cli.execute = timed_execute
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    if recorder is not None:
        record["spans"] = recorder.spans
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
