"""Collector semantics: null singleton, counters/gauges/spans, merging.

The disabled path is the one that runs on every ordinary invocation, so it
gets the strictest contract: the active collector is the *same* no-op
singleton every time, and exercising it allocates nothing.
"""

from __future__ import annotations

import threading
import tracemalloc

import pytest

from repro.obs import telemetry
from repro.obs.telemetry import NULL, Collector, NullCollector


class TestDisabledPath:
    def test_current_is_the_null_singleton(self):
        assert telemetry.current() is NULL
        assert telemetry.current() is telemetry.current()
        assert not telemetry.enabled()
        assert NULL.enabled is False

    def test_null_span_is_one_reusable_object(self):
        assert NULL.span("a") is NULL.span("b")
        with NULL.span("x") as span:
            assert span is NULL.span("y")

    def test_disabled_path_allocates_nothing(self):
        """The no-op calls create no objects -- provably zero-cost when off."""
        tel = telemetry.current()
        span = tel.span  # bound-method lookups themselves allocate; hoist
        count = tel.count
        gauge = tel.gauge
        # Warm up any lazy interpreter state before measuring.
        for _ in range(3):
            count("wave.levels")
            gauge("wave.popcount_backend", "native")
            with span("runner.unit"):
                pass
        module_file = telemetry.__file__
        tracemalloc.start()
        try:
            for _ in range(1000):
                count("wave.levels")
                gauge("wave.popcount_backend", "native")
                with span("runner.unit"):
                    pass
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        inside = snapshot.filter_traces(
            [tracemalloc.Filter(True, module_file)]
        ).statistics("lineno")
        assert inside == [], inside

    def test_null_collector_accepts_all_calls(self):
        NULL.count("a")
        NULL.count("a", 5)
        NULL.gauge("g", 1)
        NULL.record_span("s", 0.5)
        NULL.section("sec", {"x": 1})
        NULL.merge_snapshot({"counters": {"a": 1}})
        snap = NULL.snapshot()
        assert snap["counters"] == {} and snap["spans"] == {}


class TestEnableDisable:
    def test_enable_installs_a_fresh_collector(self):
        collector = telemetry.enable(label="t")
        assert telemetry.current() is collector
        assert collector.enabled and collector.label == "t"
        second = telemetry.enable()
        assert second is not collector

    def test_disable_returns_the_previous_collector(self):
        collector = telemetry.enable()
        assert telemetry.disable() is collector
        assert telemetry.current() is NULL
        assert telemetry.disable() is None  # already off

    def test_collecting_scope_restores_previous(self):
        outer = telemetry.enable(label="outer")
        with telemetry.collecting(label="inner") as inner:
            assert telemetry.current() is inner
            inner.count("x")
        assert telemetry.current() is outer
        assert outer.counter("x") == 0

    def test_collecting_restores_null_after_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry.collecting():
                raise RuntimeError("boom")
        assert telemetry.current() is NULL


class TestCollector:
    def test_counters_accumulate(self):
        c = Collector()
        c.count("hits")
        c.count("hits", 4)
        assert c.counter("hits") == 5
        assert c.counter("never") == 0
        assert c.snapshot()["counters"] == {"hits": 5}

    def test_gauges_last_write_wins(self):
        c = Collector()
        c.gauge("backend", "lut")
        c.gauge("backend", "native")
        assert c.snapshot()["gauges"] == {"backend": "native"}

    def test_span_records_count_total_max(self):
        c = Collector()
        c.record_span("unit", 0.25)
        c.record_span("unit", 1.0)
        c.record_span("unit", 0.5)
        stats = c.snapshot()["spans"]["unit"]
        assert stats["count"] == 3
        assert stats["total_s"] == pytest.approx(1.75)
        assert stats["max_s"] == pytest.approx(1.0)

    def test_span_context_manager_measures_time(self):
        c = Collector()
        with c.span("sleepy"):
            pass
        stats = c.snapshot()["spans"]["sleepy"]
        assert stats["count"] == 1
        assert 0.0 <= stats["total_s"] < 1.0

    def test_sections_attach_wholesale(self):
        c = Collector()
        c.section("sim", {"series": {"pop": {"points": 3}}})
        assert c.snapshot()["sections"]["sim"]["series"]["pop"]["points"] == 3

    def test_snapshot_is_a_copy(self):
        c = Collector()
        c.count("a")
        snap = c.snapshot()
        snap["counters"]["a"] = 99
        assert c.counter("a") == 1

    def test_thread_safety_exact_totals(self):
        c = Collector()

        def hammer():
            for _ in range(2000):
                c.count("n")
                c.record_span("s", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.counter("n") == 8000
        assert c.snapshot()["spans"]["s"]["count"] == 8000


class TestMergeSnapshot:
    def test_counters_add_spans_combine_gauges_overwrite(self):
        parent = Collector(label="parent")
        parent.count("wave.levels", 3)
        parent.record_span("runner.unit", 0.5)
        parent.gauge("backend", "lut")

        worker = Collector(label="worker")
        worker.count("wave.levels", 7)
        worker.count("wave.dispatch.dense", 2)
        worker.record_span("runner.unit", 2.0)
        worker.record_span("runner.unit", 0.1)
        worker.gauge("backend", "native")
        worker.section("sim", {"x": 1})

        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"] == {"wave.levels": 10, "wave.dispatch.dense": 2}
        unit = snap["spans"]["runner.unit"]
        assert unit["count"] == 3
        assert unit["total_s"] == pytest.approx(2.6)
        assert unit["max_s"] == pytest.approx(2.0)
        assert snap["gauges"]["backend"] == "native"
        assert snap["sections"]["sim"] == {"x": 1}

    def test_merge_with_prefix_keeps_workers_apart(self):
        parent = Collector()
        worker = Collector()
        worker.count("runner.unit", 2)
        worker.record_span("runner.unit", 1.5)
        parent.merge_snapshot(worker.snapshot(), prefix="w0.")
        snap = parent.snapshot()
        assert snap["counters"] == {"w0.runner.unit": 2}
        assert "w0.runner.unit" in snap["spans"]

    def test_merge_is_associative_over_workers(self):
        """merge(a then b) == merge(b then a) for counters and span stats."""
        a = Collector(); a.count("n", 3); a.record_span("s", 1.0)
        b = Collector(); b.count("n", 4); b.record_span("s", 2.0)
        left = Collector()
        left.merge_snapshot(a.snapshot())
        left.merge_snapshot(b.snapshot())
        right = Collector()
        right.merge_snapshot(b.snapshot())
        right.merge_snapshot(a.snapshot())
        assert left.snapshot()["counters"] == right.snapshot()["counters"]
        assert left.snapshot()["spans"] == right.snapshot()["spans"]

    def test_snapshot_round_trips_through_pickle_shape(self):
        """Snapshots are plain dicts of primitives -- pool-transport safe."""
        import json

        c = Collector(label="worker-shard")
        c.count("runner.path_shard.sources", 40)
        c.record_span("runner.path_shard", 0.25)
        c.gauge("csr.ghosts", 0)
        restored = json.loads(json.dumps(c.snapshot()))
        parent = Collector()
        parent.merge_snapshot(restored)
        assert parent.counter("runner.path_shard.sources") == 40


class TestEnvKnob:
    def test_null_collector_class_is_importable_for_isinstance(self):
        assert isinstance(NULL, NullCollector)
