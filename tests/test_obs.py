"""Tests for the observability layer (repro.obs).

Covers the span-tree invariants (nesting, timing, error status), the
metrics registry semantics, the JSONL sink round-trip, recorder
installation/restoration, engine-stats absorption, the run manifest, and
a generous null-sink overhead bound.
"""

import io
import json
import time

import pytest

from repro import obs
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    NullSink,
    Recorder,
    RunManifest,
    SummarySink,
)


class TestSpans:
    def test_nesting_links_parent_and_child(self):
        rec = Recorder()
        with rec.span("outer") as outer:
            assert rec.current_span() is outer
            with rec.span("inner") as inner:
                assert rec.current_span() is inner
                assert inner.parent_id == outer.span_id
            assert rec.current_span() is outer
        assert rec.current_span() is None
        assert outer.parent_id is None
        assert inner.span_id != outer.span_id

    def test_sibling_spans_share_parent(self):
        rec = Recorder()
        with rec.span("root") as root:
            with rec.span("a") as a:
                pass
            with rec.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_timing_child_within_parent(self):
        rec = Recorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                time.sleep(0.01)
        assert inner.duration >= 0.01
        assert outer.duration >= inner.duration
        assert outer.start_time <= inner.start_time

    def test_exception_marks_error_status(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.span("work") as span:
                raise ValueError("boom")
        assert span.status == "error"
        assert span.attrs["error"] == "ValueError"
        assert rec.current_span() is None  # stack unwound

    def test_counters_and_late_attrs_land_on_record(self):
        rec = Recorder()
        with rec.span("work", kind="demo") as span:
            span.add("updates", 3)
            span.add("updates", 2)
            span.set(targets=7)
        record = span.as_record()
        assert record["type"] == "span"
        assert record["name"] == "work"
        assert record["status"] == "ok"
        assert record["counters"] == {"updates": 5}
        assert record["attrs"] == {"kind": "demo", "targets": 7}

    def test_span_totals_aggregate_without_sinks(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("step"):
                pass
        totals = rec.span_totals()
        assert totals["step"]["count"] == 3
        assert totals["step"]["seconds"] >= 0.0


class TestMetrics:
    def test_counter_sums_deltas(self):
        reg = MetricsRegistry()
        reg.add("hits")
        reg.add("hits", 4)
        assert reg.snapshot().counters == {"hits": 5}

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("entries", 10)
        reg.gauge("entries", 3)
        assert reg.snapshot().gauges == {"entries": 3}

    def test_histogram_moments(self):
        reg = MetricsRegistry()
        for v in (4.0, 1.0, 7.0):
            reg.observe("fanout", v)
        hist = reg.snapshot().histograms["fanout"]
        assert hist.count == 3
        assert hist.total == 12.0
        assert hist.min == 1.0
        assert hist.max == 7.0
        assert hist.mean == 4.0

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.add("n")
        snap = reg.snapshot()
        reg.add("n")
        assert snap.counters == {"n": 1}
        assert reg.snapshot().counters == {"n": 2}

    def test_metrics_record_shape(self):
        reg = MetricsRegistry()
        reg.add("c")
        reg.gauge("g", 1.5)
        reg.observe("h", 2.0)
        record = reg.snapshot().as_record()
        assert record["type"] == "metrics"
        assert record["counters"] == {"c": 1}
        assert record["gauges"] == {"g": 1.5}
        assert record["histograms"]["h"]["mean"] == 2.0


class TestJsonlSink:
    def test_round_trip_span_tree(self):
        buf = io.StringIO()
        rec = Recorder(sinks=[JsonlSink(buf)])
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        rec.add("worked")
        rec.finish(RunManifest.collect(command="test", argv=["x"]))

        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        # children are emitted on exit, so inner precedes outer
        assert [r["type"] for r in records] == [
            "span",
            "span",
            "metrics",
            "manifest",
        ]
        inner, outer = records[0], records[1]
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert records[2]["counters"] == {"worked": 1}
        assert records[3]["command"] == "test"

    def test_writes_file_and_counts_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(str(path))
        rec = Recorder(sinks=[sink])
        with rec.span("only"):
            pass
        rec.finish()
        assert sink.records_written == 2  # span + metrics snapshot
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "only"

    def test_finish_is_idempotent(self):
        buf = io.StringIO()
        rec = Recorder(sinks=[JsonlSink(buf)])
        with rec.span("s"):
            pass
        rec.finish()
        rec.finish()
        types = [json.loads(l)["type"] for l in buf.getvalue().splitlines()]
        assert types.count("metrics") == 1


class TestSummarySink:
    def test_render_contains_spans_and_metrics(self):
        sink = SummarySink(io.StringIO())
        rec = Recorder(sinks=[sink])
        with rec.span("trace.run"):
            pass
        rec.add("trace.events.reset", 2)
        rec.observe("trace.reroute.updates", 5.0)
        rec.finish()
        text = sink.render()
        assert "obs summary" in text
        assert "trace.run" in text
        assert "trace.events.reset = 2" in text
        assert "trace.reroute.updates" in text


class TestActiveRecorder:
    def test_module_helpers_route_to_installed_recorder(self):
        rec = Recorder()
        previous = obs.set_recorder(rec)
        try:
            with obs.span("outer") as span:
                obs.add("counter", 2)
                obs.observe("hist", 1.0)
                obs.gauge("gauge", 9)
                assert rec.current_span() is span
            snap = rec.snapshot()
            assert snap.counters == {"counter": 2}
            assert snap.gauges == {"gauge": 9}
            assert rec.span_totals()["outer"]["count"] == 1
        finally:
            obs.set_recorder(previous)

    def test_set_recorder_none_restores_null_default(self):
        rec = Recorder()
        obs.set_recorder(rec)
        obs.set_recorder(None)
        assert obs.get_recorder() is not rec
        # the default recorder swallows instrumentation without sinks
        with obs.span("noop"):
            obs.add("ignored")


class TestAbsorbEngineStats:
    def test_duck_typed_absorption(self):
        class FakeStats:
            queries = 10
            hits = 7
            misses = 3
            evictions = 0
            entries = 4
            compute_seconds = 0.5
            batches = 2
            hit_rate = 0.7
            stage_seconds = {"spread": 0.3, "finalize": 0.2}

        rec = Recorder()
        rec.absorb_engine_stats(FakeStats())
        gauges = rec.snapshot().gauges
        assert gauges["engine.queries"] == 10
        assert gauges["engine.hit_rate"] == 0.7
        assert gauges["engine.stage_seconds.spread"] == 0.3

    def test_real_engine_stats_shape(self):
        from repro.asgraph.engine import RoutingEngine
        from repro.asgraph.topology import ASGraph

        graph = ASGraph()
        graph.add_provider_link(customer=2, provider=1)
        engine = RoutingEngine()
        engine.outcome(graph, [2])
        rec = Recorder()
        rec.absorb_engine_stats(engine.stats())
        gauges = rec.snapshot().gauges
        assert gauges["engine.queries"] >= 1
        assert "engine.hit_rate" in gauges


class TestManifest:
    def test_collect_fills_environment(self):
        manifest = RunManifest.collect(
            command="trace", argv=["trace"], params={"seed": 3}
        )
        assert manifest.command == "trace"
        assert manifest.params == {"seed": 3}
        assert manifest.python_version
        assert manifest.package_version not in ("", "unknown")
        record = manifest.to_record()
        assert record["type"] == "manifest"

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "m.json"
        RunManifest.collect(command="info", argv=["info"]).write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["command"] == "info"
        assert loaded["type"] == "manifest"


class TestNullSinkOverhead:
    def test_spans_are_cheap_without_sinks(self):
        """Regression guard: null-sink spans must stay micro-cheap.

        10k spans should take well under a second even on a loaded CI
        box (the real budget is ~2 µs/span; the bound is 100 µs/span).
        """
        rec = Recorder(sinks=[NullSink()])
        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            with rec.span("hot"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < n * 100e-6
        assert rec.span_totals()["hot"]["count"] == n
