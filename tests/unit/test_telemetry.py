"""Unit tests for the repro.telemetry subsystem.

Covers registry/instrument semantics, histogram percentile math on known
distributions, nested span timing, the JSONL writer round-trip, the
critical "telemetry changes nothing" parity guarantee for the tracker,
and the CLI surface (``--telemetry`` / ``--metrics-dump`` / ``--json``).
"""

import io
import json

import pytest

from repro.core.config import PIFTConfig
from repro.core.events import load, store
from repro.core.ranges import AddressRange
from repro.core.tracker import PIFTTracker
from repro.core.buffered import BufferedPIFT
from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Telemetry,
    TelemetryWriter,
    read_events,
    snapshot_json,
    to_prometheus_text,
)
from repro.__main__ import main


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("tracker.events", "events seen")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_semantics(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("tracker.tainted_bytes", "bytes")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12
        assert gauge.max_value == 15
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.max_value == 15  # high-water mark survives

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("cpu.instructions", "n")
        b = registry.counter("cpu.instructions", "n")
        assert a is b

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("vm.bytecodes", "n")
        with pytest.raises(TypeError):
            registry.gauge("vm.bytecodes", "n")

    def test_family_is_prefix_before_first_dot(self):
        registry = MetricsRegistry()
        registry.counter("tracker.events", "n")
        registry.counter("tracker.loads", "n")
        registry.gauge("buffer.queue_depth", "n")
        assert registry.families() == ["buffer", "tracker"]
        assert [m.name for m in registry.family("tracker")] == [
            "tracker.events",
            "tracker.loads",
        ]

    def test_as_dict_nests_by_family(self):
        registry = MetricsRegistry()
        registry.counter("tracker.events", "n").inc(3)
        snapshot = registry.as_dict()
        assert snapshot["tracker"]["tracker.events"]["value"] == 3
        assert snapshot["tracker"]["tracker.events"]["kind"] == "counter"

    def test_labels_key_distinct_series(self):
        registry = MetricsRegistry()
        plain = registry.counter("sweep.cells", "n")
        labelled = registry.counter("sweep.cells", "n",
                                    labels={"worker_id": "3"})
        assert plain is not labelled
        assert registry.counter(
            "sweep.cells", labels={"worker_id": "3"}
        ) is labelled
        plain.inc(2)
        labelled.inc(5)
        assert registry.get("sweep.cells").value == 2
        assert registry.get("sweep.cells", {"worker_id": "3"}).value == 5

    def test_labelled_series_in_snapshot(self):
        from repro.telemetry import labeled_name

        registry = MetricsRegistry()
        registry.counter("sweep.cells", "n",
                         labels={"worker_id": "3"}).inc(1)
        key = labeled_name("sweep.cells", {"worker_id": "3"})
        assert key == "sweep.cells{worker_id=3}"
        entry = registry.as_dict()["sweep"][key]
        assert entry["labels"] == {"worker_id": "3"}

    def test_null_registry_is_inert(self):
        registry = NullRegistry()
        counter = registry.counter("tracker.events", "n")
        counter.inc(100)
        gauge = registry.gauge("tracker.tainted_bytes", "n")
        gauge.set(5)
        histogram = registry.histogram("span.x", "s")
        histogram.observe(1.0)
        assert registry.as_dict() == {}


# ---------------------------------------------------------------------------
# Histogram percentile math
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_counts_land_in_correct_buckets(self):
        h = Histogram("t.h", "test", buckets=[1.0, 10.0, 100.0])
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 4
        assert d["sum"] == pytest.approx(555.5)
        # Cumulative (Prometheus-style) bucket counts.
        assert d["buckets"] == {"1.0": 1, "10.0": 2, "100.0": 3, "+Inf": 4}

    def test_percentiles_on_uniform_distribution(self):
        # 100 samples spread uniformly over (0, 100) with bucket bounds
        # every 10: percentiles should come back within a bucket's width.
        h = Histogram("t.h", "test", buckets=[float(b) for b in range(10, 101, 10)])
        for i in range(100):
            h.observe(i + 0.5)
        assert h.percentile(50) == pytest.approx(50.0, abs=10.0)
        assert h.percentile(90) == pytest.approx(90.0, abs=10.0)
        assert h.percentile(99) == pytest.approx(99.0, abs=10.0)

    def test_percentile_interpolates_within_bucket(self):
        h = Histogram("t.h", "test", buckets=[10.0, 20.0])
        for _ in range(10):
            h.observe(15.0)  # all samples in the (10, 20] bucket
        p50 = h.percentile(50)
        assert 10.0 <= p50 <= 20.0

    def test_min_max_track_exact_extremes(self):
        h = Histogram("t.h", "test", buckets=[1.0])
        h.observe(0.25)
        h.observe(7.5)
        d = h.as_dict()
        assert d["min"] == 0.25
        assert d["max"] == 7.5

    def test_empty_histogram(self):
        h = Histogram("t.h", "test", buckets=DEFAULT_TIME_BUCKETS)
        assert h.percentile(50) == 0.0
        assert h.as_dict()["count"] == 0


# ---------------------------------------------------------------------------
# JSONL writer
# ---------------------------------------------------------------------------


class TestWriter:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path) as writer:
            writer.emit("taint", pid=0, index=3, start=100, size=4)
            writer.emit("untaint", pid=1, index=9, start=200, size=8)
        events = read_events(str(path))
        assert [e["type"] for e in events] == ["taint", "untaint"]
        assert events[0]["seq"] == 0 and events[1]["seq"] == 1
        assert events[1]["pid"] == 1 and events[1]["size"] == 8
        # Timestamps are monotonic, relative to writer creation.
        assert 0 <= events[0]["t"] <= events[1]["t"]

    def test_every_line_is_standalone_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path) as writer:
            for i in range(100):
                writer.emit("x", i=i)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 100
        for line in lines:
            json.loads(line)

    def test_buffering_defers_then_flushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = TelemetryWriter(path, buffer_lines=1000)
        writer.emit("x")
        assert path.read_text() == ""  # still buffered
        writer.flush()
        assert len(path.read_text().strip().split("\n")) == 1
        writer.close()

    def test_emit_after_close_raises(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "e.jsonl")
        writer.close()
        with pytest.raises(ValueError):
            writer.emit("x")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nested_spans_record_depth_and_parent(self):
        buffer = io.StringIO()
        with Telemetry(writer=TelemetryWriter(buffer)) as telemetry:
            with telemetry.span("outer"):
                with telemetry.span("inner", detail=1):
                    pass
        events = read_events(buffer)
        # Inner closes first in the stream.
        inner, outer = events
        assert inner["name"] == "inner" and inner["depth"] == 1
        assert inner["parent"] == "outer" and inner["detail"] == 1
        assert outer["name"] == "outer" and outer["depth"] == 0
        assert outer["parent"] is None
        assert outer["duration_us"] >= inner["duration_us"]

    def test_span_observes_duration_histogram(self):
        telemetry = Telemetry()
        with telemetry.span("work"):
            pass
        with telemetry.span("work"):
            pass
        snapshot = telemetry.snapshot()
        assert snapshot["span"]["span.work"]["count"] == 2

    def test_span_records_error_flag(self):
        buffer = io.StringIO()
        telemetry = Telemetry(writer=TelemetryWriter(buffer))
        with pytest.raises(RuntimeError):
            with telemetry.span("bad"):
                raise RuntimeError("boom")
        telemetry.close()
        (event,) = read_events(buffer)
        assert event["error"] == "RuntimeError"

    def test_disabled_hub_spans_are_noops(self):
        telemetry = Telemetry.disabled()
        with telemetry.span("x"):
            pass
        assert telemetry.snapshot() == {}


# ---------------------------------------------------------------------------
# Tracker parity: telemetry must not change results
# ---------------------------------------------------------------------------


def _workload():
    events = [load(0, 3, 1)]
    for k in range(2, 60):
        if k % 7 == 0:
            events.append(load(k * 8, k * 8 + 3, k))
        elif k % 11 == 0:
            events.append(load(0, 3, k))  # re-tainted load
        else:
            events.append(store(1000 + k * 4, 1003 + k * 4, k))
    events.append(store(1008, 1011, 120))  # far out-of-window untaint
    return events


def _tracker_counters(telemetry):
    return {
        name: metric["value"]
        for name, metric in telemetry.snapshot()["tracker"].items()
        if metric["kind"] == "counter"
    }


class TestTrackerParity:
    def test_stats_identical_with_telemetry_on_and_off(self):
        config = PIFTConfig(13, 3)
        plain = PIFTTracker(config)
        buffer = io.StringIO()
        telemetry = Telemetry(writer=TelemetryWriter(buffer))
        instrumented = PIFTTracker(config, telemetry=telemetry)
        for tracker in (plain, instrumented):
            tracker.taint_source(AddressRange(0, 3))
            tracker.run(_workload())
        verdict_plain = plain.check(AddressRange(1000, 1200))
        verdict_instrumented = instrumented.check(AddressRange(1000, 1200))
        telemetry.close()
        assert plain.stats.as_dict() == instrumented.stats.as_dict()
        assert verdict_plain == verdict_instrumented
        assert len(read_events(buffer)) > 0  # telemetry did actually fire

    def test_event_stream_mirrors_stats(self):
        """Counters carry the stats; the JSONL stream carries one
        ``source_taint`` per registration and no per-mutation events."""
        buffer = io.StringIO()
        telemetry = Telemetry(writer=TelemetryWriter(buffer))
        tracker = PIFTTracker(PIFTConfig(13, 3), telemetry=telemetry)
        tracker.taint_source(AddressRange(0, 3))
        tracker.run(_workload())
        tracker.check(AddressRange(1000, 1200))
        telemetry.close()
        (event,) = read_events(buffer)
        assert event["type"] == "source_taint"
        fields = ("pid", "index", "start", "size")
        assert [event[name] for name in fields] == [0, 0, 0, 4]
        stats = tracker.stats
        assert stats.taint_operations and stats.untaint_operations
        assert _tracker_counters(telemetry) == {
            "tracker.events": stats.loads_observed + stats.stores_observed,
            "tracker.loads": stats.loads_observed,
            "tracker.stores": stats.stores_observed,
            "tracker.tainted_loads": stats.tainted_loads,
            "tracker.taint_ops": stats.taint_operations,
            "tracker.untaint_ops": stats.untaint_operations,
            "tracker.sources": 1,
            "tracker.checks": 1,
        }
        family = telemetry.snapshot()["tracker"]
        assert family["tracker.tainted_bytes"]["max"] == stats.max_tainted_bytes
        assert family["tracker.tainted_bytes"]["value"] == tracker.tainted_bytes
        assert family["tracker.range_count"]["max"] == stats.max_range_count
        assert family["tracker.range_count"]["value"] == tracker.range_count

    def test_disabled_tracker_has_seed_methods(self):
        tracker = PIFTTracker(PIFTConfig(13, 3))
        # No instance-level overrides: the hot path is the class methods.
        assert "observe" not in tracker.__dict__
        assert "taint_source" not in tracker.__dict__
        assert "check" not in tracker.__dict__

    def test_reset_clears_state_but_keeps_wiring(self):
        telemetry = Telemetry()
        tracker = PIFTTracker(PIFTConfig(13, 3), telemetry=telemetry)
        tracker.taint_source(AddressRange(0, 3))
        tracker.run(_workload())
        first = tracker.stats
        tracker.reset()
        assert tracker.stats.instructions_observed == 0
        assert tracker.tainted_bytes == 0
        assert tracker.range_count == 0
        # A shorter second run: measured against the first run's counts
        # its deltas would be negative, which a counter rejects.
        tracker.taint_source(AddressRange(0, 3))
        tracker.run(_workload()[:10])
        second = tracker.stats
        counters = _tracker_counters(telemetry)
        assert counters["tracker.events"] == (
            first.loads_observed + first.stores_observed
            + second.loads_observed + second.stores_observed
        )
        assert counters["tracker.taint_ops"] == (
            first.taint_operations + second.taint_operations
        )
        assert counters["tracker.untaint_ops"] == (
            first.untaint_operations + second.untaint_operations
        )
        assert counters["tracker.sources"] == 2
        assert not {"observe", "taint_source", "check"} & set(tracker.__dict__)

    def test_restore_counts_only_own_events(self):
        donor = PIFTTracker(PIFTConfig(13, 3))
        donor.taint_source(AddressRange(0, 3))
        donor.run(_workload())
        telemetry = Telemetry()
        heir = PIFTTracker(PIFTConfig(13, 3), telemetry=telemetry)
        heir.restore(donor.snapshot())
        # A tainted load, then one in-window store: one taint.
        heir.run([load(0, 3, 130), store(4000, 4003, 131), load(9, 9, 132)])
        assert heir.stats.loads_observed > 2  # the donor's counts live on
        assert _tracker_counters(telemetry) == {
            "tracker.events": 3,
            "tracker.loads": 2,
            "tracker.stores": 1,
            "tracker.tainted_loads": 1,
            "tracker.taint_ops": 1,
            "tracker.untaint_ops": 0,
            "tracker.sources": 0,
            "tracker.checks": 0,
        }


class TestStatsAsDict:
    def test_tracker_stats_as_dict_round_trips_json(self):
        tracker = PIFTTracker(PIFTConfig(13, 3), record_timeline=True)
        tracker.taint_source(AddressRange(0, 3))
        tracker.run(_workload())
        d = json.loads(json.dumps(tracker.stats.as_dict()))
        assert d["loads_observed"] == tracker.stats.loads_observed
        assert d["total_operations"] == tracker.stats.total_operations
        assert len(d["timeline"]) == len(tracker.stats.timeline)

    def test_buffer_stats_as_dict(self):
        buffered = BufferedPIFT(PIFTConfig(13, 3))
        for event in _workload():
            buffered.on_memory_event(event)
        buffered.drain_all()
        d = buffered.stats.as_dict()
        assert d["events_buffered"] == len(_workload())
        assert d["drains"] >= 1


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def test_snapshot_json_parses(self):
        telemetry = Telemetry().preregister_standard()
        telemetry.metrics.counter("tracker.events", "n").inc(7)
        parsed = json.loads(snapshot_json(telemetry.metrics))
        assert parsed["tracker"]["tracker.events"]["value"] == 7
        for family in ("tracker", "buffer", "cpu", "vm", "manager"):
            assert family in parsed

    def test_prometheus_text_format(self):
        telemetry = Telemetry()
        telemetry.metrics.counter("tracker.events", "events seen").inc(3)
        telemetry.metrics.gauge("buffer.queue_depth", "depth").set(9)
        telemetry.metrics.histogram(
            "span.drain", "drain time", buckets=[0.1, 1.0]
        ).observe(0.5)
        text = to_prometheus_text(telemetry.metrics)
        assert "# TYPE pift_tracker_events counter" in text
        assert "pift_tracker_events_total 3" in text
        assert "pift_buffer_queue_depth 9" in text
        assert 'pift_span_drain_bucket{le="1.0"} 1' in text
        assert 'pift_span_drain_bucket{le="+Inf"} 1' in text
        assert "pift_span_drain_count 1" in text

    def test_prometheus_label_rendering_and_escaping(self):
        from repro.telemetry import escape_label_value

        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        telemetry = Telemetry()
        telemetry.metrics.counter(
            "sweep.cells", "n", labels={"site": 'we"ird\n\\'}
        ).inc(1)
        text = to_prometheus_text(telemetry.metrics)
        assert 'pift_sweep_cells_total{site="we\\"ird\\n\\\\"} 1' in text

    def test_prometheus_help_type_once_per_labelled_family(self):
        telemetry = Telemetry()
        m = telemetry.metrics
        m.histogram("sweep.cell.duration_seconds", "cell wall time",
                    buckets=[1.0]).observe(0.5)
        m.histogram("sweep.cell.duration_seconds", "cell wall time",
                    buckets=[1.0], labels={"worker_id": "7"}).observe(0.5)
        text = to_prometheus_text(telemetry.metrics)
        name = "pift_sweep_cell_duration_seconds"
        assert text.count(f"# TYPE {name} histogram") == 1
        assert text.count(f"# HELP {name} ") == 1
        assert f'{name}_bucket{{le="1.0"}} 1' in text
        assert f'{name}_bucket{{le="1.0",worker_id="7"}} 1' in text
        assert f'{name}_sum{{worker_id="7"}}' in text


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCLI:
    def test_malware_json_flag(self, capsys):
        assert main(["malware", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "malware"
        assert payload["detected"] == payload["total"] == len(payload["samples"])

    def test_malware_telemetry_and_metrics(self, tmp_path, capsys):
        stream = tmp_path / "run.jsonl"
        assert main([
            "malware", "--json", "--telemetry", str(stream), "--metrics-dump",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        families = set(payload["metrics"].keys())
        assert {"tracker", "buffer", "cpu", "vm", "manager"} <= families
        events = read_events(str(stream))
        assert events, "telemetry stream should not be empty"
        types = {event["type"] for event in events}
        assert "sink_check" in types and "source_register" in types

    def test_suite_json_flag(self, capsys):
        assert main(["suite", "--ni", "13", "--nt", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "suite"
        assert payload["config"] == {
            "ni": 13, "nt": 3, "untainting": True, "vectorized": True,
        }
        report = payload["report"]
        assert report["total"] == 57
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_analyze_metrics_dump_prom(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.pift.gz")
        assert main(["trace", trace_path, "--work", "16"]) == 0
        capsys.readouterr()
        assert main(["analyze", trace_path, "--metrics-dump", "prom"]) == 0
        out = capsys.readouterr().out
        assert "pift_tracker_events_total" in out
