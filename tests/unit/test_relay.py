"""Tests for sweep-worker telemetry and the flight recorder.

Covers the wire format (metric deltas and merging), the worker-side
writer (whitelist, stamping, handing over records with the metric
delta), the parent-side merge, Chrome trace export and validation, and
the headline parity guarantee: a telemetered ``jobs=4`` sweep yields the
same grid bytes and the same per-cell span *set* as ``jobs=1``.  Stall
reporting off the dispatcher's leases is covered in ``test_leases.py``
and ``test_dispatch.py``.
"""

import json
import os

import pytest

from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    Telemetry,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.relay import (
    WorkerWriter,
    merge_wire,
    merge_worker_telemetry,
    registry_wire_delta,
    worker_hub,
)


class TestWireFormat:
    def test_counter_delta_roundtrip(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        state = {}
        worker.counter("tracker.events").inc(10)
        merge_wire(parent, registry_wire_delta(worker, state))
        worker.counter("tracker.events").inc(5)
        merge_wire(parent, registry_wire_delta(worker, state))
        assert parent.get("tracker.events").value == 15

    def test_untouched_metrics_ship_nothing(self):
        worker = MetricsRegistry()
        state = {}
        worker.counter("tracker.events").inc(3)
        assert set(registry_wire_delta(worker, state)) == {"tracker.events"}
        # No mutation since the last delta: empty wire.
        assert registry_wire_delta(worker, state) == {}

    def test_histogram_delta_merges_counts(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        state = {}
        hist = worker.histogram("span.sweep.cell", buckets=(0.1, 1.0))
        hist.observe(0.05)
        merge_wire(parent, registry_wire_delta(worker, state))
        hist.observe(2.0)
        merge_wire(parent, registry_wire_delta(worker, state))
        merged = parent.get("span.sweep.cell")
        assert merged.count == 2
        assert merged.counts == [1, 0, 1]
        assert merged.min == 0.05
        assert merged.max == 2.0

    def test_gauge_lands_as_worker_labelled_series(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        worker.gauge("tracker.tainted_bytes").set(64)
        merge_wire(parent, registry_wire_delta(worker, {}), worker_id=3)
        series = parent.get("tracker.tainted_bytes", {"worker_id": "3"})
        assert series.value == 64
        assert parent.get("tracker.tainted_bytes") is None

    def test_labelled_counter_keeps_labels(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        worker.counter("sweep.cells", labels={"kind": "fast"}).inc(2)
        merge_wire(parent, registry_wire_delta(worker, {}))
        assert parent.get("sweep.cells", {"kind": "fast"}).value == 2


class TestWorkerWriter:
    def test_ships_only_whitelisted_types(self):
        writer = WorkerWriter(worker_id=1)
        writer.emit("taint", index=1)  # per-mutation noise: filtered
        writer.emit("cpu_batch", n=64)
        assert writer.records == []
        writer.emit("span", name="sweep.cell", duration_us=5.0)
        assert [record["type"] for record in writer.records] == ["span"]

    def test_stamps_worker_id_and_time(self):
        writer = WorkerWriter(worker_id=4)
        writer.emit("span", name="sweep.cell", cell_index=11)
        record = writer.records[0]
        assert record["worker_id"] == 4
        assert record["cell_index"] == 11
        assert record["mono"] > 0

    def test_take_hands_over_records_with_the_metric_delta(self):
        writer = WorkerWriter(worker_id=1)
        registry = MetricsRegistry()
        registry.counter("tracker.events").inc(4)
        writer.emit("span", name="sweep.cell")
        payload = writer.take(registry)
        assert [record["type"] for record in payload["events"]] == ["span"]
        assert payload["metrics"]["tracker.events"]["inc"] == 4
        # The next take carries only what happened since.
        registry.counter("tracker.events").inc(1)
        payload = writer.take(registry)
        assert payload["events"] == []
        assert payload["metrics"]["tracker.events"]["inc"] == 1

    def test_worker_hub_starts_with_its_worker_start(self):
        hub = worker_hub(3)
        with hub.span("sweep.cell", cell_index=0):
            pass
        payload = hub.writer.take(hub.metrics)
        start, span = payload["events"]
        assert start["type"] == "worker_start"
        assert start["pid"] == os.getpid()
        assert start["worker_id"] == span["worker_id"] == 3
        assert span["name"] == "sweep.cell" and span["cell_index"] == 0
        assert payload["metrics"]["span.sweep.cell"]["count"] == 1


class TestMergeWorkerTelemetry:
    """Parent-side merging of one completed cell's worker payload."""

    def _hub(self):
        recorder = FlightRecorder()
        return Telemetry(writer=recorder), recorder

    def test_events_re_emit_into_parent_hub(self):
        telemetry, recorder = self._hub()
        merged = merge_worker_telemetry(
            telemetry, worker_id=2, pid=4242,
            payload={
                "events": [
                    {"type": "span", "name": "sweep.cell", "worker_id": 2,
                     "cell_index": 3, "mono": 1.0, "duration_us": 9.0},
                ],
                "metrics": {},
            },
        )
        assert merged == 1
        record = recorder.records[-1]
        assert record["type"] == "span"
        assert record["cell_index"] == 3
        assert record["pid"] == 4242
        assert record["mono"] == 1.0  # the worker's stamp is kept

    def test_metric_delta_merges(self):
        telemetry, _ = self._hub()
        worker = MetricsRegistry()
        worker.counter("tracker.events").inc(8)
        worker.gauge("tracker.tainted_bytes").set(64)
        merge_worker_telemetry(
            telemetry, worker_id=1, pid=1,
            payload={"events": [], "metrics": registry_wire_delta(worker, {})},
        )
        assert telemetry.metrics.get("tracker.events").value == 8
        assert telemetry.metrics.get(
            "tracker.tainted_bytes", {"worker_id": "1"}
        ).value == 64


class TestTraceFormat:
    def _records(self):
        return [
            {"type": "worker_start", "mono": 1.0, "worker_id": 1,
             "pid": 100},
            {"type": "span", "name": "sweep.cell", "mono": 2.0,
             "duration_us": 5e5, "worker_id": 1, "cell_index": 0},
            {"type": "sweep_done", "mono": 2.5, "cells": 1},
        ]

    def test_chrome_trace_structure(self):
        document = to_chrome_trace(self._records(), run_id="run-7")
        summary = validate_chrome_trace(document)
        assert summary["spans"] == 1
        assert summary["instants"] == 2
        assert set(summary["tids"]) == {0, 1}
        span = [e for e in document["traceEvents"] if e["ph"] == "X"][0]
        assert span["name"] == "sweep.cell"
        assert span["tid"] == 1
        assert span["args"]["cell_index"] == 0
        assert span["dur"] == pytest.approx(5e5)
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"parent", "worker-1 (pid 100)"}
        assert document["otherData"]["run_id"] == "run-7"

    def test_trace_round_trips_json(self):
        document = to_chrome_trace(self._records())
        assert validate_chrome_trace(json.dumps(document))["events"] == 3

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": 1})
        with pytest.raises(ValueError, match="non-empty"):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        good = {"name": "x", "ph": "i", "s": "t", "ts": 5, "pid": 1, "tid": 0}
        backwards = dict(good, ts=1)
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace({"traceEvents": [good, backwards]})

    def test_flight_recorder_is_writer_shaped(self, tmp_path):
        recorder = FlightRecorder()
        recorder.emit("span", name="x", duration_us=1.0)
        recorder.emit("heartbeat", worker_id=2, mono=123.0)
        assert recorder.records[1]["mono"] == 123.0  # relayed stamp kept
        path = tmp_path / "stream.jsonl"
        count = recorder.dump_jsonl(path, extra=[{"type": "run_metrics"}])
        assert count == 3
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1]) == {"type": "run_metrics"}


class TestSweepRelayParity:
    """Telemetry is observational: grids stay bit-identical at any jobs."""

    @pytest.fixture(scope="class")
    def cache(self):
        from repro.sweep import TraceCache

        cache = TraceCache(droidbench=TraceCache().droidbench_runs()[:6])
        cache.prime_replay_state()
        return cache

    def _sweep(self, cache, jobs, telemetry=None):
        from repro.sweep import GridSpec, run_sweep

        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2, 3),
                        rates=(0.0,), seed=3)
        return run_sweep(spec, cache=cache, jobs=jobs, telemetry=telemetry)

    @staticmethod
    def _cell_spans(recorder):
        return [r for r in recorder.records
                if r["type"] == "span" and r["name"] == "sweep.cell"]

    def test_grid_and_span_set_parity_serial_vs_parallel(self, cache):
        serial_recorder = FlightRecorder()
        parallel_recorder = FlightRecorder()
        plain = self._sweep(cache, jobs=1)
        serial = self._sweep(
            cache, jobs=1, telemetry=Telemetry(writer=serial_recorder)
        )
        parallel = self._sweep(
            cache, jobs=4, telemetry=Telemetry(writer=parallel_recorder)
        )
        # Bit-identical grids: telemetry off == on, jobs=1 == jobs=4.
        documents = [
            json.dumps(result.as_dict(), sort_keys=True)
            for result in (plain, serial, parallel)
        ]
        assert documents[0] == documents[1] == documents[2]
        # Same per-cell span set, order-independent.
        serial_spans = self._cell_spans(serial_recorder)
        parallel_spans = self._cell_spans(parallel_recorder)
        key = lambda span: (span["cell_index"], span["ni"], span["nt"])
        assert sorted(key(s) for s in serial_spans) == sorted(
            key(s) for s in parallel_spans
        )
        assert len(parallel_spans) == 4
        # The relayed spans actually came from dispatcher workers.
        workers = {span["worker_id"] for span in parallel_spans}
        assert workers and 0 not in workers
        assert len(workers) >= 2

    def test_parallel_metrics_match_serial_totals(self, cache):
        serial_hub = Telemetry()
        parallel_hub = Telemetry()
        self._sweep(cache, jobs=1, telemetry=serial_hub)
        self._sweep(cache, jobs=4, telemetry=parallel_hub)
        for name in ("tracker.events", "tracker.loads", "tracker.stores",
                     "sweep.cells", "sweep.events_tracked"):
            assert (
                parallel_hub.metrics.get(name).value
                == serial_hub.metrics.get(name).value
            ), name
        serial_spans = serial_hub.metrics.get("span.sweep.cell")
        parallel_spans = parallel_hub.metrics.get("span.sweep.cell")
        assert serial_spans.count == parallel_spans.count == 4

    def test_per_worker_duration_series(self, cache):
        hub = Telemetry()
        result = self._sweep(cache, jobs=1, telemetry=hub)
        aggregate = hub.metrics.get("sweep.cell.duration_seconds")
        assert aggregate.count == 4
        pid = str(result.cells[0].worker)
        labelled = hub.metrics.get(
            "sweep.cell.duration_seconds", {"worker_id": pid}
        )
        assert labelled is not None
        assert labelled.count == 4  # serial: one worker did everything


class TestRunReport:
    def test_report_joins_journal_and_stream(self, tmp_path):
        from repro.analysis.report import build_run_report, render_run_report
        from repro.sweep import GridSpec, TraceCache, run_sweep
        from repro.store import RunJournal

        cache = TraceCache(droidbench=TraceCache().droidbench_runs()[:4])
        cache.prime_replay_state()
        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2,))
        cells = list(spec.cells())
        journal = RunJournal.create(tmp_path / "run-0.jsonl", cells, "run-0")
        recorder = FlightRecorder()
        telemetry = Telemetry(writer=recorder)
        run_sweep(cells, cache=cache, jobs=2, telemetry=telemetry,
                  journal=journal)

        records = list(recorder.records) + [
            {"type": "run_metrics", "metrics": telemetry.snapshot()}
        ]
        report = build_run_report(journal, records, slowest=1)
        assert report["run_id"] == "run-0"
        assert report["cells_completed"] == 2
        assert report["wall_seconds"] > 0
        assert len(report["per_cell"]) == 2
        assert len(report["slowest_cells"]) == 1
        assert sum(w["cells"] for w in report["per_worker"].values()) == 2
        for worker in report["per_worker"].values():
            assert 0 < worker["utilization"] <= 1.0
        assert report["telemetry"]["cell_spans"] == 2

        text = render_run_report(report)
        assert "run run-0" in text
        assert "per-worker:" in text
        assert "slowest cells:" in text

    def test_report_surfaces_poison_and_retries(self, tmp_path):
        from repro.analysis.report import build_run_report, render_run_report
        from repro.sweep import GridSpec
        from repro.store import RunJournal

        spec = GridSpec(window_sizes=(5, 13), propagation_caps=(2,))
        cells = list(spec.cells())
        journal = RunJournal.create(tmp_path / "run-2.jsonl", cells, "run-2")
        journal.append_attempt(0, attempt=1, reason="lost")
        journal.append_attempt(0, attempt=2, reason="lost")
        journal.append_poison(0, attempts=3, error="RuntimeError: boom")

        report = build_run_report(journal)
        assert report["cells_poisoned"] == 1
        assert report["poisoned"] == [
            {"index": 0, "attempts": 3, "error": "RuntimeError: boom"}
        ]
        assert report["retried_cells"] == {"0": 2}

        text = render_run_report(report)
        assert "(1 poisoned)" in text
        assert "poisoned: cell 0 after 3 attempts (RuntimeError: boom)" in text
        assert "retries: 2 across cells 0" in text

    def test_report_without_telemetry_stream(self, tmp_path):
        from repro.analysis.report import build_run_report
        from repro.sweep import GridSpec, TraceCache, run_sweep
        from repro.store import RunJournal

        cache = TraceCache(droidbench=TraceCache().droidbench_runs()[:4])
        spec = GridSpec(window_sizes=(5,), propagation_caps=(2,))
        cells = list(spec.cells())
        journal = RunJournal.create(tmp_path / "run-1.jsonl", cells, "run-1")
        run_sweep(cells, cache=cache, journal=journal)
        report = build_run_report(journal)
        assert report["wall_seconds"] is None
        assert report["telemetry"] is None
        assert report["per_worker"]
