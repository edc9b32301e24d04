"""Tests for the cross-process telemetry relay and the flight recorder.

Covers the wire format (metric deltas and merging), the worker-side
client's never-block/drop-count contract under a deliberately tiny
queue, the stall detector against a fake clock, Chrome trace export and
validation, and the headline parity guarantee: a telemetered ``jobs=4``
sweep yields the same grid bytes and the same per-cell span *set* as
``jobs=1``.
"""

import json
import multiprocessing
import queue as queue_module

import pytest

from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    StallDetector,
    Telemetry,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.relay import (
    RelayClient,
    RelayWriter,
    TelemetryRelay,
    init_worker_telemetry,
    merge_wire,
    registry_wire_delta,
)


def _context():
    method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    return multiprocessing.get_context(method)


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


class TestRelayClient:
    def test_batches_until_max_batch(self):
        channel = queue_module.Queue()
        client = RelayClient(channel, worker_id=1, max_batch=3)
        client.emit_record({"type": "span"})
        client.emit_record({"type": "span"})
        assert channel.empty()
        client.emit_record({"type": "span"})
        message = channel.get_nowait()
        assert message["kind"] == "events"
        assert len(message["events"]) == 3
        assert message["worker_id"] == 1

    def test_full_queue_drops_and_counts_instead_of_blocking(self):
        channel = queue_module.Queue(maxsize=1)
        channel.put_nowait({"kind": "occupied"})  # jam the queue
        client = RelayClient(channel, worker_id=2, max_batch=2)
        for _ in range(6):
            client.emit_record({"type": "span"})
        assert client.dropped_events == 6
        assert client.dropped_messages == 3
        assert client.sent_messages == 0
        # The cumulative drop count rides every later message.
        channel.get_nowait()  # unjam
        client.heartbeat()
        assert channel.get_nowait()["dropped"] == 6

    def test_snapshot_flushes_pending_events_first(self):
        channel = queue_module.Queue()
        client = RelayClient(channel, worker_id=1, max_batch=64)
        registry = MetricsRegistry()
        registry.counter("tracker.events").inc(4)
        client.emit_record({"type": "span"})
        client.ship_snapshot(registry, cell_index=7)
        first = channel.get_nowait()
        second = channel.get_nowait()
        assert first["kind"] == "events"
        assert second["kind"] == "snapshot"
        assert second["cell_index"] == 7
        assert second["metrics"]["tracker.events"]["inc"] == 4

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            RelayClient(queue_module.Queue(), worker_id=1, max_batch=0)


class TestRelayWriter:
    def test_ships_only_whitelisted_types(self):
        channel = queue_module.Queue()
        client = RelayClient(channel, worker_id=1, max_batch=1)
        writer = RelayWriter(client)
        writer.emit("taint", index=1)  # per-mutation noise: filtered
        writer.emit("cpu_batch", n=64)
        assert channel.empty()
        writer.emit("span", name="sweep.cell", duration_us=5.0)
        message = channel.get_nowait()
        assert [event["type"] for event in message["events"]] == ["span"]

    def test_stamps_worker_and_current_cell(self):
        channel = queue_module.Queue()
        client = RelayClient(channel, worker_id=4, max_batch=1)
        client.current_cell = 11
        writer = RelayWriter(client)
        writer.emit("span", name="sweep.cell")
        record = channel.get_nowait()["events"][0]
        assert record["worker_id"] == 4
        assert record["cell_index"] == 11
        assert record["mono"] > 0


class TestStallDetector:
    def test_quiet_worker_with_active_cell_stalls_once(self):
        detector = StallDetector(timeout=1.0)
        detector.note(1, now=0.0, cell_index=5)
        assert detector.check(now=0.5) == []
        assert detector.check(now=2.0) == [(1, 5, 2.0)]
        # Still quiet: not re-reported until it recovers.
        assert detector.check(now=3.0) == []

    def test_idle_worker_never_stalls(self):
        detector = StallDetector(timeout=1.0)
        detector.note(1, now=0.0, cell_index=None)
        assert detector.check(now=10.0) == []

    def test_recovery_rearms(self):
        detector = StallDetector(timeout=1.0)
        detector.note(1, now=0.0, cell_index=5)
        assert detector.check(now=2.0)
        assert detector.note(1, now=2.1, cell_index=6) is True  # recovered
        assert detector.check(now=2.5) == []
        assert detector.check(now=4.0) == [(1, 6, pytest.approx(1.9))]

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            StallDetector(timeout=0)


class TestTelemetryRelayHandle:
    """Parent-side message handling, driven directly (no drain thread)."""

    def _relay(self, **kwargs):
        recorder = FlightRecorder()
        telemetry = Telemetry(writer=recorder)
        relay = TelemetryRelay(telemetry, _context(), **kwargs)
        return relay, telemetry, recorder

    def test_events_re_emit_into_parent_hub(self):
        relay, _, recorder = self._relay()
        relay._handle(
            {
                "kind": "events",
                "worker_id": 2,
                "pid": 4242,
                "dropped": 0,
                "events": [
                    {"type": "span", "name": "sweep.cell", "worker_id": 2,
                     "cell_index": 3, "mono": 1.0, "duration_us": 9.0},
                ],
            }
        )
        assert relay.events_merged == 1
        record = recorder.records[-1]
        assert record["type"] == "span"
        assert record["cell_index"] == 3
        assert record["pid"] == 4242

    def test_snapshot_merges_metrics(self):
        relay, telemetry, _ = self._relay()
        worker = MetricsRegistry()
        worker.counter("tracker.events").inc(8)
        relay._handle(
            {
                "kind": "snapshot", "worker_id": 1, "pid": 1, "dropped": 0,
                "cell_index": 0,
                "metrics": registry_wire_delta(worker, {}),
            }
        )
        assert telemetry.metrics.get("tracker.events").value == 8

    def test_stop_publishes_relay_accounting(self):
        relay, telemetry, recorder = self._relay()
        relay._handle(
            {"kind": "heartbeat", "worker_id": 1, "pid": 10, "dropped": 4,
             "cell_index": None, "mono": 0.0}
        )
        relay.stop()
        metrics = telemetry.metrics
        assert metrics.get("sweep.relay.heartbeats").value == 1
        assert metrics.get("sweep.relay.dropped_events").value == 4
        summary = [r for r in recorder.records
                   if r["type"] == "relay_summary"][-1]
        assert summary["dropped_events"] == 4
        assert summary["workers"] == 1

    def test_on_heartbeat_hook_receives_the_pid(self):
        """The dispatcher renews leases off relay heartbeats."""
        beats = []
        relay, _, _ = self._relay(on_heartbeat=beats.append)
        relay._handle(
            {"kind": "heartbeat", "worker_id": 1, "pid": 777,
             "dropped": 0, "cell_index": 2, "mono": 0.0}
        )
        relay._handle(
            {"kind": "events", "worker_id": 1, "pid": 777, "dropped": 0,
             "events": []}
        )
        assert beats == [777]  # only heartbeats renew, not event batches

    def test_stall_counter_is_sweep_worker_stalls(self):
        import time

        relay, telemetry, _ = self._relay(stall_timeout=0.001)
        relay._handle(
            {"kind": "heartbeat", "worker_id": 1, "pid": 10,
             "dropped": 0, "cell_index": 3, "mono": 0.0}
        )
        time.sleep(0.01)
        relay._check_stalls()
        assert telemetry.metrics.get("sweep.worker.stalls").value == 1

    def test_dropped_counts_keep_high_water_per_worker(self):
        relay, _, _ = self._relay()
        for dropped in (5, 3):  # late message with a stale lower count
            relay._handle(
                {"kind": "heartbeat", "worker_id": 1, "pid": 1,
                 "dropped": dropped, "cell_index": None, "mono": 0.0}
            )
        assert relay.dropped == {1: 5}


class TestWorkerBootstrap:
    def test_worker_ids_are_sequential_and_hub_ships_spans(self):
        relay = TelemetryRelay(
            Telemetry(writer=FlightRecorder()), _context(),
            heartbeat_interval=0,  # no daemon thread in-process
        )
        payload = relay.worker_payload()
        first = init_worker_telemetry(payload)
        second = init_worker_telemetry(payload)
        assert first.relay_client.worker_id == 1
        assert second.relay_client.worker_id == 2
        with first.span("sweep.cell", cell_index=0):
            pass
        first.writer.flush()
        kinds = []
        for _ in range(4):
            try:
                kinds.append(relay.queue.get(timeout=2.0)["kind"])
            except queue_module.Empty:
                break
        assert "events" in kinds  # worker_start + the span shipped
        assert "heartbeat" in kinds


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
        assert report["telemetry"]["dropped_events"] == 0

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
