"""Tests for repro.sweep.dispatch: the lease dispatcher.

Process-level coverage of the dispatcher every ``jobs > 1`` sweep runs
on — fault-free parity with the inline path, chaos-driven worker deaths
(grids and telemetry stay exact), stalls read off leases,
retry-then-poison quarantine, journal integration, and interrupt/resume
semantics.  The pure lease bookkeeping is covered in ``test_leases.py``.
"""

import json

import pytest

from repro.sweep import (
    BackoffPolicy,
    ChaosPlan,
    DispatchError,
    GridSpec,
    QueueBackend,
    TraceCache,
    run_sweep,
)

#: Small real grid: 8 cells over a 6-app slice of the suite.
SPEC = GridSpec(window_sizes=(5, 13), propagation_caps=(2, 3),
                rates=(0.0, 0.02), seed=3)

#: Snappy failure handling so chaos tests run in seconds.
FAST = {
    "lease_timeout": 5.0,
    "heartbeat_interval": 0.05,
    "backoff": BackoffPolicy(base=0.02, cap=0.2, seed=0),
}


def digest(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


class TestQueueBackend:
    @pytest.fixture(scope="class")
    def cache(self):
        cache = TraceCache(droidbench=TraceCache().droidbench_runs()[:6])
        cache.prime_replay_state()
        return cache

    @pytest.fixture(scope="class")
    def serial(self, cache):
        return run_sweep(SPEC, cache=cache, jobs=1)

    def test_fault_free_parity_with_serial(self, cache, serial):
        queued = run_sweep(SPEC, cache=cache, jobs=2,
                           backend_options=dict(FAST))
        assert digest(queued) == digest(serial)
        assert queued.worker_deaths == 0
        assert queued.retries == 0
        assert queued.poisoned == []
        workers = {cell.worker for cell in queued.cells}
        assert len(workers) > 1  # it actually fanned out

    def test_chaos_kills_leave_grid_bit_identical(self, cache, serial):
        chaos = ChaosPlan.parse("kill-workers:0.3", seed=7)
        survived = run_sweep(SPEC, cache=cache, jobs=3,
                             backend_options={**FAST, "chaos": chaos})
        assert digest(survived) == digest(serial)
        assert survived.worker_deaths > 0  # the schedule really killed
        assert survived.retries > 0
        assert survived.poisoned == []

    def test_chaos_kills_keep_telemetry_exact(self, cache):
        """Telemetry rides completed results only: a killed attempt
        merges nothing and its requeued cell merges once, so spans and
        tracker totals match the inline run's exactly."""
        from repro.telemetry import FlightRecorder, Telemetry

        chaos = ChaosPlan.parse("kill-workers:0.3", seed=7)
        serial_hub = Telemetry(writer=FlightRecorder())
        run_sweep(SPEC, cache=cache, jobs=1, telemetry=serial_hub)
        parallel_hub = Telemetry(writer=FlightRecorder())
        survived = run_sweep(SPEC, cache=cache, jobs=3,
                             telemetry=parallel_hub,
                             backend_options={**FAST, "chaos": chaos})
        assert survived.worker_deaths > 0

        def cell_spans(hub):
            return sorted(
                (record["cell_index"], record["ni"], record["nt"],
                 record["rate"])
                for record in hub.writer.records
                if record["type"] == "span" and record["name"] == "sweep.cell"
            )

        assert cell_spans(parallel_hub) == cell_spans(serial_hub)
        assert len(cell_spans(serial_hub)) == len(SPEC)
        for name in ("tracker.events", "tracker.loads", "tracker.stores"):
            assert (
                parallel_hub.metrics.get(name).value
                == serial_hub.metrics.get(name).value
            ), name

    def test_chaos_hang_expires_lease_and_recovers(self, cache, serial):
        chaos = ChaosPlan.parse("hang-workers:0.25", seed=11)
        stalls = []
        survived = run_sweep(
            SPEC, cache=cache, jobs=2,
            stall_timeout=0.2,
            on_stall=lambda worker, cell, quiet: stalls.append(cell),
            backend_options={**FAST, "lease_timeout": 0.5, "chaos": chaos},
        )
        assert digest(survived) == digest(serial)
        assert survived.worker_deaths > 0  # frozen holders were killed
        # Each frozen first attempt goes quiet past the stall timeout
        # before its lease expires, and is reported without a hub.
        frozen = {
            cell.index for cell in SPEC.cells()
            if chaos.decision(cell.index, 1) == "hang"
        }
        assert frozen and frozen <= set(stalls)

    def test_failing_cells_are_poisoned_not_fatal(self, cache, serial):
        chaos = ChaosPlan.parse("fail-cells:1.0", seed=7)
        result = run_sweep(
            SPEC, cache=cache, jobs=2,
            backend_options={**FAST, "max_retries": 1, "chaos": chaos},
        )
        assert result.cells == []
        assert len(result.poisoned) == len(SPEC)
        assert result.retries == len(SPEC)  # one retry each, then poison
        for cell in result.poisoned:
            assert cell["attempts"] == 2
            assert "ChaosFailure" in cell["error"]
        assert result.as_dict()["poisoned"] == result.poisoned

    def test_partial_failure_leaves_explicit_hole(self, cache, serial):
        # fail-cells at 60% with a zero retry budget: some cells poison,
        # the survivors still match the serial run at their indexes.
        chaos = ChaosPlan.parse("fail-cells:0.6", seed=5)
        result = run_sweep(
            SPEC, cache=cache, jobs=2,
            backend_options={**FAST, "max_retries": 0, "chaos": chaos},
        )
        assert 0 < len(result.poisoned) < len(SPEC)
        assert len(result.cells) + len(result.poisoned) == len(SPEC)
        by_index = {cell.index: cell for cell in serial.cells}
        for cell in result.cells:
            assert cell.as_dict() == by_index[cell.index].as_dict()

    def test_out_of_workers_raises_dispatch_error(self, cache):
        chaos = ChaosPlan.parse("kill-workers:1.0", seed=3)
        with pytest.raises(DispatchError, match="out of workers"):
            run_sweep(
                SPEC, cache=cache, jobs=2,
                backend_options={
                    **FAST, "max_worker_restarts": 1, "chaos": chaos,
                },
            )

    def test_queue_backend_serial_jobs(self, cache):
        # jobs=1 runs inline, with no dispatcher: a dispatcher option
        # there would do nothing, so it is refused rather than dropped.
        chaos = ChaosPlan.parse("kill-workers:1.0", seed=3)
        for options in ({"lease_timeout": 1.0}, {"chaos": chaos}):
            with pytest.raises(ValueError, match="jobs > 1"):
                run_sweep(SPEC, cache=cache, jobs=1, backend_options=options)
        # Stalls are read off the dispatcher's leases: none exist inline.
        with pytest.raises(ValueError, match="jobs > 1"):
            run_sweep(SPEC, cache=cache, jobs=1, stall_timeout=1.0)

    def test_stall_timeout_must_be_positive(self):
        for timeout in (0, -1.0):
            with pytest.raises(ValueError, match="stall_timeout"):
                QueueBackend(jobs=2, stall_timeout=timeout)

    def test_reused_backend_starts_from_no_workers(self, cache, serial):
        # A second run must not send cells to the first run's stopped
        # workers (which read as deaths and retries that never happened).
        backend = QueueBackend(jobs=2, **FAST)
        for _ in range(2):
            results = {}
            stats = backend.run(
                list(SPEC.cells()), cache.payload(),
                lambda result: results.setdefault(result.index, result),
            )
            assert stats is backend.stats
            assert (stats.worker_deaths, stats.retries,
                    stats.worker_restarts, stats.poisoned) == (0, 0, 0, [])
            assert [results[i].as_dict() for i in sorted(results)] == [
                cell.as_dict() for cell in serial.cells
            ]


class TestJournalIntegration:
    @pytest.fixture(scope="class")
    def cache(self):
        cache = TraceCache(droidbench=TraceCache().droidbench_runs()[:6])
        cache.prime_replay_state()
        return cache

    def _journal(self, tmp_path, cells):
        from repro.store import RunJournal

        return RunJournal.create(tmp_path / "run.jsonl", cells, "test-run")

    def test_poison_and_attempts_are_journaled(self, cache, tmp_path):
        from repro.store import RunJournal

        cells = list(SPEC.cells())
        journal = self._journal(tmp_path, cells)
        chaos = ChaosPlan.parse("fail-cells:0.6", seed=5)
        result = run_sweep(
            SPEC, cache=cache, jobs=2, journal=journal,
            backend_options={**FAST, "max_retries": 1, "chaos": chaos},
        )
        reloaded = RunJournal.load(tmp_path / "run.jsonl")
        assert set(reloaded.poisoned) == {
            cell["index"] for cell in result.poisoned
        }
        assert len(reloaded.completed) == len(result.cells)
        assert sum(len(v) for v in reloaded.attempts.values()) == (
            result.retries
        )
        rows = reloaded.poison_rows()
        assert [row["index"] for row in rows] == sorted(reloaded.poisoned)

    def test_resume_cures_poisoned_cells(self, cache, tmp_path):
        from repro.store import RunJournal

        cells = list(SPEC.cells())
        journal = self._journal(tmp_path, cells)
        chaos = ChaosPlan.parse("fail-cells:0.6", seed=5)
        first = run_sweep(
            SPEC, cache=cache, jobs=2, journal=journal,
            backend_options={**FAST, "max_retries": 0, "chaos": chaos},
        )
        assert first.poisoned  # some cells were quarantined
        # Resume without chaos: the poisoned cells re-run and complete.
        resumed_journal = RunJournal.load(tmp_path / "run.jsonl")
        second = run_sweep(
            SPEC, cache=cache, jobs=2, journal=resumed_journal,
            backend_options=dict(FAST),
        )
        serial = run_sweep(SPEC, cache=cache, jobs=1)
        assert digest(second) == digest(serial)
        assert second.resumed == len(first.cells)
        cured = RunJournal.load(tmp_path / "run.jsonl")
        assert cured.poisoned == {}  # completed wins over poison records

    def test_interrupt_mid_grid_leaves_journal_resumable(self, cache, tmp_path):
        from repro.store import RunJournal

        cells = list(SPEC.cells())
        journal = self._journal(tmp_path, cells)

        done = []

        def interrupt(result, finished, total):
            done.append(result.index)
            if len(done) == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(SPEC, cache=cache, jobs=2, journal=journal,
                      progress=interrupt, backend_options=dict(FAST))

        # Every cell reported before the interrupt is checkpointed, and
        # the resumed run is bit-identical to an uninterrupted one.
        reloaded = RunJournal.load(tmp_path / "run.jsonl")
        assert set(reloaded.completed) == set(done)
        resumed = run_sweep(SPEC, cache=cache, jobs=2, journal=reloaded,
                            backend_options=dict(FAST))
        assert resumed.resumed == len(done)
        serial = run_sweep(SPEC, cache=cache, jobs=1)
        assert digest(resumed) == digest(serial)

class TestTelemetryIntegration:
    @pytest.fixture(scope="class")
    def cache(self):
        cache = TraceCache(droidbench=TraceCache().droidbench_runs()[:6])
        cache.prime_replay_state()
        return cache

    def test_fault_metrics_and_events_are_emitted(self, cache):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        events = []

        class _Writer:
            def emit(self, event_type, **fields):
                events.append(event_type)

            def flush(self):
                pass

            def close(self):
                pass

        telemetry.writer = _Writer()
        chaos = ChaosPlan.parse("fail-cells:0.6", seed=5)
        result = run_sweep(
            SPEC, cache=cache, jobs=2, telemetry=telemetry,
            backend_options={**FAST, "max_retries": 1, "chaos": chaos},
        )
        assert result.retries > 0 and result.poisoned
        metrics = telemetry.metrics
        assert metrics.get("sweep.cell.retries").value == result.retries
        assert metrics.get("sweep.cells.poisoned").value == len(
            result.poisoned
        )
        assert "sweep_cell_retry" in events
        assert "sweep_cell_poisoned" in events

    def test_fault_free_run_creates_no_fault_metrics(self, cache):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        result = run_sweep(SPEC, cache=cache, jobs=2, telemetry=telemetry,
                           backend_options=dict(FAST))
        assert result.worker_deaths == 0
        # Lazy counters: a clean run exposes the same metric families as
        # an inline one.
        assert telemetry.metrics.get("sweep.cell.retries") is None
        assert telemetry.metrics.get("sweep.worker.deaths") is None

    def test_heartbeats_renew_leases_with_telemetry_on(self, cache):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        # Lease TTL far below the cell runtime ceiling but the workers'
        # pipe heartbeats (every 50ms) keep every lease alive: no
        # deaths, no retries, clean parity.
        result = run_sweep(
            SPEC, cache=cache, jobs=2, telemetry=telemetry,
            backend_options={**FAST, "lease_timeout": 1.0},
        )
        assert result.worker_deaths == 0
        assert result.retries == 0
        assert telemetry.metrics.get("sweep.relay.heartbeats").value > 0
        assert telemetry.metrics.get("sweep.relay.events_merged").value > 0

    def test_stalls_are_counted_and_logged_with_a_hub(self, cache):
        from repro.telemetry import FlightRecorder, Telemetry

        recorder = FlightRecorder()
        telemetry = Telemetry(writer=recorder)
        stalls = []
        # A timeout far below the heartbeat interval: every leased
        # worker goes quiet past it at least once.
        run_sweep(
            SPEC, cache=cache, jobs=2, telemetry=telemetry,
            stall_timeout=0.001,
            on_stall=lambda *stall: stalls.append(stall),
            backend_options=dict(FAST),
        )
        events = [r for r in recorder.records if r["type"] == "worker_stall"]
        assert stalls and len(events) == len(stalls)
        assert telemetry.metrics.get("sweep.worker.stalls").value == len(
            stalls
        )
        for event, (worker_id, cell_index, quiet) in zip(events, stalls):
            assert event["worker_id"] == worker_id
            assert worker_id in (1, 2)
            assert event["cell_index"] == cell_index
            assert event["pid"] is not None
            assert quiet > 0.001
