"""Unit tests for deterministic fault injection, overflow policies,
degraded-confidence answers, and checkpoint/restore."""

import json

import pytest

from repro.core import (
    AddressRange,
    BufferConfig,
    BufferedPIFT,
    FaultPlan,
    FaultRates,
    OverflowPolicy,
    PIFTConfig,
    PIFTHardwareModule,
    load,
    parse_fault_spec,
    store,
)
from repro.core.taint_storage import BoundedRangeCache, EvictionPolicy
from repro.core.tracker import PIFTTracker

IMEI = AddressRange(0x1000, 0x100F)
CONFIG = PIFTConfig(5, 2)


def leaky_workload(n=200):
    """A stream with a tainted load + store pair per iteration."""
    events = []
    for i in range(n):
        events.append(load(0x1000, 0x1003, 3 * i))
        events.append(store(0x5000 + 4 * i, 0x5003 + 4 * i, 3 * i + 1))
    return events


class TestFaultSpec:
    def test_empty_spec_is_fault_free(self):
        rates = parse_fault_spec("")
        assert not rates.any_active
        assert not FaultPlan(seed=9, rates=rates).enabled

    def test_round_trip_keys(self):
        rates = parse_fault_spec(
            "loss=1e-3,dup=2e-4,reorder=0.01,window=8,corrupt=1e-5,"
            "bits=16,drop=1e-4,storm=1e-6,storm_size=4,stall=0.5,"
            "stall_cycles=300"
        )
        assert rates.event_loss == 1e-3
        assert rates.event_duplication == 2e-4
        assert rates.reorder_window == 8
        assert rates.corrupt_bits == 16
        assert rates.stall_cycles == 300
        assert rates.any_active

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            parse_fault_spec("flip=0.1")

    def test_rejects_bad_item(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_fault_spec("loss")

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            FaultRates(event_loss=1.5)
        with pytest.raises(ValueError):
            FaultRates(reorder_window=0)

    def test_with_rates_returns_new_plan(self):
        plan = FaultPlan(seed=3)
        lossy = plan.with_rates(event_loss=0.5)
        assert not plan.enabled
        assert lossy.enabled and lossy.seed == 3

    def test_as_dict_is_json_compatible(self):
        plan = FaultPlan.from_spec("loss=0.1", seed=2)
        assert json.loads(json.dumps(plan.as_dict()))["seed"] == 2


class TestInjectorDeterminism:
    def deliveries(self, plan, n=500):
        injector = plan.injector()
        out = []
        for event in leaky_workload(n):
            out.extend(injector.feed(event))
        out.extend(injector.flush())
        return out, injector.stats

    def test_same_seed_same_stream(self):
        plan = FaultPlan(seed=11, rates=FaultRates(
            event_loss=0.02, event_duplication=0.02, event_reorder=0.02,
            address_corruption=0.02,
        ))
        first, stats1 = self.deliveries(plan)
        second, stats2 = self.deliveries(plan)
        assert first == second
        assert stats1.as_dict() == stats2.as_dict()
        assert stats1.total_injections > 0

    def test_different_seed_different_stream(self):
        rates = FaultRates(event_loss=0.05)
        a, _ = self.deliveries(FaultPlan(seed=1, rates=rates))
        b, _ = self.deliveries(FaultPlan(seed=2, rates=rates))
        assert a != b

    def test_loss_is_nested_across_rates(self):
        """Common-random-numbers coupling: events lost at a low rate are a
        subset of those lost at a higher rate (same seed)."""
        events = leaky_workload(400)

        def survivors(rate):
            injector = FaultPlan(
                seed=5, rates=FaultRates(event_loss=rate)
            ).injector()
            kept = []
            for event in events:
                kept.extend(injector.feed(event))
            return {e.instruction_index for e in kept}

        low, high = survivors(0.01), survivors(0.2)
        # Higher rate keeps strictly fewer events, and everything it kept
        # also survived the lower rate.
        assert high < low

    def test_zero_rate_plan_is_identity(self):
        events = leaky_workload(100)
        injector = FaultPlan(seed=77).injector()
        out = []
        for event in events:
            out.extend(injector.feed(event))
        assert out == events
        assert injector.flush() == []
        assert injector.stats.total_injections == 0

    def test_duplication_delivers_twice(self):
        out, stats = self.deliveries(
            FaultPlan(seed=1, rates=FaultRates(event_duplication=0.2)), n=300
        )
        assert stats.events_duplicated > 0
        assert len(out) == 600 + stats.events_duplicated

    def test_corruption_preserves_size(self):
        events = leaky_workload(300)
        injector = FaultPlan(
            seed=1, rates=FaultRates(address_corruption=0.2)
        ).injector()
        out = []
        for event in events:
            out.extend(injector.feed(event))
        assert injector.stats.addresses_corrupted > 0
        by_index = {e.instruction_index: e for e in events}
        changed = [
            e for e in out if e.address_range != by_index[e.instruction_index].address_range
        ]
        assert len(changed) == injector.stats.addresses_corrupted
        for event in changed:
            original = by_index[event.instruction_index]
            assert event.address_range.size == original.address_range.size
            # Exactly one low address bit differs.
            flipped = event.address_range.start ^ original.address_range.start
            assert flipped and (flipped & (flipped - 1)) == 0

    def test_reorder_is_bounded_and_lossless(self):
        events = leaky_workload(300)
        injector = FaultPlan(
            seed=1, rates=FaultRates(event_reorder=0.1, reorder_window=4)
        ).injector()
        out = []
        for event in events:
            out.extend(injector.feed(event))
        out.extend(injector.flush())
        assert injector.stats.events_reordered > 0
        # Lossless: every event is delivered exactly once.
        assert sorted(e.instruction_index for e in out) == [
            e.instruction_index for e in events
        ]

    def test_state_drop_removes_a_range(self):
        tracker = PIFTTracker(CONFIG)
        tracker.taint_source(IMEI)
        tracker.taint_source(AddressRange(0x2000, 0x200F))
        injector = FaultPlan(
            seed=1, rates=FaultRates(state_drop=1.0)
        ).injector()
        before = tracker.range_count
        injector.state_faults(tracker, pid=0)
        assert tracker.range_count == before - 1
        assert injector.stats.state_entries_dropped == 1

    def test_storm_and_stall_hit_bounded_storage(self):
        tracker = PIFTTracker(
            CONFIG, state_factory=lambda: BoundedRangeCache(8)
        )
        for i in range(8):
            tracker.taint_source(AddressRange(0x1000 + 0x100 * i,
                                              0x100F + 0x100 * i))
        injector = FaultPlan(
            seed=1,
            rates=FaultRates(eviction_storm=1.0, storm_size=4,
                             storage_stall=1.0, stall_cycles=250),
        ).injector()
        injector.state_faults(tracker, pid=0)
        assert injector.stats.eviction_storms == 1
        assert injector.stats.stall_events == 1
        assert injector.stats.stall_cycles == 250
        state = tracker.state(0)
        assert state.stats.evictions >= 4


class TestParity:
    """A zero-rate plan — and no plan at all — must leave every stat and
    verdict byte-identical to the fault-free build."""

    def run_buffered(self, faults):
        buffered = BufferedPIFT(CONFIG, capacity=32, drain_batch=8,
                                faults=faults)
        buffered.taint_source(IMEI)
        for event in leaky_workload(150):
            buffered.on_memory_event(event)
        buffered.check_immediate(AddressRange(0x5000, 0x5003), sink_name="s")
        buffered.drain_all()
        return buffered

    def test_buffered_parity(self):
        plain = self.run_buffered(None)
        zero = self.run_buffered(FaultPlan(seed=123))
        assert plain.stats.as_dict() == zero.stats.as_dict()
        assert plain.tracker.stats.as_dict() == zero.tracker.stats.as_dict()
        assert plain.late_detections == zero.late_detections

    def test_hw_module_parity(self):
        def run(faults):
            hw = PIFTHardwareModule(CONFIG, faults=faults)
            hw.tracker.taint_source(IMEI)
            for event in leaky_workload(150):
                hw.on_memory_event(event)
            return hw

        plain, zero = run(None), run(FaultPlan(seed=9))
        assert plain.stats.as_dict() == zero.stats.as_dict()
        assert plain.fault_stats is None
        assert zero.fault_stats.total_injections == 0

    def test_suite_verdict_parity(self):
        """Zero-rate faulted replay reproduces the fault-free suite verdicts
        app for app at the paper's (13, 3) cell."""
        from repro.core import PAPER_DEFAULT
        from repro.apps.droidbench import all_apps, record_suite
        from repro.analysis.accuracy import evaluate_suite
        from repro.analysis.degradation import evaluate_suite_with_faults

        apps = record_suite(all_apps()[:8])
        baseline = evaluate_suite(apps, PAPER_DEFAULT)
        faulted, stats = evaluate_suite_with_faults(
            apps, PAPER_DEFAULT, FaultPlan(seed=42)
        )
        assert faulted.as_dict() == baseline.as_dict()
        assert stats.total_injections == 0


class TestOverflowPolicies:
    def fill(self, policy, n=100, **kwargs):
        buffered = BufferedPIFT(CONFIG, capacity=16, drain_batch=4,
                                policy=policy, **kwargs)
        buffered.taint_source(IMEI)
        for i in range(n):
            buffered.on_memory_event(store(0x5000 + i, 0x5000 + i, i))
        return buffered

    def test_block_never_drops(self):
        buffered = self.fill(OverflowPolicy.BLOCK)
        assert buffered.stats.forced_drops == 0
        assert buffered.stats.spilled_events == 0
        assert buffered.stats.drains >= 1
        assert not buffered.degraded

    def test_drop_oldest_counts_forced_drops(self):
        buffered = self.fill(OverflowPolicy.DROP_OLDEST)
        assert buffered.stats.forced_drops == 100 - 16
        assert buffered.queue_depth == 16
        assert buffered.degraded
        # The newest events survived.
        assert [p[3] for p in buffered.snapshot()["queue"]] == list(range(84, 100))

    def test_drop_newest_counts_forced_drops(self):
        buffered = self.fill(OverflowPolicy.DROP_NEWEST)
        assert buffered.stats.forced_drops == 100 - 16
        assert buffered.degraded
        # The oldest events survived.
        assert [p[3] for p in buffered.snapshot()["queue"]] == list(range(16))

    def test_spill_loses_nothing(self):
        buffered = self.fill(OverflowPolicy.SPILL)
        assert buffered.stats.forced_drops == 0
        assert buffered.stats.spilled_events > 0
        assert buffered.queue_depth + buffered.spill_depth == 100
        assert not buffered.degraded
        drained = buffered.drain_all()
        assert drained == 100
        assert buffered.tracker.stats.stores_observed == 100

    def test_spill_drains_in_fifo_order(self):
        buffered = self.fill(OverflowPolicy.SPILL, n=40)
        seen = []
        original_observe = buffered.tracker.observe
        buffered.tracker.observe = lambda e: (
            seen.append(e.instruction_index), original_observe(e)
        )[1]
        buffered.drain_all()
        assert seen == sorted(seen)

    def test_block_stats_unchanged_from_seed_behaviour(self):
        """BLOCK with default watermarks reproduces the historical
        drain-on-full accounting exactly."""
        buffered = BufferedPIFT(CONFIG, capacity=4, drain_batch=2)
        buffered.taint_source(IMEI)
        for index in range(12):
            buffered.on_memory_event(load(0x8000, 0x8003, index))
        assert buffered.queue_depth < 12
        assert buffered.stats.max_queue_depth <= 4
        assert buffered.stats.forced_drops == 0

    def test_from_config_builder(self):
        buffer_config = BufferConfig(capacity=8, drain_batch=2,
                                     policy=OverflowPolicy.DROP_NEWEST,
                                     high_watermark=6, low_watermark=2)
        buffered = BufferedPIFT.from_config(CONFIG, buffer_config)
        assert buffered.capacity == 8
        assert buffered.policy is OverflowPolicy.DROP_NEWEST

    def test_buffer_config_validation(self):
        with pytest.raises(ValueError):
            BufferConfig(capacity=0)
        with pytest.raises(ValueError):
            BufferConfig(high_watermark=2000)
        with pytest.raises(ValueError):
            BufferConfig(high_watermark=10, low_watermark=10)
        with pytest.raises(ValueError):
            BufferedPIFT(CONFIG, capacity=8, high_watermark=9)


class TestBackpressure:
    def test_watermark_hysteresis(self):
        buffered = BufferedPIFT(CONFIG, capacity=16, drain_batch=4,
                                policy=OverflowPolicy.DROP_OLDEST,
                                high_watermark=8, low_watermark=2)
        buffered.taint_source(IMEI)
        for i in range(8):
            buffered.on_memory_event(store(0x5000, 0x5000, i))
        assert buffered.backpressure
        assert buffered.stats.backpressure_engagements == 1
        # Draining above the low watermark does not release.
        buffered.drain(4)
        assert buffered.backpressure
        buffered.drain_all()
        assert not buffered.backpressure
        # Re-engaging counts again.
        for i in range(8):
            buffered.on_memory_event(store(0x5000, 0x5000, 8 + i))
        assert buffered.stats.backpressure_engagements == 2


class TestIncrementalReconcile:
    def test_partial_drain_settles_covered_checks(self):
        """A pending immediate check settles as soon as the events that
        were in flight at answer time have drained — not only when the
        queue is fully empty."""
        buffered = BufferedPIFT(CONFIG, capacity=64, drain_batch=2)
        buffered.taint_source(IMEI)
        buffered.on_memory_event(load(0x1000, 0x1003, 0))
        buffered.on_memory_event(store(0x5000, 0x5003, 1))
        assert not buffered.check_immediate(
            AddressRange(0x5000, 0x5003), sink_name="sms"
        )
        # More traffic arrives after the check.
        for i in range(6):
            buffered.on_memory_event(load(0x8000, 0x8003, 10 + i))
        # Partial drain: exactly the two in-flight events retire.
        buffered.drain(2)
        assert buffered.queue_depth == 6
        assert buffered.stats.stale_negatives == 1
        (late,) = buffered.late_detections
        assert late.sink_name == "sms" and late.events_behind == 2
        assert not late.degraded

    def test_forced_drops_still_settle_pending_checks(self):
        """DROP_OLDEST retires events without draining them; the barrier
        accounting must still settle the pending check."""
        buffered = BufferedPIFT(CONFIG, capacity=4, drain_batch=2,
                                policy=OverflowPolicy.DROP_OLDEST)
        buffered.taint_source(IMEI)
        buffered.on_memory_event(load(0x1000, 0x1003, 0))
        buffered.on_memory_event(store(0x5000, 0x5003, 1))
        assert not buffered.check_immediate(
            AddressRange(0x5000, 0x5003), sink_name="sms"
        )
        # Overflow forces the two in-flight events out of the queue.
        for i in range(6):
            buffered.on_memory_event(load(0x8000, 0x8003, 10 + i))
        assert buffered.stats.forced_drops >= 2
        buffered.drain(1)
        # The check settled (its events were force-dropped, the tracker
        # never saw the store, so the answer stays clean) — no leak
        # report, but also no stuck pending entry.
        assert buffered._pending_immediate == []


class TestDegradedConfidence:
    def test_clean_verdict_flags_known_loss(self):
        buffered = BufferedPIFT(CONFIG, capacity=4, drain_batch=2,
                                policy=OverflowPolicy.DROP_OLDEST)
        buffered.taint_source(IMEI)
        for i in range(10):
            buffered.on_memory_event(store(0x5000 + i, 0x5000 + i, i))
        verdict = buffered.check_immediate_verdict(
            AddressRange(0x9000, 0x9003), sink_name="sms"
        )
        assert not verdict.tainted
        assert verdict.degraded
        assert verdict.forced_drops == buffered.stats.forced_drops > 0
        assert buffered.stats.degraded_checks == 1

    def test_fault_loss_also_degrades(self):
        plan = FaultPlan(seed=1, rates=FaultRates(event_loss=0.5))
        buffered = BufferedPIFT(CONFIG, capacity=64, faults=plan)
        buffered.taint_source(IMEI)
        for event in leaky_workload(50):
            buffered.on_memory_event(event)
        verdict = buffered.check_immediate_verdict(AddressRange(0x9000, 0x9003))
        assert verdict.degraded
        assert verdict.fault_drops > 0
        assert verdict.forced_drops == 0

    def test_undegraded_verdict_is_clean(self):
        buffered = BufferedPIFT(CONFIG, capacity=64)
        buffered.taint_source(IMEI)
        buffered.on_memory_event(load(0x1000, 0x1003, 0))
        verdict = buffered.check_immediate_verdict(AddressRange(0x9000, 0x9003))
        assert not verdict.degraded
        assert buffered.stats.degraded_checks == 0

    def test_late_detection_carries_degraded_flag(self):
        plan = FaultPlan(seed=1, rates=FaultRates(event_loss=0.3))
        buffered = BufferedPIFT(CONFIG, capacity=1024, faults=plan)
        buffered.taint_source(IMEI)
        for event in leaky_workload(100):
            buffered.on_memory_event(event)
        buffered.check_immediate(AddressRange(0x5000, 0x5003), sink_name="s")
        buffered.drain_all()
        if buffered.late_detections:
            assert all(late.degraded for late in buffered.late_detections)

    def test_blocking_check_counts_degraded(self):
        buffered = BufferedPIFT(CONFIG, capacity=4, drain_batch=2,
                                policy=OverflowPolicy.DROP_NEWEST)
        buffered.taint_source(IMEI)
        for i in range(10):
            buffered.on_memory_event(store(0x5000, 0x5003, i))
        buffered.check_blocking(AddressRange(0x5000, 0x5003))
        assert buffered.stats.degraded_checks == 1


class TestSnapshotRestore:
    def test_tracker_round_trip_equals_uninterrupted_run(self):
        events = leaky_workload(120)
        straight = PIFTTracker(CONFIG)
        straight.taint_source(IMEI)
        straight.run(events)

        first = PIFTTracker(CONFIG)
        first.taint_source(IMEI)
        first.run(events[:47])
        snap = json.loads(json.dumps(first.snapshot()))
        second = PIFTTracker(CONFIG)
        second.restore(snap)
        second.run(events[47:])
        assert second.stats.as_dict() == straight.stats.as_dict()
        assert second.snapshot() == straight.snapshot()

    def test_bounded_cache_round_trip(self):
        cache = BoundedRangeCache(4, policy=EvictionPolicy.SPILL)
        for i in range(8):
            cache.add(AddressRange(0x1000 * (i + 1), 0x1000 * (i + 1) + 0xF))
        cache.overlaps(AddressRange(0x1000, 0x1003))
        snap = json.loads(json.dumps(cache.snapshot()))
        clone = BoundedRangeCache(4, policy=EvictionPolicy.SPILL)
        clone.restore(snap)
        assert clone.snapshot() == cache.snapshot()
        probe = AddressRange(0x5000, 0x500F)
        assert clone.overlaps(probe) == cache.overlaps(probe)

    def test_bounded_cache_rejects_geometry_mismatch(self):
        cache = BoundedRangeCache(4)
        other = BoundedRangeCache(8)
        with pytest.raises(ValueError, match="geometry"):
            other.restore(cache.snapshot())

    def test_buffered_round_trip_mid_stream(self):
        events = leaky_workload(100)
        straight = BufferedPIFT(CONFIG, capacity=32, drain_batch=8)
        straight.taint_source(IMEI)
        for event in events:
            straight.on_memory_event(event)
        straight.drain_all()

        first = BufferedPIFT(CONFIG, capacity=32, drain_batch=8)
        first.taint_source(IMEI)
        for event in events[:63]:
            first.on_memory_event(event)
        first.check_immediate(AddressRange(0x9000, 0x9003), sink_name="s")
        snap = json.loads(json.dumps(first.snapshot()))
        clone = BufferedPIFT(CONFIG, capacity=32, drain_batch=8)
        clone.restore(snap)
        for event in events[63:]:
            clone.on_memory_event(event)
        clone.drain_all()
        # The resumed run converges to the uninterrupted tracker state,
        # and both halves agree on the buffer accounting.
        assert clone.tracker.stats.as_dict() == straight.tracker.stats.as_dict()
        assert clone.stats.events_buffered == straight.stats.events_buffered
        assert clone.queue_depth == 0 and clone.spill_depth == 0

    def test_buffered_snapshot_preserves_pending_checks(self):
        buffered = BufferedPIFT(CONFIG, capacity=64)
        buffered.taint_source(IMEI)
        buffered.on_memory_event(load(0x1000, 0x1003, 0))
        buffered.on_memory_event(store(0x5000, 0x5003, 1))
        buffered.check_immediate(AddressRange(0x5000, 0x5003), sink_name="sms")
        snap = json.loads(json.dumps(buffered.snapshot()))
        clone = BufferedPIFT(CONFIG, capacity=64)
        clone.restore(snap)
        clone.drain_all()
        assert clone.stats.stale_negatives == 1
        (late,) = clone.late_detections
        assert late.sink_name == "sms"


class TestDeviceIntegration:
    def test_device_threads_fault_plan(self):
        from repro.apps.malware import sample_by_name, run_sample
        from repro.android.device import AndroidDevice

        sample = sample_by_name("LGRoot")
        plan = FaultPlan(seed=1, rates=FaultRates(event_loss=0.05))
        device = AndroidDevice(faults=plan)
        device.install(sample.build(device, 16))
        device.run(sample.entry)
        assert device.fault_stats is not None
        assert device.fault_stats.events_dropped > 0
        # The recorded trace stays pristine: replaying it fault-free sees
        # every event the CPU emitted.
        assert len(device.recorded.trace) == device.fault_stats.events_seen

    def test_device_without_plan_has_no_fault_stats(self):
        from repro.android.device import AndroidDevice

        assert AndroidDevice().fault_stats is None


class TestDegradationAnalysis:
    def test_faulted_replay_zero_plan_matches_replay(self):
        from repro.core import PAPER_DEFAULT
        from repro.apps.malware import record_lgroot_trace
        from repro.analysis.replay import replay
        from repro.analysis.degradation import faulted_replay

        recorded = record_lgroot_trace(work=24)
        baseline = replay(recorded, PAPER_DEFAULT)
        faulted, stats = faulted_replay(recorded, PAPER_DEFAULT, FaultPlan(seed=6))
        assert stats.total_injections == 0
        assert faulted.stats.as_dict() == baseline.stats.as_dict()
        assert faulted.sink_outcomes == baseline.sink_outcomes

    def test_degradation_curve_shape(self):
        from repro.core import PAPER_MALWARE_MINIMUM
        from repro.analysis.degradation import (
            degradation_curve,
            record_malware_runs,
        )

        runs = record_malware_runs(work=8)
        curve = degradation_curve(
            [], PAPER_MALWARE_MINIMUM, rates=(0.0, 0.1), seed=1,
            malware_runs=runs,
        )
        assert [p.rate for p in curve.points] == [0.0, 0.1]
        assert curve.points[0].malware_detected == 7
        assert curve.points[0].malware_total == 7
        payload = json.loads(json.dumps(curve.as_dict()))
        assert payload["site"] == "event_loss"

    def test_latency_table_lossless_row_is_clean(self):
        from repro.core import PAPER_DEFAULT
        from repro.apps.malware import record_lgroot_trace
        from repro.analysis.degradation import detection_latency_table

        rows = detection_latency_table(
            record_lgroot_trace(work=24), PAPER_DEFAULT,
            rates=(0.0,), seed=1,
        )
        (row,) = rows
        assert row.forced_drops == 0
        assert row.degraded_checks == 0
        assert row.missed == 0


class TestFaultsCLI:
    def test_faults_json_output(self, capsys):
        from repro.__main__ import main

        code = main([
            "faults", "--suite", "malware", "--rates", "0,0.1",
            "--work", "8", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "faults"
        points = payload["curve"]["points"]
        assert [p["rate"] for p in points] == [0.0, 0.1]
        assert points[0]["malware_detected"] == 7
        # Satellite: forced_drops is surfaced through the JSON output.
        assert all("forced_drops" in row for row in payload["latency"])

    def test_faults_help(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["faults", "--help"])
        assert exc.value.code == 0
        assert "--fault-seed" in capsys.readouterr().out

    def test_bad_spec_raises(self):
        from repro.__main__ import main

        with pytest.raises(ValueError):
            main(["faults", "--suite", "malware", "--rates", "0",
                  "--faults", "bogus=1"])
