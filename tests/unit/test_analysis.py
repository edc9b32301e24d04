"""Unit tests for the analysis package: distances, replay, accuracy, overhead."""

import numpy as np
import pytest

from repro.core.config import PIFTConfig
from repro.core.events import EventTrace, load, store
from repro.core.ranges import AddressRange
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.analysis.accuracy import AppRun, evaluate_suite, sweep
from repro.analysis.bytecode_stats import (
    load_store_distance_table,
    render_table1,
    render_top_opcodes,
    top_opcodes,
)
from repro.analysis.distances import (
    Distribution,
    kth_store_distances,
    load_to_load_distances,
    mean_kth_store_distances,
    store_to_last_load_distances,
    stores_between_loads,
    stores_in_window,
)
from repro.analysis.overhead import overhead_grids, taint_timelines, untainting_effect
from repro.analysis.replay import replay


def simple_trace():
    """loads at 0, 10, 20; stores at 2, 4, 12."""
    return EventTrace(
        [
            load(0x100, 0x103, 0),
            store(0x200, 0x203, 2),
            store(0x210, 0x213, 4),
            load(0x104, 0x107, 10),
            store(0x220, 0x223, 12),
            load(0x108, 0x10B, 20),
        ]
    )


class TestDistances:
    def test_store_to_last_load(self):
        assert store_to_last_load_distances(simple_trace()) == [2, 4, 2]

    def test_stores_between_loads(self):
        assert stores_between_loads(simple_trace()) == [2, 1, 0]

    def test_load_to_load(self):
        assert load_to_load_distances(simple_trace()) == [10, 10]

    def test_stores_in_window(self):
        assert stores_in_window(simple_trace(), window_size=5) == [2, 1, 0]
        assert stores_in_window(simple_trace(), window_size=15) == [3, 1, 0]

    def test_kth_store_distances(self):
        per_k = kth_store_distances(simple_trace(), window_size=15, k_max=3)
        assert per_k[0] == [2, 2]  # first stores after loads at 0 and 10
        assert per_k[1] == [4]  # second store only for the first load
        assert per_k[2] == [12]

    def test_mean_kth(self):
        means = mean_kth_store_distances(simple_trace(), [15])
        assert means[15][0] == 2.0

    def test_store_before_any_load_ignored(self):
        trace = EventTrace([store(0x100, 0x103, 0), load(0x100, 0x103, 1)])
        assert store_to_last_load_distances(trace) == []


class TestDistribution:
    def test_from_samples(self):
        d = Distribution.from_samples([1, 1, 2, 5])
        assert d.sample_count == 4
        assert d.probability[1] == 0.5
        assert d.cdf[-1] == pytest.approx(1.0)
        assert d.mode() == 1

    def test_probability_at_most(self):
        d = Distribution.from_samples([0, 1, 2, 10])
        assert d.probability_at_most(2) == pytest.approx(0.75)
        assert d.probability_at_most(100) == pytest.approx(1.0)

    def test_empty(self):
        d = Distribution.from_samples([])
        assert d.sample_count == 0
        assert d.probability_at_most(5) == 0.0


def make_recorded(leaky: bool) -> RecordedRun:
    """A tiny hand-built run: source -> copy -> sink."""
    events = [
        load(0x1000, 0x1003, 10),
        store(0x2000, 0x2003, 12),
    ]
    recorded = RecordedRun(trace=EventTrace(events, instruction_count=30))
    recorded.sources.append(
        SourceRegistration(AddressRange(0x1000, 0x1003), 0, "src")
    )
    target = AddressRange(0x2000, 0x2003) if leaky else AddressRange(0x9000, 0x9003)
    recorded.sink_checks.append(SinkCheck(target, 20, "sink", "sms"))
    return recorded


def make_two_pid_recorded() -> RecordedRun:
    """A leak that only exists inside pid 1; pid 0 stays clean.

    Regression guard: replay used to drop the recorded PIDs and pin every
    source registration and sink check to pid 0, which both missed the
    pid-1 leak and could false-alarm pid 0.
    """
    events = [
        load(0x1000, 0x1003, 10, pid=1),
        store(0x2000, 0x2003, 12, pid=1),
        load(0x1000, 0x1003, 10, pid=0),   # same addresses, clean process
        store(0x2000, 0x2003, 12, pid=0),
    ]
    recorded = RecordedRun(trace=EventTrace(events, instruction_count=60))
    recorded.sources.append(
        SourceRegistration(AddressRange(0x1000, 0x1003), 0, "src", pid=1)
    )
    recorded.sink_checks.append(
        SinkCheck(AddressRange(0x2000, 0x2003), 20, "sink", "sms", pid=1)
    )
    recorded.sink_checks.append(
        SinkCheck(AddressRange(0x2000, 0x2003), 20, "decoy", "sms", pid=0)
    )
    return recorded


class TestPidPlumbing:
    def test_replay_routes_sources_and_checks_by_pid(self):
        result = replay(make_two_pid_recorded(), PIFTConfig(5, 2))
        verdicts = {o.sink_name: o.tainted for o in result.sink_outcomes}
        assert verdicts == {"sink": True, "decoy": False}
        assert {o.pid for o in result.sink_outcomes} == {0, 1}

    def test_faulted_replay_zero_plan_routes_pids_identically(self):
        from repro.core.faults import FaultPlan
        from repro.analysis.degradation import faulted_replay

        recorded = make_two_pid_recorded()
        baseline = replay(recorded, PIFTConfig(5, 2))
        faulted, stats = faulted_replay(
            recorded, PIFTConfig(5, 2), FaultPlan(seed=1)
        )
        assert stats.total_injections == 0
        assert faulted.sink_outcomes == baseline.sink_outcomes

    def test_provenance_replay_routes_pids(self):
        from repro.analysis.replay import replay_with_provenance

        outcomes = replay_with_provenance(
            make_two_pid_recorded(), PIFTConfig(5, 2)
        )
        assert outcomes[0] == frozenset({"src"})  # pid-1 sink sees the leak
        assert outcomes[1] == frozenset()         # pid-0 decoy stays clean


class TestReplay:
    def test_leaky_run_alarms(self):
        result = replay(make_recorded(True), PIFTConfig(5, 2))
        assert result.alarm
        assert result.sink_outcomes[0].tainted

    def test_benign_run_silent(self):
        assert not replay(make_recorded(False), PIFTConfig(5, 2)).alarm

    def test_window_too_small_misses(self):
        assert not replay(make_recorded(True), PIFTConfig(1, 2)).alarm

    def test_check_order_respected(self):
        """A sink check earlier than the taint-propagating store is clean."""
        recorded = make_recorded(True)
        recorded.sink_checks[0] = SinkCheck(
            AddressRange(0x2000, 0x2003), 11, "sink", "sms"
        )
        assert not replay(recorded, PIFTConfig(5, 2)).alarm

    def test_marks_due_at_an_event_index_drain_before_it(self):
        """A source or check recorded at an event's instruction index is
        handled before that event: the load at 10 sees the source
        registered at 10, and a check at 12 does not see the store at 12."""
        recorded = make_recorded(True)
        recorded.sources[0] = SourceRegistration(
            AddressRange(0x1000, 0x1003), 10, "src"
        )
        recorded.sink_checks.append(
            SinkCheck(AddressRange(0x2000, 0x2003), 12, "early", "sms")
        )
        outcomes = replay(recorded, PIFTConfig(5, 2)).sink_outcomes
        assert {o.sink_name: o.tainted for o in outcomes} == {
            "early": False, "sink": True,
        }


class TestAccuracy:
    def apps(self):
        return [
            AppRun("leaky", make_recorded(True), leaks=True),
            AppRun("benign", make_recorded(False), leaks=False),
        ]

    def test_perfect_config(self):
        report = evaluate_suite(self.apps(), PIFTConfig(5, 2))
        assert report.accuracy == 1.0
        assert report.false_positive_rate == 0.0
        assert report.false_negative_rate == 0.0

    def test_small_window_misses(self):
        report = evaluate_suite(self.apps(), PIFTConfig(1, 1))
        assert report.false_negatives == 1
        assert report.missed_apps == ["leaky"]
        assert report.accuracy == 0.5

    def test_sweep_grid_shape_and_values(self):
        grid = sweep(self.apps(), window_sizes=[1, 5], propagation_caps=[1, 2])
        assert grid.accuracy.shape == (2, 2)
        assert grid.at(1, 1) == 0.5
        assert grid.at(5, 2) == 1.0
        window, cap, best = grid.best()
        assert best == 1.0 and window == 5

    def test_render(self):
        grid = sweep(self.apps(), window_sizes=[1, 5], propagation_caps=[1])
        text = grid.render()
        assert "NT\\NI" in text and "100.0" in text


class TestOverhead:
    def test_grids(self):
        sizes, counts = overhead_grids(
            make_recorded(True), window_sizes=[1, 5], propagation_caps=[1, 2]
        )
        # Larger window taints the store target: more bytes, more ranges.
        assert sizes.at(5, 1) >= sizes.at(1, 1)
        assert counts.at(5, 1) >= counts.at(1, 1)
        assert "NT\\NI" in sizes.render("bytes")

    def test_timelines(self):
        configs = [PIFTConfig(5, 2), PIFTConfig(1, 1)]
        timelines = taint_timelines(make_recorded(True), configs)
        assert set(timelines) == set(configs)
        big = timelines[PIFTConfig(5, 2)]
        assert big[-1].cumulative_operations >= 1

    def test_untainting_effect(self):
        effects = untainting_effect(make_recorded(True), [PIFTConfig(5, 2)])
        (effect,) = effects
        assert effect.max_tainted_bytes_without >= effect.max_tainted_bytes_with
        assert effect.size_reduction_factor >= 1.0


class TestBytecodeStats:
    def test_table1_buckets(self):
        rows = load_store_distance_table()
        by_label = {row.label: row for row in rows}
        # Paper Table 1: 3 returns at distance 1; 47 unknowns.
        assert by_label["1"].count == 3
        assert by_label["Unknown"].count == 47
        assert "return" in by_label["1"].examples

    def test_table1_renders(self):
        text = render_table1(load_store_distance_table())
        assert "Unknown" in text and "Cnt" in text

    def test_top_opcodes_from_corpus(self):
        from repro.apps.corpus import app_corpus

        rows = top_opcodes(app_corpus(), n=30)
        assert rows[0].name == "invoke-virtual"
        assert rows[0].share == pytest.approx(0.1106, abs=0.002)
        # move-result-object row carries its Table 1 distance.
        mro = next(r for r in rows if r.name == "move-result-object")
        assert mro.load_store_distance == 2

    def test_library_corpus_ranking(self):
        from repro.apps.corpus import library_corpus

        rows = top_opcodes(library_corpus(), n=5)
        assert [r.name for r in rows[:3]] == [
            "invoke-virtual", "iget-object", "move-result-object",
        ]

    def test_corpus_sizes(self):
        from repro.apps.corpus import (
            APP_CORPUS_LINES,
            LIBRARY_CORPUS_LINES,
            app_corpus,
            library_corpus,
        )

        assert sum(app_corpus().values()) == APP_CORPUS_LINES
        assert sum(library_corpus().values()) == LIBRARY_CORPUS_LINES

    def test_render_top_opcodes(self):
        from repro.apps.corpus import app_corpus

        text = render_top_opcodes(top_opcodes(app_corpus(), 10), "Apps")
        assert "invoke-virtual" in text

    def test_corpus_from_methods(self):
        from repro.apps.corpus import corpus_from_methods
        from repro.dalvik import MethodBuilder

        b = MethodBuilder("C.m", registers=4)
        b.const(0, 1)
        b.const(1, 2)
        b.add_int(2, 0, 1)
        b.return_value(2)
        counts = corpus_from_methods([b.build()])
        assert counts["const/4"] == 2
        assert counts["add-int"] == 1
