"""Unit tests for the multi-colour taint layer.

Covers the colour registry and mask-carrying range set
(``repro.core.colours``), the single-pass coloured provenance wrapper
(``repro.core.provenance.ColourProvenance``), coloured buffered tracking
(``repro.core.buffered``), suite attribution
(``repro.analysis.provenance``), and the colour fields' journey through
the sweep journal and the run report.  The cross-strategy equivalences
live in ``tests/property/test_colour_parity.py``; this file pins the
small exact behaviours those properties quantify over.
"""

import pytest

from repro.core.colours import ColourRangeSet, ColourSpace
from repro.core.config import PIFTConfig
from repro.core.events import EventColumns, load, store
from repro.core.ranges import AddressRange
from repro.core.tracker import ColourTracker

IMEI, GPS, SMS = 0b001, 0b010, 0b100


def triples(crs):
    return list(crs.items())


class TestColourSpace:
    def test_registration_order_assigns_bits(self):
        space = ColourSpace()
        assert space.register("imei") == 1
        assert space.register("location") == 2
        assert space.register("imei") == 1  # idempotent
        assert space.names == ("imei", "location")
        assert space.mask_of("location") == 2
        assert "imei" in space and "sms" not in space

    def test_names_for_is_registration_ordered(self):
        space = ColourSpace(("a", "b", "c"))
        assert space.names_for(0b101) == ("a", "c")
        assert space.names_for(0) == ()

    def test_overflow_aliases_last_bit(self):
        space = ColourSpace()
        for i in range(70):
            space.register(f"s{i}")
        top = 1 << (ColourSpace.MAX_COLOURS - 1)
        assert space.mask_of("s63") == top
        assert space.mask_of("s69") == top  # aliased, not an error
        # The union projection stays exact; attribution degrades to the
        # overflow bucket (every aliased name reports).
        overflow_names = space.names_for(top)
        assert "s63" in overflow_names and "s69" in overflow_names

    def test_snapshot_round_trip(self):
        space = ColourSpace(("x", "y"))
        clone = ColourSpace.from_snapshot(space.snapshot())
        assert clone.names == space.names
        assert clone.mask_of("y") == space.mask_of("y")


class TestColourRangeSetAdd:
    def test_gap_insert_and_equal_mask_coalesce(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 9), IMEI)
        crs.add(AddressRange(20, 29), IMEI)
        assert triples(crs) == [(0, 9, IMEI), (20, 29, IMEI)]
        # Bridging gap insert with equal masks joins both neighbours.
        crs.add(AddressRange(10, 19), IMEI)
        assert triples(crs) == [(0, 29, IMEI)]
        assert crs.total_size == 30

    def test_gap_insert_between_different_masks_stays_separate(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 9), IMEI)
        crs.add(AddressRange(20, 29), GPS)
        crs.add(AddressRange(10, 19), SMS)
        assert triples(crs) == [(0, 9, IMEI), (10, 19, SMS), (20, 29, GPS)]

    def test_absorbed_add_is_a_version_noop(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 99), IMEI | GPS)
        version = crs._version
        starts_before, _ = crs.as_arrays()
        crs.add(AddressRange(10, 19), IMEI)  # subset mask, fully covered
        assert crs._version == version  # numpy mirrors stay cached
        starts_after, _ = crs.as_arrays()
        assert starts_after is starts_before
        assert triples(crs) == [(0, 99, IMEI | GPS)]

    def test_overlapping_add_ors_and_splits_at_boundaries(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 99), IMEI)
        crs.add(AddressRange(40, 59), GPS)
        assert triples(crs) == [
            (0, 39, IMEI), (40, 59, IMEI | GPS), (60, 99, IMEI),
        ]
        assert crs.total_size == 100  # coverage unchanged by colouring

    def test_add_straddling_multiple_ranges_fills_gaps(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 9), IMEI)
        crs.add(AddressRange(30, 39), GPS)
        crs.add(AddressRange(5, 34), SMS)
        assert triples(crs) == [
            (0, 4, IMEI),
            (5, 9, IMEI | SMS),
            (10, 29, SMS),
            (30, 34, GPS | SMS),
            (35, 39, GPS),
        ]

    def test_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            ColourRangeSet().add(AddressRange(0, 1), 0)


class TestColourRangeSetRemove:
    def test_remove_is_colour_blind_and_keeps_remnant_masks(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 49), IMEI)
        crs.add(AddressRange(50, 99), GPS)
        crs.remove(AddressRange(40, 59))  # straddles both colours
        assert triples(crs) == [(0, 39, IMEI), (60, 99, GPS)]
        assert crs.total_size == 80

    def test_remove_many_reports_per_step(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 99), IMEI)
        steps = crs.remove_many([(10, 19), (200, 300), (10, 19)])
        assert [s[0] for s in steps] == [True, False, False]
        assert steps[0][1] == 90  # total after the split
        assert steps[0][2] == 2   # split grew the range count

    def test_mask_overlapping_unions(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 9), IMEI)
        crs.add(AddressRange(10, 19), GPS)
        assert crs.mask_overlapping(AddressRange(5, 15)) == IMEI | GPS
        assert crs.mask_overlapping(AddressRange(500, 600)) == 0


class TestColouredDenseHighWater:
    """Regression: the dense executor's taint commit on coloured state
    once guarded per-step ``max_range_count`` bookkeeping with a static
    +2-per-add budget, but a coloured add spanning k gapped
    differently-masked ranges raises the count by k+1 — the vectorised
    run under-recorded the high-water mark the scalar loop saw."""

    def build(self, config):
        tracker = ColourTracker(config)
        tracker.taint_source(AddressRange(201, 201), colour="a")
        tracker.taint_source(AddressRange(203, 203), colour="b")
        tracker.taint_source(AddressRange(300, 310), colour="c")
        tracker.taint_source(AddressRange(400, 400), colour="d")
        tracker.taint_source(AddressRange(402, 402), colour="e")
        return tracker

    def test_splitting_bulk_add_records_range_count_high_water(self):
        config = PIFTConfig(
            window_size=50,
            max_propagations=8,
            untainting=True,
            vectorized=True,
        )
        # Five gapped source ranges set max_range_count = 5; the two
        # overwrites drop the live count back to 3, so the splitting add
        # below starts exactly 2 under the high-water mark — the case
        # the old +2-per-add budget wrongly waved through the fast path.
        events = [
            store(400, 400, 0),  # out-of-window overwrite: untaints "d"
            store(402, 402, 1),  # untaints "e"
            load(300, 310, 2),   # tainted load opens a window, mask "c"
            # In-window taint spanning [201]#a and [203]#b: one add, +3
            # ranges ([200]c [201]ac [202]c [203]bc [204]c) -> count 6.
            store(200, 204, 3),
        ]
        # Pad the same-PID run past DENSE_MIN so the dense executor (not
        # the scalar fallback loop) commits the mutations above.
        events += [
            load(10_000 + 16 * i, 10_000 + 16 * i + 3, 4 + i)
            for i in range(60)
        ]
        columns = EventColumns.from_events(events)
        scalar = self.build(config)
        scalar.observe_columns_scalar(columns)
        vector = self.build(config)
        vector.observe_columns_vectorized(columns)
        assert scalar.stats.max_range_count == 6
        assert vector.stats.as_dict() == scalar.stats.as_dict()


class TestColourRangeSetPersistence:
    def test_snapshot_restore_round_trip_with_masks(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 9), IMEI)
        crs.add(AddressRange(20, 29), GPS)
        clone = ColourRangeSet()
        clone.restore(crs.snapshot())
        assert clone == crs
        assert clone.total_size == crs.total_size

    def test_restore_of_maskless_snapshot_defaults_to_one_colour(self):
        # Snapshots written by colour-free builds carry no masks key.
        clone = ColourRangeSet()
        clone.restore({"starts": [0, 20], "ends": [9, 29]})
        assert triples(clone) == [(0, 9, 1), (20, 29, 1)]

    def test_copy_is_independent(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 9), IMEI)
        clone = crs.copy()
        clone.add(AddressRange(100, 109), GPS)
        assert len(crs) == 1 and len(clone) == 2

    def test_drop_nth_range_updates_total(self):
        crs = ColourRangeSet()
        crs.add(AddressRange(0, 9), IMEI)
        crs.add(AddressRange(20, 29), GPS)
        victim = crs.drop_nth_range(1)
        assert victim == AddressRange(20, 29)
        assert crs.total_size == 10


def _two_source_events():
    """imei flows into scratch in-window; gps never flows anywhere."""
    from repro.core.events import load, store

    return [
        load(0, 7, 10),          # tainted load (imei)
        store(1_000, 1_007, 12),  # in-window: tainted with imei's mask
        store(2_000, 2_007, 500),  # far out of window: clean
    ]


class TestColourProvenance:
    def test_single_pass_attribution(self):
        from repro.core.provenance import ColourProvenance

        prov = ColourProvenance(
            PIFTConfig(window_size=13, max_propagations=3)
        )
        prov.taint_source("imei", AddressRange(0, 15))
        prov.taint_source("gps", AddressRange(64, 79))
        prov.run(_two_source_events())
        assert prov.labels() == ["gps", "imei"]
        assert prov.check(
            AddressRange(1_000, 1_007), sink_name="network"
        ) == frozenset({"imei"})
        assert prov.check(AddressRange(2_000, 2_007)) == frozenset()
        assert [leak.sink_name for leak in prov.leaks] == ["network"]
        assert prov.leaks[0].labels == frozenset({"imei"})
        # sources (32) + the one tainted store (8)
        assert prov.union_tainted_bytes() == 40


class TestColouredBufferedPIFT:
    def _buffered(self, **kwargs):
        from repro.core.buffered import BufferedPIFT

        return BufferedPIFT(
            PIFTConfig(window_size=13, max_propagations=3),
            capacity=64,
            drain_batch=16,
            **kwargs,
        )

    def test_colour_label_on_plain_tracker_raises(self):
        buffered = self._buffered()
        with pytest.raises(ValueError, match="coloured tracker"):
            buffered.taint_source(AddressRange(0, 15), colour="imei")
        with pytest.raises(ValueError, match="coloured tracker"):
            buffered.check_blocking_colours(AddressRange(0, 15))

    def test_blocking_check_attributes_colours(self):
        buffered = self._buffered(colours=ColourSpace())
        buffered.taint_source(AddressRange(0, 15), colour="imei")
        buffered.taint_source(AddressRange(64, 79), colour="gps")
        for event in _two_source_events():
            buffered.on_memory_event(event)
        assert buffered.check_blocking_colours(
            AddressRange(1_000, 1_007)
        ) == ("imei",)
        assert buffered.check_blocking_colours(
            AddressRange(2_000, 2_007)
        ) == ()

    def test_immediate_verdict_and_late_detection_carry_colours(self):
        buffered = self._buffered(colours=ColourSpace())
        buffered.taint_source(AddressRange(0, 15), colour="imei")
        events = _two_source_events()
        for event in events[:2]:
            buffered.on_memory_event(event)
        # Queue is still undrained: the immediate answer is clean, the
        # reconciliation after draining must flag it as a late detection
        # carrying the contributing colour.
        verdict = buffered.check_immediate_verdict(
            AddressRange(1_000, 1_007), sink_name="network"
        )
        assert verdict.colours == ()
        buffered.drain_all()
        assert len(buffered.late_detections) == 1
        late = buffered.late_detections[0]
        assert late.colours == ("imei",)
        settled = buffered.check_immediate_verdict(
            AddressRange(1_000, 1_007), sink_name="network"
        )
        assert settled.tainted is True
        assert settled.colours == ("imei",)

    def test_snapshot_restore_keeps_colours(self):
        buffered = self._buffered(colours=ColourSpace())
        buffered.taint_source(AddressRange(0, 15), colour="imei")
        for event in _two_source_events():
            buffered.on_memory_event(event)
        buffered.drain_all()
        restored = self._buffered(colours=ColourSpace())
        restored.restore(buffered.snapshot())
        assert restored.check_blocking_colours(
            AddressRange(1_000, 1_007)
        ) == ("imei",)


def _suite_of_two_apps():
    from repro.analysis.accuracy import AppRun
    from repro.android.device import (
        RecordedRun, SinkCheck, SourceRegistration,
    )
    from repro.core.events import load, store

    def app(name, source_name, leaks):
        run = RecordedRun()
        run.sources.append(
            SourceRegistration(AddressRange(0, 15), 0, source_name)
        )
        run.trace.append(load(0, 7, 10))
        if leaks:
            run.trace.append(store(1_000, 1_007, 12))
        run.trace.note_instruction(600)
        run.sink_checks.append(
            SinkCheck(AddressRange(1_000, 1_063), 600, "network", "socket")
        )
        return AppRun(name=name, recorded=run, leaks=leaks)

    return [
        app("Leaky1", "imei", True),
        app("Leaky2", "imei", True),
        app("Clean1", "location", False),
    ]


class TestSuiteAttribution:
    CONFIG = PIFTConfig(window_size=13, max_propagations=3)

    def test_attribute_suite_folds_per_colour(self):
        from repro.analysis.provenance import attribute_suite

        suite = attribute_suite(_suite_of_two_apps(), self.CONFIG)
        assert suite.attributed_sink_hits == 2
        table = suite.table
        assert [row.colour for row in table] == ["imei"]
        assert table[0].apps == ["Leaky1", "Leaky2"]
        assert table[0].channels == {"socket": 2}
        payload = suite.as_dict()
        assert payload["attributed_sink_hits"] == 2
        assert payload["colours"][0]["app_count"] == 2
        # Clean apps are omitted from the per-app payload.
        assert [entry["app"] for entry in payload["apps"]] == [
            "Leaky1", "Leaky2",
        ]
        rendered = suite.render()
        assert "imei" in rendered and "socket:2" in rendered

    def test_attribution_agrees_with_plain_verdicts(self):
        from repro.analysis.provenance import attribute_app
        from repro.analysis.replay import replay

        for app in _suite_of_two_apps():
            attribution = attribute_app(app, self.CONFIG)
            plain = replay(app.recorded, self.CONFIG)
            assert attribution.alarm == any(
                o.tainted for o in plain.sink_outcomes
            )

    def test_empty_suite_renders_placeholder(self):
        from repro.analysis.provenance import SuiteAttribution

        assert "no attributed sink hits" in SuiteAttribution(
            config=self.CONFIG
        ).render()


class TestColoursThroughJournalAndReport:
    def _coloured_result(self, tmp_path):
        from repro.analysis.provenance import attribute_suite
        from repro.sweep.engine import CellResult

        suite = attribute_suite(
            _suite_of_two_apps(), TestSuiteAttribution.CONFIG
        )
        return CellResult(
            index=0,
            config=TestSuiteAttribution.CONFIG,
            rate=0.0,
            site="event_loss",
            seed=1,
            state_spec="rangeset",
            colours=suite.as_dict(),
            events_tracked=5,
            duration_seconds=0.25,
            worker=1234,
        )

    def test_journal_round_trips_colours(self, tmp_path):
        from repro.sweep.specs import SweepCell
        from repro.store.journal import RunJournal, cells_fingerprint

        cells = [
            SweepCell(index=0, config=TestSuiteAttribution.CONFIG,
                      colours=True),
        ]
        # The colours marker changes the identity: a colour-on grid must
        # not fingerprint-match a colour-off journal.
        plain_cells = [
            SweepCell(index=0, config=TestSuiteAttribution.CONFIG),
        ]
        assert cells_fingerprint(cells) != cells_fingerprint(plain_cells)
        assert plain_cells[0].key() + ("colours",) == cells[0].key()

        journal = RunJournal.create(
            tmp_path / "run.journal", cells, run_id="runc"
        )
        journal.append(self._coloured_result(tmp_path))
        loaded = RunJournal.load(tmp_path / "run.journal")
        rows = loaded.cell_rows()
        assert rows[0]["colours"]["attributed_sink_hits"] == 2
        result = loaded.completed_results()[0]
        assert result.colours["colours"][0]["colour"] == "imei"
        assert result.as_dict()["colours"] == result.colours

    def test_plain_results_carry_no_colours_key(self, tmp_path):
        from repro.sweep.engine import CellResult
        from repro.store.journal import cell_result_to_record

        plain = CellResult(
            index=0, config=TestSuiteAttribution.CONFIG, rate=0.0,
            site="event_loss", seed=1, state_spec="rangeset",
        )
        assert "colours" not in plain.as_dict()
        assert "colours" not in cell_result_to_record(plain)

    def test_run_report_folds_colour_attribution(self, tmp_path):
        from repro.analysis.report import build_run_report, render_run_report
        from repro.sweep.specs import SweepCell
        from repro.store.journal import RunJournal

        cells = [
            SweepCell(index=0, config=TestSuiteAttribution.CONFIG,
                      colours=True),
        ]
        journal = RunJournal.create(
            tmp_path / "run.journal", cells, run_id="runr"
        )
        journal.append(self._coloured_result(tmp_path))
        report = build_run_report(RunJournal.load(tmp_path / "run.journal"))
        attribution = report["colour_attribution"]
        assert attribution["cells"] == 1
        assert attribution["colours"] == [
            {"colour": "imei", "apps": ["Leaky1", "Leaky2"], "sink_hits": 2},
        ]
        rendered = render_run_report(report)
        assert "leak attribution (1 coloured cells):" in rendered
        assert "imei" in rendered

    def test_run_report_without_coloured_cells_is_none(self, tmp_path):
        from repro.analysis.report import build_run_report
        from repro.sweep.specs import SweepCell
        from repro.store.journal import RunJournal
        from repro.sweep.engine import CellResult

        cells = [SweepCell(index=0, config=TestSuiteAttribution.CONFIG)]
        journal = RunJournal.create(
            tmp_path / "run.journal", cells, run_id="runp"
        )
        journal.append(
            CellResult(
                index=0, config=TestSuiteAttribution.CONFIG, rate=0.0,
                site="event_loss", seed=1, state_spec="rangeset",
            )
        )
        report = build_run_report(RunJournal.load(tmp_path / "run.journal"))
        assert report["colour_attribution"] is None
