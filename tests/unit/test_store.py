"""Unit tests for ``repro.store`` — the artifact store and run journal.

The properties worth pinning are the crash-safety ones: corrupt entries
are detected, quarantined, and transparently re-recorded; concurrent
writers racing on one key leave exactly one valid entry; a journal
survives a mid-grid kill and resumes bit-identically.  Synthetic
mini-suites keep everything tier-1 fast — the store never cares whether
the runs came from the real 57-app recording.
"""

import gzip
import json
import multiprocessing
import pickle
import warnings

import pytest

from repro.analysis.accuracy import AppRun
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core import PIFTConfig
from repro.core.events import load, store
from repro.core.ranges import AddressRange
from repro.store import (
    ArtifactStore,
    JournalError,
    RunJournal,
    StoreError,
    StoreKey,
    cell_result_from_record,
    cell_result_to_record,
    cells_fingerprint,
    droidbench_key,
    dump_suite_bytes,
    lgroot_key,
    malware_key,
    new_run_id,
)
from repro.sweep import GridSpec, TraceCache, run_sweep


def tiny_run(leaks: bool, seed: int = 0) -> RecordedRun:
    """A minimal recorded execution: one source, a few events, one sink."""
    run = RecordedRun()
    base = 1000 + 16 * seed
    run.sources.append(SourceRegistration(AddressRange(base, base + 3), 0, "imei"))
    run.trace.append(load(base, base + 3, 1))
    if leaks:
        run.trace.append(store(base + 8, base + 11, 2))
    run.trace.append(store(50_000, 50_003, 3))
    run.trace.note_instruction(4)
    run.sink_checks.append(
        SinkCheck(AddressRange(base + 8, base + 11), 4, "network", "socket")
    )
    return run


def tiny_suite(count: int = 3):
    return [
        AppRun(name=f"app{i}", recorded=tiny_run(leaks=i % 2 == 0, seed=i),
               leaks=i % 2 == 0)
        for i in range(count)
    ]


def tiny_cells(n: int = 4):
    return list(
        GridSpec(window_sizes=(5, 13), propagation_caps=(2, 3), seed=1).cells()
    )[:n]


TEST_KEY = StoreKey(kind="test", inputs=(("apps", ("a", "b")), ("work", 4)))


class TestStoreKey:
    def test_digest_is_stable(self):
        assert TEST_KEY.digest == StoreKey(
            kind="test", inputs=(("apps", ("a", "b")), ("work", 4))
        ).digest

    def test_any_input_change_changes_digest(self):
        variants = [
            StoreKey(kind="other", inputs=TEST_KEY.inputs),
            StoreKey(kind="test", inputs=(("apps", ("a", "c")), ("work", 4))),
            StoreKey(kind="test", inputs=(("apps", ("a", "b")), ("work", 5))),
        ]
        digests = {TEST_KEY.digest} | {k.digest for k in variants}
        assert len(digests) == 4

    def test_builtin_keys_are_distinct(self):
        digests = {
            droidbench_key().digest,
            malware_key(16).digest,
            malware_key(32).digest,
            lgroot_key(16).digest,
        }
        assert len(digests) == 4


class TestPutGet:
    def test_roundtrip_preserves_bytes(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        suite = tiny_suite()
        digest = art.put_runs(TEST_KEY, suite)
        assert art.has(TEST_KEY)
        loaded = art.get_runs(TEST_KEY)
        assert dump_suite_bytes(loaded) == dump_suite_bytes(suite)
        assert [app.name for app in loaded] == [app.name for app in suite]
        assert [app.leaks for app in loaded] == [app.leaks for app in suite]
        assert (art.writes, art.hits, art.misses) == (1, 1, 0)
        assert digest == TEST_KEY.digest

    def test_miss_on_absent_entry(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        assert art.get_runs(TEST_KEY) is None
        assert not art.has(TEST_KEY)
        assert art.misses == 1

    def test_read_only_store_never_writes(self, tmp_path):
        root = tmp_path / "store"
        ArtifactStore(root).put_runs(TEST_KEY, tiny_suite())
        reader = ArtifactStore(root, read_only=True)
        assert reader.get_runs(TEST_KEY) is not None
        with pytest.raises(StoreError):
            reader.put_runs(TEST_KEY, tiny_suite())
        with pytest.raises(StoreError):
            reader.prune()

    def test_read_only_store_on_missing_root_reads_as_empty(self, tmp_path):
        reader = ArtifactStore(tmp_path / "absent", read_only=True)
        assert reader.get_runs(TEST_KEY) is None
        assert not (tmp_path / "absent").exists()  # reads never create it

    def test_bad_run_ids_rejected(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        for bad in ("", "a/b", ".hidden", "../escape"):
            with pytest.raises(StoreError):
                art.journal_path(bad)


def _replace(column, position, value):
    def corrupt(events):
        events[column][position] = value
    return corrupt


#: Corruptions of one stored run's ``events`` body that leave the gzip
#: and the JSON readable; each must make the entry undecodable.
BAD_EVENT_COLUMNS = {
    "float-size": _replace("sizes", 0, 2.5),
    "bool-start": _replace("starts", 0, True),
    "float-index-delta": _replace("index_deltas", 1, 1.0),
    "kind-x": lambda events: events.update(kinds="x" + events["kinds"][1:]),
    "short-starts": lambda events: events["starts"].pop(),
    "start-beyond-int64": _replace("starts", 0, 2**70),
    "zero-size": _replace("sizes", 0, 0),
    "negative-start": _replace("starts", 0, -1),
    "pids-wrong-length": lambda events: events.update(
        pids=[0] * (len(events["kinds"]) - 1)
    ),
}


def _set(records, **fields):
    def corrupt(run):
        run[records][0].update(fields)
    return corrupt


#: Corruptions of one stored run's first source or sink check; each must
#: make the entry undecodable rather than decode to a float or bool.
BAD_SOURCE_AND_CHECK_FIELDS = {
    "source-bool-start": _set("sources", start=True, size=2.5),
    "source-float-index": _set("sources", index=1.5),
    "source-end-beyond-int64": _set("sources", start=2**63 - 1, size=2),
    "check-float-index": _set("sink_checks", index=1.5),
    "check-bool-pid": _set("sink_checks", pid=False),
}


def _in_events(corrupt):
    return lambda run: corrupt(run["events"])


def _suite_payload(corrupt) -> bytes:
    """``tiny_suite()``'s payload with ``corrupt`` applied to run 0."""
    document = json.loads(gzip.decompress(dump_suite_bytes(tiny_suite())))
    corrupt(document["runs"][0]["run"])
    raw = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return gzip.compress(raw.encode("utf-8"), mtime=0)


def _entry_files(art: ArtifactStore, key: StoreKey):
    digest = key.digest
    shard = art.objects_dir / digest[:2]
    return shard / f"{digest}.suite.gz", shard / f"{digest}.meta.json"


class TestCorruption:
    def test_bit_flip_detected_and_quarantined(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        art.put_runs(TEST_KEY, tiny_suite())
        payload_path, _ = _entry_files(art, TEST_KEY)
        blob = bytearray(payload_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload_path.write_bytes(bytes(blob))

        assert art.get_runs(TEST_KEY) is None
        assert art.corruptions == 1
        assert not art.has(TEST_KEY)  # both files moved aside
        assert len(list(art.quarantine_dir.iterdir())) == 2

    def test_truncation_detected_and_quarantined(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        art.put_runs(TEST_KEY, tiny_suite())
        payload_path, _ = _entry_files(art, TEST_KEY)
        payload_path.write_bytes(payload_path.read_bytes()[:10])
        assert art.get_runs(TEST_KEY) is None
        assert art.corruptions == 1
        assert not art.has(TEST_KEY)

    @pytest.mark.parametrize(
        "corrupt", [
            None,
            *map(_in_events, BAD_EVENT_COLUMNS.values()),
            *BAD_SOURCE_AND_CHECK_FIELDS.values(),
        ],
        ids=[
            "foreign-schema", *BAD_EVENT_COLUMNS,
            *BAD_SOURCE_AND_CHECK_FIELDS,
        ],
    )
    def test_valid_gzip_wrong_schema_is_corruption(self, tmp_path, corrupt):
        """An entry that unzips but doesn't decode is quarantined too —
        the checksum can't catch a foreign tool writing its own bytes."""
        art = ArtifactStore(tmp_path / "store")
        art.put_runs(TEST_KEY, tiny_suite())
        payload_path, meta_path = _entry_files(art, TEST_KEY)
        if corrupt is None:
            bogus = gzip.compress(b'{"not": "a suite"}', mtime=0)
        else:
            bogus = _suite_payload(corrupt)
        payload_path.write_bytes(bogus)
        meta = json.loads(meta_path.read_text())
        import hashlib

        meta["sha256"] = hashlib.sha256(bogus).hexdigest()
        meta_path.write_text(json.dumps(meta))
        assert art.get_runs(TEST_KEY) is None
        assert art.corruptions == 1
        assert len(list(art.quarantine_dir.iterdir())) == 2

    def test_missing_meta_is_a_plain_miss(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        art.put_runs(TEST_KEY, tiny_suite())
        _, meta_path = _entry_files(art, TEST_KEY)
        meta_path.unlink()
        assert art.get_runs(TEST_KEY) is None
        assert art.corruptions == 0  # payload-without-meta = uncommitted

    def test_verify_reports_and_quarantines(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        good = StoreKey(kind="good", inputs=())
        art.put_runs(good, tiny_suite(1))
        art.put_runs(TEST_KEY, tiny_suite())
        payload_path, _ = _entry_files(art, TEST_KEY)
        payload_path.write_bytes(b"garbage")
        report = art.verify()
        assert report["checked"] == 2
        assert report["corrupt"] == 1
        assert report["digests"] == [TEST_KEY.digest]
        assert report["quarantined"] == 2  # payload + meta moved aside
        assert art.get_runs(good) is not None
        # A clean follow-up pass still flags the unresolved quarantine.
        followup = art.verify()
        assert followup["corrupt"] == 0
        assert followup["quarantined"] == 2


class TestCacheIntegration:
    @pytest.fixture
    def recorded_by_patch(self, monkeypatch):
        """Route the cache's droidbench recording to a tiny suite."""
        calls = []

        def fake_record_suite():
            calls.append(1)
            return tiny_suite()

        import repro.apps.droidbench

        monkeypatch.setattr(
            repro.apps.droidbench, "record_suite", fake_record_suite
        )
        return calls

    def test_record_once_ever(self, tmp_path, recorded_by_patch):
        """The acceptance criterion: the second cache performs ZERO
        recordings — the suite comes back from the store by digest."""
        root = tmp_path / "store"
        first = TraceCache(backing_store=ArtifactStore(root))
        first.droidbench_runs()
        assert (first.recordings, first.store_hits) == (1, 0)

        second = TraceCache(backing_store=ArtifactStore(root))
        runs = second.droidbench_runs()
        assert (second.recordings, second.store_hits) == (0, 1)
        assert dump_suite_bytes(runs) == dump_suite_bytes(tiny_suite())
        assert recorded_by_patch == [1]

    def test_corrupt_entry_transparently_re_records(self, tmp_path,
                                                    recorded_by_patch):
        root = tmp_path / "store"
        art = ArtifactStore(root)
        TraceCache(backing_store=art).droidbench_runs()
        payload_path, _ = _entry_files(art, droidbench_key())
        payload_path.write_bytes(b"bit rot")

        cache = TraceCache(backing_store=ArtifactStore(root))
        runs = cache.droidbench_runs()
        assert cache.recordings == 1  # fell back to recording...
        assert len(runs) == 3
        assert recorded_by_patch == [1, 1]
        # ...and healed the store for the next reader.
        healed = TraceCache(backing_store=ArtifactStore(root))
        healed.droidbench_runs()
        assert (healed.recordings, healed.store_hits) == (0, 1)

    def test_explicit_runs_bypass_the_store(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        cache = TraceCache(droidbench=tiny_suite(2), backing_store=art)
        assert len(cache.droidbench_runs()) == 2
        assert art.writes == 0  # a subset must never claim the suite key
        assert cache.payload()["droidbench"].keys() == {"runs"}

    def test_digest_payload_roundtrip(self, tmp_path, recorded_by_patch):
        root = tmp_path / "store"
        parent = TraceCache(backing_store=ArtifactStore(root))
        parent.droidbench_runs()
        payload = parent.payload()
        assert payload["droidbench"] == {"digest": droidbench_key().digest}

        worker = TraceCache.from_payload(pickle.loads(pickle.dumps(payload)))
        assert worker.backing_store.read_only
        runs = worker.droidbench_runs()
        assert dump_suite_bytes(runs) == dump_suite_bytes(tiny_suite())
        assert worker.recordings == 0
        # The digest payload is tiny compared to shipping the suite.
        by_value = len(pickle.dumps(TraceCache(droidbench=tiny_suite()).payload()))
        assert len(pickle.dumps(payload)) < by_value


def _racing_writer(root: str, rounds: int) -> None:
    art = ArtifactStore(root)
    suite = tiny_suite()
    for _ in range(rounds):
        art.put_runs(TEST_KEY, suite)


class TestConcurrentWriters:
    def test_exactly_one_valid_entry_survives(self, tmp_path):
        root = tmp_path / "store"
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_racing_writer, args=(str(root), 25))
            for _ in range(2)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=60)
            assert p.exitcode == 0

        art = ArtifactStore(root)
        payloads = list(art.objects_dir.glob("*/*.suite.gz"))
        metas = list(art.objects_dir.glob("*/*.meta.json"))
        assert len(payloads) == 1 and len(metas) == 1
        report = art.verify()
        assert (report["checked"], report["corrupt"]) == (1, 0)
        assert dump_suite_bytes(art.get_runs(TEST_KEY)) == dump_suite_bytes(
            tiny_suite()
        )


class TestJournal:
    def _results(self, cells=None):
        cache = TraceCache(droidbench=tiny_suite())
        return run_sweep(cells or tiny_cells(), cache=cache).cells

    def test_roundtrip(self, tmp_path):
        cells = tiny_cells()
        results = self._results(cells)
        journal = RunJournal.create(tmp_path / "run.jsonl", cells, "run-000")
        for result in results:
            journal.append(result)

        loaded = RunJournal.load(tmp_path / "run.jsonl")
        assert loaded.run_id == "run-000"
        assert loaded.fingerprint == cells_fingerprint(cells)
        assert loaded.total_cells == len(cells)
        rebuilt = loaded.completed_results()
        assert sorted(rebuilt) == [c.index for c in cells]
        for result in results:
            assert rebuilt[result.index].as_dict() == result.as_dict()
            assert rebuilt[result.index].duration_seconds == (
                result.duration_seconds
            )

    def test_record_keys_are_frozen(self):
        """The journal line format other tooling greps (schema freeze)."""
        result = self._results(tiny_cells(1))[0]
        record = cell_result_to_record(result)
        assert set(record) == {
            "type", "index", "cell", "duration_seconds", "worker",
        }
        assert record["type"] == "cell"
        assert cell_result_from_record(record).as_dict() == result.as_dict()

    def test_header_keys_are_frozen(self, tmp_path):
        cells = tiny_cells(2)
        RunJournal.create(tmp_path / "run.jsonl", cells, "run-000")
        header = json.loads(
            (tmp_path / "run.jsonl").read_text().splitlines()[0]
        )
        assert set(header) == {
            "type", "journal_version", "run_id", "fingerprint", "cells",
        }
        assert header["type"] == "header"
        assert header["cells"] == 2

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        cells = tiny_cells(2)
        results = self._results(cells)
        journal = RunJournal.create(tmp_path / "run.jsonl", cells, "run-000")
        journal.append(results[0])
        with open(tmp_path / "run.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"type": "cell", "index": 1, "cel')  # kill mid-append

        with pytest.warns(RuntimeWarning):
            loaded = RunJournal.load(tmp_path / "run.jsonl")
        assert sorted(loaded.completed) == [results[0].index]

    def test_torn_line_is_truncated_warned_and_appendable(self, tmp_path):
        """Regression: the fragment must be truncated away, not merely
        skipped — a later append would otherwise weld onto the torn
        bytes, corrupting the *middle* of the file for the next load."""
        cells = tiny_cells(2)
        results = self._results(cells)
        journal = RunJournal.create(tmp_path / "run.jsonl", cells, "run-000")
        journal.append(results[0])
        clean_size = (tmp_path / "run.jsonl").stat().st_size
        with open(tmp_path / "run.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"type": "cell", "index": 1, "cel')  # kill mid-append

        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            loaded = RunJournal.load(tmp_path / "run.jsonl")
        assert (tmp_path / "run.jsonl").stat().st_size == clean_size

        loaded.append(results[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second load must be clean
            healed = RunJournal.load(tmp_path / "run.jsonl")
        assert sorted(healed.completed) == [r.index for r in results]

    def test_attempt_and_poison_records_roundtrip(self, tmp_path):
        cells = tiny_cells(2)
        results = self._results(cells)
        journal = RunJournal.create(tmp_path / "run.jsonl", cells, "run-000")
        journal.append(results[0])
        journal.append_attempt(1, attempt=1, reason="lost")
        journal.append_attempt(1, attempt=2, reason="error: boom")
        journal.append_poison(1, attempts=3, error="boom")

        loaded = RunJournal.load(tmp_path / "run.jsonl")
        assert sorted(loaded.completed) == [0]
        assert [r["attempt"] for r in loaded.attempts[1]] == [1, 2]
        assert loaded.poison_rows() == [
            {"index": 1, "attempts": 3, "error": "boom"}
        ]

        # Completed wins: a later success for the cell cures the poison,
        # both live and across a reload.
        loaded.append(results[1])
        assert loaded.poisoned == {}
        assert RunJournal.load(tmp_path / "run.jsonl").poisoned == {}

    def test_mid_file_corruption_raises(self, tmp_path):
        cells = tiny_cells(2)
        results = self._results(cells)
        journal = RunJournal.create(tmp_path / "run.jsonl", cells, "run-000")
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        body = "\n".join([lines[0], "NOT JSON"]) + "\n"
        (tmp_path / "run.jsonl").write_text(body)
        with open(tmp_path / "run.jsonl", "a", encoding="utf-8") as fh:
            for result in results:
                fh.write(json.dumps(cell_result_to_record(result)) + "\n")
        with pytest.raises(JournalError, match="corrupt at line 2"):
            RunJournal.load(tmp_path / "run.jsonl")

    def test_missing_header_raises(self, tmp_path):
        (tmp_path / "run.jsonl").write_text('{"type": "cell", "index": 0}\n')
        with pytest.raises(JournalError, match="no header"):
            RunJournal.load(tmp_path / "run.jsonl")

    def test_version_mismatch_raises(self, tmp_path):
        (tmp_path / "run.jsonl").write_text(
            '{"type": "header", "journal_version": 99, '
            '"fingerprint": "x", "cells": 0}\n'
        )
        with pytest.raises(JournalError, match="version"):
            RunJournal.load(tmp_path / "run.jsonl")

    def test_create_refuses_existing_path(self, tmp_path):
        RunJournal.create(tmp_path / "run.jsonl", tiny_cells(1), "a")
        with pytest.raises(JournalError, match="already exists"):
            RunJournal.create(tmp_path / "run.jsonl", tiny_cells(1), "b")

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        journal = RunJournal.create(
            tmp_path / "run.jsonl", tiny_cells(4), "run-000"
        )
        other = list(
            GridSpec(window_sizes=(20,), propagation_caps=(6,), seed=2).cells()
        )
        with pytest.raises(JournalError, match="different grid"):
            journal.check_matches(other)

    def test_new_run_id_sequences(self):
        fp = "abcdef012345"
        first = new_run_id(fp, [])
        assert first == "abcdef0123-000"
        assert new_run_id(fp, [first]) == "abcdef0123-001"
        assert new_run_id(fp, [first, "abcdef0123-001"]) == "abcdef0123-002"


class TestResume:
    def test_partial_journal_resumes_bit_identically(self, tmp_path):
        """Simulated kill: journal holds half the grid; the resumed run
        must splice those cells back and match an uninterrupted run."""
        cells = tiny_cells(4)
        suite = tiny_suite()
        reference = run_sweep(cells, cache=TraceCache(droidbench=suite))

        journal = RunJournal.create(tmp_path / "run.jsonl", cells, "run-000")
        for result in reference.cells[:2]:  # checkpointed before the kill
            journal.append(result)

        resumed_journal = RunJournal.load(tmp_path / "run.jsonl")
        resumed = run_sweep(
            cells,
            cache=TraceCache(droidbench=suite),
            journal=resumed_journal,
        )
        assert resumed.resumed == 2
        assert json.dumps(
            [c.as_dict() for c in resumed.cells], sort_keys=True
        ) == json.dumps(
            [c.as_dict() for c in reference.cells], sort_keys=True
        )
        # The finished run's journal now holds the whole grid...
        assert sorted(resumed_journal.completed) == [c.index for c in cells]
        # ...so resuming again evaluates nothing and still matches.
        rerun = run_sweep(
            cells,
            cache=TraceCache(droidbench=suite),
            journal=RunJournal.load(tmp_path / "run.jsonl"),
        )
        assert rerun.resumed == len(cells)
        assert json.dumps(
            [c.as_dict() for c in rerun.cells], sort_keys=True
        ) == json.dumps(
            [c.as_dict() for c in reference.cells], sort_keys=True
        )

    def test_fully_journaled_grid_records_nothing(self, tmp_path):
        cells = tiny_cells(2)
        suite = tiny_suite()
        journal = RunJournal.create(tmp_path / "run.jsonl", cells, "run-000")
        for result in run_sweep(cells, cache=TraceCache(droidbench=suite)).cells:
            journal.append(result)

        cache = TraceCache()  # would record the real suite if primed
        result = run_sweep(cells, cache=cache,
                           journal=RunJournal.load(tmp_path / "run.jsonl"))
        assert cache.recordings == 0
        assert result.resumed == len(cells)

    def test_duplicate_cell_indexes_rejected(self):
        cell = tiny_cells(1)[0]
        with pytest.raises(ValueError, match="unique"):
            run_sweep([cell, cell], cache=TraceCache(droidbench=tiny_suite()))


class TestMaintenance:
    def test_stats_schema(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        art.put_runs(TEST_KEY, tiny_suite())
        art.put_runs(malware_key(8), tiny_suite(1))
        RunJournal.create(art.journal_path("run-000"), tiny_cells(1), "run-000")
        stats = art.stats()
        assert set(stats) == {
            "root", "store_version", "entries", "payload_bytes", "kinds",
            "quarantined", "journals", "counters",
        }
        assert stats["entries"] == 2
        assert set(stats["kinds"]) == {"test", "malware"}
        assert stats["journals"] == ["run-000"]
        assert stats["payload_bytes"] > 0
        assert set(stats["counters"]) == {
            "hits", "misses", "writes", "corruptions",
        }

    def test_prune_clears_quarantine(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        art.put_runs(TEST_KEY, tiny_suite())
        payload_path, _ = _entry_files(art, TEST_KEY)
        payload_path.write_bytes(b"junk")
        art.get_runs(TEST_KEY)  # quarantines both files
        assert art.stats()["quarantined"] == 2
        report = art.prune()
        assert report["quarantine_files_removed"] == 2
        assert art.stats()["quarantined"] == 0

    def test_prune_max_bytes_drops_oldest_first(self, tmp_path):
        art = ArtifactStore(tmp_path / "store")
        old = StoreKey(kind="old", inputs=())
        new = StoreKey(kind="new", inputs=())
        art.put_runs(old, tiny_suite())
        payload_path, meta_path = _entry_files(art, old)
        meta = json.loads(meta_path.read_text())
        meta["created"] -= 3600  # age the first entry
        meta_path.write_text(json.dumps(meta))
        art.put_runs(new, tiny_suite(2))

        report = art.prune(max_bytes=art.stats()["payload_bytes"] - 1)
        assert report["removed_entries"] == 1
        assert not art.has(old)
        assert art.has(new)
