"""Unit tests for trace persistence and the command-line interface."""

import gzip
import json

import pytest

from repro.core.config import PIFTConfig
from repro.analysis.replay import replay
from repro.analysis.tracefile import (
    TraceFormatError,
    load_recorded_run,
    save_recorded_run,
)
from repro.apps.droidbench import app_by_name, record_app
from repro.__main__ import main


@pytest.fixture(scope="module")
def recorded():
    return record_app(app_by_name("GeneralJava.StringFormatter")).recorded


def _replace(column, position, value):
    def corrupt(events):
        events[column][position] = value
    return corrupt


#: Corruptions of a stored ``events`` body that leave the gzip and the
#: JSON readable; each must fail the load instead of decoding wrongly.
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
    "missing-sizes": lambda events: events.pop("sizes"),
}


def _set(records, **fields):
    def corrupt(run):
        run[records][0].update(fields)
    return corrupt


#: Corruptions of a stored run's first source or sink check that a
#: decoder without the wire's range rule would have taken as is.
BAD_SOURCE_AND_CHECK_FIELDS = {
    "source-bool-start": _set("sources", start=True, size=2.5),
    "source-float-start": _set("sources", start=4096.0),
    "source-float-size": _set("sources", size=2.5),
    "source-end-beyond-int64": _set("sources", start=2**63 - 1, size=2),
    "source-float-index": _set("sources", index=1.5),
    "source-bool-pid": _set("sources", pid=True),
    "check-float-size": _set("sink_checks", size=4.0),
    "check-float-index": _set("sink_checks", index=1.5),
    "check-bool-index": _set("sink_checks", index=True),
    "check-index-beyond-int64": _set("sink_checks", index=2**63),
    "check-string-pid": _set("sink_checks", pid="3"),
    "check-pid-beyond-int64": _set("sink_checks", pid=-2**63 - 1),
}


class TestTraceFile:
    def test_roundtrip_preserves_everything(self, recorded, tmp_path):
        path = save_recorded_run(recorded, tmp_path / "run.pift.gz")
        loaded = load_recorded_run(path)
        assert loaded.instruction_count == recorded.instruction_count
        assert len(loaded.trace) == len(recorded.trace)
        for original, restored in zip(recorded.trace, loaded.trace):
            assert original == restored
        assert loaded.sources == recorded.sources
        assert loaded.sink_checks == recorded.sink_checks

    def test_replay_of_loaded_trace_matches(self, recorded, tmp_path):
        path = save_recorded_run(recorded, tmp_path / "run.pift.gz")
        loaded = load_recorded_run(path)
        for config in (PIFTConfig(13, 3), PIFTConfig(1, 1)):
            original = replay(recorded, config)
            restored = replay(loaded, config)
            assert original.alarm == restored.alarm
            assert (
                original.stats.taint_operations
                == restored.stats.taint_operations
            )

    def test_file_is_inspectable_json(self, recorded, tmp_path):
        path = save_recorded_run(recorded, tmp_path / "run.pift.gz")
        with gzip.open(path, "rt") as handle:
            document = json.load(handle)
        assert document["format"] == "pift-trace"
        assert len(document["events"]["kinds"]) == len(recorded.trace)

    def test_rejects_garbage(self, tmp_path):
        garbage = tmp_path / "bad.gz"
        garbage.write_bytes(b"not a gzip file")
        with pytest.raises(TraceFormatError):
            load_recorded_run(garbage)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.gz"
        with gzip.open(path, "wt") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(TraceFormatError):
            load_recorded_run(path)

    def test_rejects_wrong_version(self, recorded, tmp_path):
        path = save_recorded_run(recorded, tmp_path / "run.pift.gz")
        with gzip.open(path, "rt") as handle:
            document = json.load(handle)
        document["version"] = 999
        with gzip.open(path, "wt") as handle:
            json.dump(document, handle)
        with pytest.raises(TraceFormatError):
            load_recorded_run(path)

    @pytest.mark.parametrize("corrupt", BAD_EVENT_COLUMNS.values(),
                             ids=list(BAD_EVENT_COLUMNS))
    def test_rejects_malformed_event_columns(self, recorded, tmp_path,
                                             corrupt):
        path = save_recorded_run(recorded, tmp_path / "run.pift.gz")
        with gzip.open(path, "rt") as handle:
            document = json.load(handle)
        corrupt(document["events"])
        with gzip.open(path, "wt") as handle:
            json.dump(document, handle)
        with pytest.raises(TraceFormatError):
            load_recorded_run(path)

    @pytest.mark.parametrize("corrupt", BAD_SOURCE_AND_CHECK_FIELDS.values(),
                             ids=list(BAD_SOURCE_AND_CHECK_FIELDS))
    def test_rejects_malformed_sources_and_checks(self, recorded, tmp_path,
                                                  corrupt):
        path = save_recorded_run(recorded, tmp_path / "run.pift.gz")
        with gzip.open(path, "rt") as handle:
            document = json.load(handle)
        corrupt(document)
        with gzip.open(path, "wt") as handle:
            json.dump(document, handle)
        with pytest.raises(TraceFormatError):
            load_recorded_run(path)


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Unknown" in out and "return" in out

    def test_malware(self, capsys):
        assert main(["malware", "--ni", "3", "--nt", "2"]) == 0
        out = capsys.readouterr().out
        assert "7/7 detected" in out

    def test_trace_then_analyze(self, tmp_path, capsys):
        trace_path = str(tmp_path / "lg.pift.gz")
        assert main(["trace", trace_path, "--work", "16"]) == 0
        assert main(["analyze", trace_path, "--ni", "13", "--nt", "3"]) == 0
        out = capsys.readouterr().out
        assert "LEAK DETECTED" in out

    def test_analyze_respects_untainting_flag(self, tmp_path, capsys):
        trace_path = str(tmp_path / "lg.pift.gz")
        main(["trace", trace_path, "--work", "16"])
        capsys.readouterr()
        main(["analyze", trace_path, "--no-untainting"])
        out = capsys.readouterr().out
        assert "0 untaints" in out

    def test_suite_smoke(self, capsys):
        assert main(["suite", "--ni", "13", "--nt", "3"]) == 0
        out = capsys.readouterr().out
        assert "accuracy 98.2%" in out
        assert "missed: ImplicitFlows.ImplicitFlow2" in out
