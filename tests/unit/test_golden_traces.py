"""Golden-trace regression freeze.

``tests/data/golden_v{2,3}.pift.gz`` are committed fixtures produced by
``tests/data/make_golden_traces.py``.  These tests replay them and assert
the *exact* observable outcome — sink verdicts, instruction counts, and
tracker stats — so any drift in the tracefile codec, the replay
scheduler, Algorithm 1, or the vectorised kernel is caught against a
byte-frozen input.  Intentional semantic changes must regenerate the
fixtures and update the expectations here, in the same commit.
"""

import gzip
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.replay import replay
from repro.analysis.tracefile import load_recorded_run
from repro.core.config import PAPER_DEFAULT

DATA = Path(__file__).parent.parent / "data"

#: (fixture name, expected instruction_count, expected event count,
#:  expected [(sink, pid, tainted)] in replay order, expected stats).
GOLDEN = {
    "golden_v3": {
        "instruction_count": 7550,
        "events": 3015,
        "verdicts": [
            ("network", 2, False),
            ("network", 2, False),
            ("network", 1, True),
            ("network", 1, False),
            ("log", 1, False),
        ],
        "stats": {
            "instructions_observed": 7540,
            "loads_observed": 1524,
            "stores_observed": 1491,
            "tainted_loads": 5,
            "taint_operations": 15,
            "untaint_operations": 1,
            "max_tainted_bytes": 136,
            "max_range_count": 16,
        },
    },
    "golden_dense_v1": {
        "instruction_count": 6002,
        "events": 6000,
        "verdicts": [
            ("network", 0, True),
            ("log", 0, False),
        ],
        "stats": {
            "instructions_observed": 6001,
            "loads_observed": 1500,
            "stores_observed": 4500,
            "tainted_loads": 1500,
            "taint_operations": 4500,
            "untaint_operations": 0,
            "max_tainted_bytes": 36864,
            "max_range_count": 2,
        },
    },
    "golden_dense_prefix_v1": {
        "instruction_count": 20135,
        "events": 6000,
        "verdicts": [
            ("network", 0, True),
            ("network", 0, False),
        ],
        "stats": {
            "instructions_observed": 20134,
            "loads_observed": 2660,
            "stores_observed": 3340,
            "tainted_loads": 500,
            "taint_operations": 500,
            "untaint_operations": 500,
            "max_tainted_bytes": 20,
            "max_range_count": 2,
        },
    },
    "golden_colours_v1": {
        "instruction_count": 2530,
        "events": 2464,
        "verdicts": [
            ("network", 0, True),
            ("sms", 0, True),
            ("network", 0, True),
            ("network", 0, True),
            ("log", 0, False),
        ],
        "stats": {
            "instructions_observed": 2529,
            "loads_observed": 1176,
            "stores_observed": 1288,
            "tainted_loads": 24,
            "taint_operations": 72,
            "untaint_operations": 0,
            "max_tainted_bytes": 575,
            "max_range_count": 67,
        },
    },
    "golden_v2": {
        "instruction_count": 3979,
        "events": 2008,
        "verdicts": [
            ("sms", 0, True),
            ("sms", 0, True),
            ("log", 0, False),
        ],
        "stats": {
            "instructions_observed": 3976,
            "loads_observed": 1000,
            "stores_observed": 1008,
            "tainted_loads": 4,
            "taint_operations": 12,
            "untaint_operations": 0,
            "max_tainted_bytes": 117,
            "max_range_count": 6,
        },
    },
}


def _load(name):
    return load_recorded_run(DATA / f"{name}.pift.gz")


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("vectorized", [True, False], ids=["vec", "scalar"])
def test_golden_replay_is_frozen(name, vectorized):
    expected = GOLDEN[name]
    recorded = _load(name)
    assert recorded.instruction_count == expected["instruction_count"]
    assert len(recorded.trace) == expected["events"]
    result = replay(recorded, replace(PAPER_DEFAULT, vectorized=vectorized))
    assert [
        (o.sink_name, o.pid, o.tainted) for o in result.sink_outcomes
    ] == expected["verdicts"]
    stats = result.stats.as_dict()
    for key, value in expected["stats"].items():
        assert stats[key] == value, f"{name}: stats[{key}]"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_strategies_bit_identical(name):
    recorded = _load(name)
    runs = {}
    for vectorized in (True, False):
        result = replay(
            recorded, replace(PAPER_DEFAULT, vectorized=vectorized)
        )
        runs[vectorized] = json.dumps(
            {
                "stats": result.stats.as_dict(),
                "verdicts": [
                    (o.sink_name, o.channel, o.instruction_index, o.pid,
                     o.tainted)
                    for o in result.sink_outcomes
                ],
            },
            sort_keys=True,
        )
    assert runs[True] == runs[False]


def test_golden_dense_prefix_trips_and_recovers(monkeypatch):
    """``golden_dense_prefix_v1`` must engage the density bail-out on
    its churn prefix (scalar spans happen) while every span stays
    bounded — the one-way wholesale hand-off this PR removed would show
    up here as a single span swallowing the sparse tail."""
    from repro.core.tracker import PIFTTracker
    from repro.core.vectorized import REPROBE_EVERY

    recorded = _load("golden_dense_prefix_v1")
    spans = []
    original = PIFTTracker.observe_columns_scalar

    def counting(self, columns, start=0, stop=None):
        spans.append((start, len(columns) if stop is None else stop))
        return original(self, columns, start, stop)

    monkeypatch.setattr(PIFTTracker, "observe_columns_scalar", counting)
    replay(recorded, replace(PAPER_DEFAULT, vectorized=True))
    assert spans, "churn prefix should force scalar spans"
    assert max(hi - lo for lo, hi in spans) <= REPROBE_EVERY


#: Frozen per-sink colour attribution of ``golden_colours_v1`` — three
#: single-colour flows, one mixed (two-colour) area, one clean sink.
GOLDEN_COLOUR_VERDICTS = [
    ("network", "socket", True, ("imei",)),
    ("sms", "sms", True, ("location",)),
    ("network", "socket", True, ("phone_number",)),
    ("network", "socket", True, ("imei", "location")),
    ("log", "logcat", False, ()),
]


@pytest.mark.parametrize("vectorized", [True, False], ids=["vec", "scalar"])
def test_golden_colours_attribution_is_frozen(vectorized):
    """The coloured replay of ``golden_colours_v1`` must attribute every
    sink hit to exactly these source colours — including the mixed area
    whose intervals carry a two-colour mask — and its stats must equal
    the plain replay's (the colour layer adds labels, never events)."""
    from repro.analysis.replay import replay_coloured

    recorded = _load("golden_colours_v1")
    config = replace(PAPER_DEFAULT, vectorized=vectorized)
    coloured = replay_coloured(recorded, config)
    assert [
        (o.sink_name, o.channel, o.tainted, o.colours)
        for o in coloured.sink_outcomes
    ] == GOLDEN_COLOUR_VERDICTS
    assert all(
        o.tainted == bool(o.colours) for o in coloured.sink_outcomes
    )
    plain = replay(recorded, config)
    assert coloured.stats.as_dict() == plain.stats.as_dict()


def test_golden_v2_document_shape():
    """The v2 fixture must stay a faithful version-2 document: version
    field 2 and no pid keys anywhere (the v2 writer predates them)."""
    with gzip.open(DATA / "golden_v2.pift.gz", "rt", encoding="utf-8") as fh:
        document = json.load(fh)
    assert document["version"] == 2
    assert "pids" not in document["events"]
    assert all("pid" not in s for s in document["sources"])
    assert all("pid" not in c for c in document["sink_checks"])


def test_golden_v3_document_shape():
    with gzip.open(DATA / "golden_v3.pift.gz", "rt", encoding="utf-8") as fh:
        document = json.load(fh)
    assert document["version"] == 3
    assert "pids" in document["events"]
    assert {s["pid"] for s in document["sources"]} == {1}
    assert {c["pid"] for c in document["sink_checks"]} == {1, 2}
