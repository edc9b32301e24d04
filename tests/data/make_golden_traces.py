"""Regenerate the golden trace fixtures (``golden_v2/v3.pift.gz``).

Run from the repo root::

    PYTHONPATH=src python tests/data/make_golden_traces.py

The traces are pure functions of the seeds below.  They exist to freeze
the on-disk format AND the replay semantics: ``test_golden_traces.py``
asserts the exact sink verdicts, instruction counts, and tracker stats
these runs produce, so any change to the tracefile codec, the replay
scheduler, Algorithm 1, or the vectorised kernel that shifts observable
behaviour trips the test.  If a change is *intentional*, re-run this
script and update the expectations in the test.
"""

import gzip
import json
import random
from pathlib import Path

from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.events import EventTrace, load, store
from repro.core.ranges import AddressRange
from repro.analysis import tracefile

HERE = Path(__file__).parent

SCRATCH = 1_000          # small region stores near sources land in
HEAP = 100_000           # wide untainted background region


def _background_event(rng, index, pid):
    base = HEAP + rng.randrange(0, 500_000)
    maker = load if rng.random() < 0.5 else store
    return maker(base, base + rng.choice((0, 3, 7)), index, pid)


def build_v3_run():
    """Two processes, interleaved; taint flows in PID 1, PID 2 stays clean."""
    rng = random.Random(2026)
    run = RecordedRun()
    cursors = {1: 0, 2: 0}
    run.sources.append(
        SourceRegistration(AddressRange(0, 15), 0, "imei", pid=1)
    )
    for i in range(3_000):
        pid = 1 if rng.random() < 0.6 else 2
        cursors[pid] += rng.randint(1, 4)
        index = cursors[pid]
        if pid == 1 and i % 400 == 0:
            # Tainted load from the source, then stores into scratch that
            # fall inside the freshly opened window.
            run.trace.append(load(0, 7, index, pid))
            for k in range(3):
                cursors[pid] += 2
                a = SCRATCH + 16 * ((i // 400) * 3 + k)
                run.trace.append(store(a, a + 7, cursors[pid], pid))
        elif pid == 1 and i % 900 == 899:
            # Wide scratch store: exercises untainting.
            run.trace.append(store(SCRATCH, SCRATCH + 255, index, pid))
        else:
            run.trace.append(_background_event(rng, index, pid))
    final = {p: c + 5 for p, c in cursors.items()}
    for pid, c in final.items():
        run.trace.note_instruction(c, pid=pid)
    run.sink_checks.extend(
        [
            SinkCheck(AddressRange(0, 3), final[1], "network", "socket", pid=1),
            SinkCheck(
                AddressRange(SCRATCH, SCRATCH + 63),
                final[1],
                "network",
                "socket",
                pid=1,
            ),
            SinkCheck(
                AddressRange(HEAP, HEAP + 4_095), final[1], "log", "logcat", pid=1
            ),
            SinkCheck(AddressRange(0, 3), final[2], "network", "socket", pid=2),
            SinkCheck(
                AddressRange(SCRATCH, SCRATCH + 63),
                final[2],
                "network",
                "socket",
                pid=2,
            ),
        ]
    )
    return run


def build_v2_run():
    """Single-process run matching what a version-2 writer could express."""
    rng = random.Random(777)
    run = RecordedRun()
    run.sources.append(
        SourceRegistration(AddressRange(64, 95), 0, "location")
    )
    index = 0
    for i in range(2_000):
        index += rng.randint(1, 3)
        if i % 500 == 0:
            run.trace.append(load(64, 71, index))
            for k in range(2):
                index += 1
                a = SCRATCH + 8 * ((i // 500) * 2 + k)
                run.trace.append(store(a, a + 7, index))
        else:
            run.trace.append(_background_event(rng, index, 0))
    run.trace.note_instruction(index + 3)
    run.sink_checks.extend(
        [
            SinkCheck(AddressRange(64, 67), index + 3, "sms", "sms"),
            SinkCheck(
                AddressRange(SCRATCH, SCRATCH + 31), index + 3, "sms", "sms"
            ),
            SinkCheck(
                AddressRange(HEAP, HEAP + 1_023), index + 3, "log", "logcat"
            ),
        ]
    )
    return run


def build_dense_run():
    """Taint-dense single-process run: Algorithm 1 fires on nearly every
    event (a tainted load every 4th event, 8-byte stores into an already
    tainted working buffer between them).  Nothing is skippable, so the
    vectorised replay runs it through the kernel's scalar hand-offs and
    bounded density bail-out; this freezes that path against the scalar
    loop, byte for byte."""
    rng = random.Random(82_026)
    run = RecordedRun()
    run.sources.append(SourceRegistration(AddressRange(0, 4_095), 0, "imei"))
    run.sources.append(
        SourceRegistration(AddressRange(8_192, 40_959), 0, "buffer")
    )
    index = 0
    for i in range(6_000):
        index += 1
        if i % 4 == 0:
            a = rng.randrange(0, 4_088)
            run.trace.append(load(a, a + 3, index))
        else:
            a = 8_192 + rng.randrange(0, 32_760)
            run.trace.append(store(a, a + 7, index))
    run.trace.note_instruction(index + 1)
    run.sink_checks.extend(
        [
            SinkCheck(AddressRange(8_192, 8_255), index + 1, "network",
                      "socket"),
            SinkCheck(AddressRange(HEAP, HEAP + 63), index + 1, "log",
                      "logcat"),
        ]
    )
    return run


def build_dense_prefix_run():
    """Taint/untaint churn prefix, then a long sparse tail.

    Each prefix triple taints a fresh range in-window then untaints it
    with an out-of-window overlapping store, so every event is relevant
    and the density bail-out engages.  The sparse tail must then re-enter
    the skip fast path via the bounded re-probe.  Freezes the bail-out +
    re-probe control flow end to end."""
    rng = random.Random(47)
    run = RecordedRun()
    run.sources.append(SourceRegistration(AddressRange(0, 15), 0, "imei"))
    index = 0
    for i in range(0, 1_500, 3):
        index += 1
        run.trace.append(load(0, 3, index))
        index += 1
        a = 50_000 + i * 16
        run.trace.append(store(a, a + 3, index))
        index += 20  # jump past NI=13: the overlap store untaints
        run.trace.append(store(a, a + 3, index))
    for _ in range(4_500):
        index += rng.randint(1, 3)
        a = 10_000_000 + rng.randrange(0, 500_000)
        maker = load if rng.random() < 0.5 else store
        run.trace.append(maker(a, a + 3, index))
    run.trace.note_instruction(index + 1)
    run.sink_checks.extend(
        [
            SinkCheck(AddressRange(0, 3), index + 1, "network", "socket"),
            SinkCheck(AddressRange(50_000, 50_063), index + 1, "network",
                      "socket"),
        ]
    )
    return run


def build_colours_run():
    """Multi-source run with *distinct* per-source flows — the coloured
    replay's attribution freeze.

    Three sources leak into three disjoint scratch areas, and a fourth
    area receives in-window stores from imei and location windows at
    different times, so its intervals carry a two-colour mask.  Sinks
    cover: a single-colour hit per flow, the mixed area (two colours on
    one verdict), and a clean heap region (no colours, untainted).  The
    union projection of this run is also frozen through the plain GOLDEN
    table — the same fixture pins both the verdict bits and the labels.
    """
    rng = random.Random(20_262)
    run = RecordedRun()
    area = {"imei": 2_000, "location": 3_000, "phone_number": 4_000}
    mixed = 5_000
    for slot, name in enumerate(area):
        lo = 64 * slot
        run.sources.append(
            SourceRegistration(AddressRange(lo, lo + 31), 0, name)
        )
    index = 0
    for i in range(2_400):
        index += 1
        cycle = i % 300
        if cycle in (0, 100, 200):
            name = list(area)[cycle // 100]
            run.trace.append(load(64 * (cycle // 100), 64 * (cycle // 100) + 7,
                                  index))
            for k in range(2):
                index += 2
                a = area[name] + 16 * ((i // 300) * 2 + k)
                run.trace.append(store(a, a + 7, index))
            # Every flow also drips into the shared mixed area — imei and
            # location only, so its masks settle at exactly two colours.
            if name != "phone_number":
                index += 2
                a = mixed + 16 * ((i // 300) % 8)
                run.trace.append(store(a, a + 7, index))
        else:
            run.trace.append(_background_event(rng, index, 0))
    run.trace.note_instruction(index + 1)
    run.sink_checks.extend(
        [
            SinkCheck(AddressRange(area["imei"], area["imei"] + 63),
                      index + 1, "network", "socket"),
            SinkCheck(AddressRange(area["location"], area["location"] + 63),
                      index + 1, "sms", "sms"),
            SinkCheck(AddressRange(area["phone_number"],
                                   area["phone_number"] + 63),
                      index + 1, "network", "socket"),
            SinkCheck(AddressRange(mixed, mixed + 127), index + 1,
                      "network", "socket"),
            SinkCheck(AddressRange(HEAP, HEAP + 1_023), index + 1,
                      "log", "logcat"),
        ]
    )
    return run


def write_v2(run: RecordedRun, path: Path) -> None:
    """Serialise the way the version-2 writer did: no pid fields at all."""
    document = {
        "format": tracefile.FORMAT_NAME,
        "version": 2,
        "events": tracefile._encode_events(run.trace),
        "sources": [
            {
                "start": s.address_range.start,
                "size": s.address_range.size,
                "index": s.instruction_index,
                "name": s.source_name,
            }
            for s in run.sources
        ],
        "sink_checks": [
            {
                "start": c.address_range.start,
                "size": c.address_range.size,
                "index": c.instruction_index,
                "name": c.sink_name,
                "channel": c.channel,
            }
            for c in run.sink_checks
        ],
    }
    assert "pids" not in document["events"], "v2 fixture must be single-PID"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))


def main() -> None:
    v3 = build_v3_run()
    tracefile.save_recorded_run(v3, HERE / "golden_v3.pift.gz")
    v2 = build_v2_run()
    write_v2(v2, HERE / "golden_v2.pift.gz")
    dense = build_dense_run()
    tracefile.save_recorded_run(dense, HERE / "golden_dense_v1.pift.gz")
    prefix = build_dense_prefix_run()
    tracefile.save_recorded_run(
        prefix, HERE / "golden_dense_prefix_v1.pift.gz"
    )
    colours = build_colours_run()
    tracefile.save_recorded_run(colours, HERE / "golden_colours_v1.pift.gz")
    for name, run in (
        ("v3", v3), ("v2", v2), ("dense_v1", dense),
        ("dense_prefix_v1", prefix), ("colours_v1", colours),
    ):
        print(
            f"golden_{name}: {len(run.trace)} events, "
            f"{run.instruction_count} instructions, "
            f"{len(run.sources)} sources, {len(run.sink_checks)} checks"
        )


if __name__ == "__main__":
    main()
