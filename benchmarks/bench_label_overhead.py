"""Label-overhead benchmark — what do colour masks cost the hot path?

The coloured tracker (:class:`repro.core.tracker.ColourTracker`) carries
a 64-bit provenance mask per taint interval so sink hits can be
attributed to their source colours.  Its union projection is
byte-identical to the plain single-bit tracker, so the only acceptable
price is *time* — and this benchmark bounds that price:

1. **Label overhead ratio** — ``plain_seconds / coloured_seconds`` over
   a multi-source replay (higher is better; 1.0 = free).  Gated against
   ``BENCH_history.jsonl`` (``label_overhead_ratio``), with a hard floor
   asserted regardless of history: colour masks may not make replay more
   than ~6x slower even on this trace, which is deliberately adversarial
   — four colours round-robin into one shared scratch, so nearly every
   taint store ORs new bits into covered ranges (mask churn defeats both
   interval coalescing and the dense executor's absorbed test; measured
   overhead sits near ~3.5x here vs ~1x on phase-local traces, where one
   colour dominates at a time and intervals coalesce back to plain-
   RangeSet structure).
2. **Union parity** — the coloured replay's verdict bits must equal the
   plain replay's, cell for cell, on the same trace (the differential
   suite's oracle, re-checked here so the timing claim is about
   equivalent work).

Runnable two ways:

* under pytest-benchmark (tier-2):
  ``pytest benchmarks/bench_label_overhead.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_label_overhead.py
  [--smoke] [--json BENCH_labels.json] [--history BENCH_history.jsonl]
  [--gate]`` — the CI executor-smoke job runs ``--smoke --gate``.
  The gated metric is a dimensionless ratio of two runs on the same
  machine, so it is robust to CI hosts of different speeds.
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro import perf
from repro.core import PIFTConfig

REGRESSION_TOLERANCE = perf.REGRESSION_TOLERANCE

#: The history-record key this benchmark gates on.
GATE_METRIC = "label_overhead_ratio"

#: Hard floor asserted regardless of history: coloured replay may cost
#: at most ~6x the plain replay on the same (adversarial mask-churn)
#: trace.  A catastrophe backstop — drift within the floor is what the
#: history-median ``--gate`` is for.
OVERHEAD_FLOOR = 0.15

#: (NI, NT) cells the overhead is summed over — the paper default plus a
#: wide-window point where bulk dense commits dominate.
CELLS = ((13, 3), (34, 6))

SOURCE_SIZE = 4_096
SCRATCH_LO, SCRATCH_HI = 1 << 20, (1 << 20) + 65_535

#: Source names double as provenance colours (the DroidBench pattern).
SOURCES = ("imei", "location", "phone_number", "sim_serial")


def coloured_recorded_run(events: int = 120_000, seed: int = 2026):
    """A multi-source recorded run: four secrets, one shared scratch.

    Each source owns a disjoint range; the event loop round-robins loads
    across the sources and stores into the shared scratch buffer, so
    windows of different colours interleave and commits carry distinct
    masks — the worst realistic case for per-interval mask bookkeeping
    (single-colour traces coalesce back to plain-RangeSet structure).
    """
    from repro.android.device import (
        RecordedRun, SinkCheck, SourceRegistration,
    )
    from repro.core.events import load, store
    from repro.core.ranges import AddressRange

    rng = random.Random(seed)
    run = RecordedRun()
    source_ranges = []
    for slot, name in enumerate(SOURCES):
        lo = slot * 2 * SOURCE_SIZE
        source_ranges.append((lo, lo + SOURCE_SIZE - 1))
        run.sources.append(
            SourceRegistration(
                AddressRange(lo, lo + SOURCE_SIZE - 1), 0, name
            )
        )
    index = 0
    for i in range(events):
        index += 1
        if i % 4 == 0:
            lo, hi = source_ranges[(i // 4) % len(source_ranges)]
            a = lo + rng.randrange(0, hi - lo - 8)
            run.trace.append(load(a, a + 3, index))
        else:
            a = SCRATCH_LO + rng.randrange(0, SCRATCH_HI - SCRATCH_LO - 8)
            run.trace.append(store(a, a + 7, index))
    run.trace.note_instruction(index + 1)
    for offset, (sink, channel) in enumerate(
        (("network", "socket"), ("sms", "sms"), ("log", "log"))
    ):
        run.sink_checks.append(
            SinkCheck(
                AddressRange(
                    SCRATCH_LO + offset * 4_096,
                    SCRATCH_LO + offset * 4_096 + 255,
                ),
                index + 1, sink, channel,
            )
        )
    return run


def _verdict_bits(result):
    return [
        (o.sink_name, o.channel, o.instruction_index, o.pid, o.tainted)
        for o in result.sink_outcomes
    ]


def measure_overhead(events: int = 120_000, rounds: int = 3) -> dict:
    """Plain vs coloured replay over CELLS on the same recorded run."""
    from repro.analysis.replay import replay, replay_coloured

    recorded = coloured_recorded_run(events=events)
    recorded.trace.columns().arrays()  # warm the shared one-time caches
    cells = []
    plain_total = 0.0
    coloured_total = 0.0
    union_identical = True
    attributed = 0
    for window_size, cap in CELLS:
        config = PIFTConfig(window_size, cap)
        timings = {}
        results = {}
        for label, fn in (("plain", replay), ("coloured", replay_coloured)):
            best = float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                result = fn(recorded, config)
                best = min(best, time.perf_counter() - started)
            timings[label] = best
            results[label] = result
        cell_identical = _verdict_bits(results["plain"]) == _verdict_bits(
            results["coloured"]
        )
        union_identical = union_identical and cell_identical
        attributed += sum(
            1 for o in results["coloured"].sink_outcomes if o.colours
        )
        plain_total += timings["plain"]
        coloured_total += timings["coloured"]
        cells.append({
            "window_size": window_size,
            "max_propagations": cap,
            "plain_seconds": timings["plain"],
            "coloured_seconds": timings["coloured"],
            "overhead_ratio": timings["plain"] / timings["coloured"],
            "union_identical": cell_identical,
        })
    return {
        "events": len(recorded.trace),
        "sources": len(SOURCES),
        "cells": cells,
        "plain_seconds": plain_total,
        "coloured_seconds": coloured_total,
        "overhead_ratio": (
            plain_total / coloured_total if coloured_total else 0.0
        ),
        "union_identical": union_identical,
        "attributed_sinks": attributed,
    }


# -- pytest-benchmark entry points ------------------------------------------


def test_label_overhead(benchmark):
    """Colour masks may cost at most ~6x on an adversarial multi-source
    replay, with the union projection bit-identical to the plain
    tracker."""
    from repro.analysis.replay import replay, replay_coloured

    recorded = coloured_recorded_run(events=60_000)
    recorded.trace.columns().arrays()
    config = PIFTConfig(13, 3)
    started = time.perf_counter()
    plain_result = replay(recorded, config)
    plain_seconds = time.perf_counter() - started
    coloured_result = benchmark.pedantic(
        lambda: replay_coloured(recorded, config), rounds=3, iterations=1
    )
    assert _verdict_bits(coloured_result) == _verdict_bits(plain_result)
    assert any(o.colours for o in coloured_result.sink_outcomes)
    ratio = plain_seconds / benchmark.stats.stats.mean
    print(f"\nlabel overhead: {plain_seconds:.3f}s plain vs "
          f"{benchmark.stats.stats.mean:.3f}s coloured "
          f"(ratio {ratio:.2f})")
    benchmark.extra_info["label_overhead_ratio"] = ratio
    assert ratio >= OVERHEAD_FLOOR


# -- standalone mode ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PIFT colour-label overhead benchmark (standalone mode)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="reduced event counts for CI")
    parser.add_argument("--json", metavar="PATH",
                        default="BENCH_labels.json",
                        help="write results here (default BENCH_labels.json)")
    parser.add_argument("--history", metavar="PATH",
                        default="BENCH_history.jsonl",
                        help="append one summary line per run here "
                             "(default BENCH_history.jsonl)")
    parser.add_argument("--gate", action="store_true",
                        help="fail if the label overhead ratio regressed "
                             f">{REGRESSION_TOLERANCE:.0%} vs the history "
                             "baseline (median of prior runs)")
    args = parser.parse_args(argv)

    overhead = measure_overhead(events=60_000 if args.smoke else 160_000)
    print(
        f"label overhead: ratio {overhead['overhead_ratio']:.2f} "
        f"(plain {overhead['plain_seconds']:.3f}s / coloured "
        f"{overhead['coloured_seconds']:.3f}s) across "
        f"{len(overhead['cells'])} cells x {overhead['events']} events, "
        f"{overhead['sources']} sources "
        f"(union_identical={overhead['union_identical']}, "
        f"{overhead['attributed_sinks']} attributed sinks)",
        file=sys.stderr,
    )
    payload = {
        "mode": "smoke" if args.smoke else "full",
        "overhead": overhead,
    }
    print(json.dumps(payload, indent=2))
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    history_path = Path(args.history)
    history = perf.load_history(history_path, GATE_METRIC)
    gate_ok, baseline = perf.check_regression(
        history, overhead["overhead_ratio"], GATE_METRIC
    )
    perf.append_history(history_path, {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": payload["mode"],
        "label_overhead_ratio": overhead["overhead_ratio"],
        "label_events": overhead["events"],
        "label_sources": overhead["sources"],
        "union_identical": overhead["union_identical"],
    })
    if baseline is not None:
        print(
            f"regression gate: current {overhead['overhead_ratio']:.2f} vs "
            f"baseline {baseline:.2f} (median of {len(history)} runs) "
            f"-> {'ok' if gate_ok else 'REGRESSED'}",
            file=sys.stderr,
        )

    ok = overhead["union_identical"]
    ok = ok and overhead["attributed_sinks"] > 0
    ok = ok and overhead["overhead_ratio"] >= OVERHEAD_FLOOR
    if args.gate:
        ok = ok and gate_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
