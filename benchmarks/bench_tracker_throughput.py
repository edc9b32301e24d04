"""Tracker hot-path throughput — the cost side of the paper's design.

PIFT's premise is that per-event work is tiny: a range-overlap lookup per
load, a bounded insert/remove per store.  These microbenchmarks measure
the software model's sustained event rate on the LGRoot stream for the
tracker configurations that matter:

* the unbounded software RangeSet reference,
* the paper's 32KB cache-of-ranges hardware model,
* untainting on vs off,
* the full-DIFT baseline's per-record cost, for contrast.

Runnable two ways:

* under pytest-benchmark (tier-2): ``pytest benchmarks/bench_tracker_throughput.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_tracker_throughput.py
  [--smoke] [--json BENCH_tracker.json] [--history BENCH_history.jsonl]
  [--gate]`` — appends one summary line to the shared history file and,
  with ``--gate``, exits non-zero if the *normalised* tracker throughput
  regressed more than 25% against the history median
  (:mod:`repro.perf`).  The gated metric divides tracker events/s by a
  plain-Python calibration loop's ops/s measured in the same process, so
  it is dimensionless and robust to CI machines of different speeds.
"""

import argparse
import json
import sys
import time

import pytest

from repro import perf
from repro.core import PAPER_DEFAULT, PIFTConfig, PIFTTracker
from repro.core.taint_storage import BoundedRangeCache, entry_capacity

#: The history-record key this benchmark gates on.
GATE_METRIC = "tracker_normalized"


@pytest.fixture(scope="module")
def event_stream(lgroot_trace):
    return list(lgroot_trace.trace)


@pytest.fixture(scope="module")
def source_ranges(lgroot_trace):
    return [source.address_range for source in lgroot_trace.sources]


def _run_tracker(events, sources, config, state_factory=None):
    kwargs = {"state_factory": state_factory} if state_factory else {}
    tracker = PIFTTracker(config, **kwargs)
    for source in sources:
        tracker.taint_source(source)
    tracker.run(events)
    return tracker


def test_throughput_reference_rangeset(
    benchmark, measured, event_stream, source_ranges
):
    tracker, seconds = measured(
        lambda: _run_tracker(event_stream, source_ranges, PAPER_DEFAULT)
    )
    events_per_second = len(event_stream) / (sum(seconds) / len(seconds))
    print(f"\nRangeSet tracker: {events_per_second:,.0f} events/s "
          f"({len(event_stream)} events)")
    benchmark.extra_info["events"] = len(event_stream)
    assert tracker.stats.loads_observed > 0


def test_throughput_paper_hardware_model(benchmark, event_stream, source_ranges):
    factory = lambda: BoundedRangeCache(entry_capacity(32 * 1024))
    tracker = benchmark(
        _run_tracker, event_stream, source_ranges, PAPER_DEFAULT, factory
    )
    print(f"\n32KB cache-of-ranges model over {len(event_stream)} events")
    assert tracker.stats.loads_observed > 0


def test_throughput_untainting_off(benchmark, event_stream, source_ranges):
    tracker = benchmark(
        _run_tracker,
        event_stream,
        source_ranges,
        PAPER_DEFAULT.with_untainting(False),
    )
    assert tracker.stats.untaint_operations == 0


def test_untainting_keeps_state_small_hence_fast(
    benchmark, event_stream, source_ranges
):
    """Untainting's point is bounding the state per-event lookups run
    against; the range-count high-water marks make that visible."""
    def run_both():
        return (
            _run_tracker(event_stream, source_ranges, PAPER_DEFAULT),
            _run_tracker(
                event_stream, source_ranges,
                PAPER_DEFAULT.with_untainting(False),
            ),
        )

    with_untaint, without_untaint = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    assert (
        with_untaint.stats.max_range_count
        <= without_untaint.stats.max_range_count + 8
    )


def test_throughput_full_dift_baseline(benchmark):
    """Per-record cost of the byte-exact baseline on the same workload."""
    from repro.core.ranges import AddressRange
    from repro.baseline import FullDIFTTracker
    from repro.android import AndroidDevice
    from repro.apps.malware import SAMPLES

    device = AndroidDevice(config=PAPER_DEFAULT, keep_full_trace=True)
    device.install(SAMPLES[0].build(device, 64))
    device.run(SAMPLES[0].entry)
    records = device.full_trace.records
    sources = [s.address_range for s in device.recorded.sources]

    def run_baseline():
        baseline = FullDIFTTracker()
        for source in sources:
            baseline.taint_source(source)
        baseline.run(records)
        return baseline

    baseline = benchmark(run_baseline)
    print(f"\nfull DIFT over {len(records)} records "
          f"({baseline.stats.instructions_processed} instructions)")
    assert baseline.stats.instructions_processed == len(records)


# -- standalone mode: calibrated throughput + regression gate ----------------


def calibration_rate(iterations: int = 1_000_000, rounds: int = 3) -> float:
    """Machine-speed yardstick: plain-Python compare/add loop, ops/s.

    The tracker hot path is interpreted Python (compares, attribute
    walks, small-int arithmetic); a loop of the same species tracks the
    interpreter speed of the machine, so events/s divided by this rate
    is a dimensionless per-machine constant.
    """
    best = float("inf")
    for _ in range(rounds):
        acc = 0
        started = time.perf_counter()
        for i in range(iterations):
            if acc <= i:
                acc += 1
        best = min(best, time.perf_counter() - started)
    return iterations / best


def measure_throughput(work: int = 160, rounds: int = 3) -> dict:
    """RangeSet tracker events/s on the LGRoot stream, best-of-rounds."""
    from repro.apps.malware import record_lgroot_trace

    recorded = record_lgroot_trace(work=work)
    events = list(recorded.trace)
    sources = [s.address_range for s in recorded.sources]
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        tracker = _run_tracker(events, sources, PAPER_DEFAULT)
        best = min(best, time.perf_counter() - started)
    assert tracker.stats.loads_observed > 0
    calibration = calibration_rate()
    events_per_second = len(events) / best
    return {
        "work": work,
        "events": len(events),
        "tracker_seconds": best,
        "events_per_second": events_per_second,
        "calibration_ops_per_second": calibration,
        GATE_METRIC: events_per_second / calibration,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PIFT tracker-throughput benchmark (standalone mode)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="smaller LGRoot workload for CI")
    parser.add_argument("--json", metavar="PATH",
                        default="BENCH_tracker.json",
                        help="write results here (default BENCH_tracker.json)")
    parser.add_argument("--history", metavar="PATH",
                        default="BENCH_history.jsonl",
                        help="append one summary line per run here "
                             "(default BENCH_history.jsonl)")
    parser.add_argument("--gate", action="store_true",
                        help="fail if normalized tracker throughput "
                             "regressed "
                             f">{perf.REGRESSION_TOLERANCE * 100:.0f}%% "
                             "vs the history baseline (median)")
    args = parser.parse_args(argv)

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "throughput": measure_throughput(work=40 if args.smoke else 160),
    }
    throughput = payload["throughput"]
    print(
        f"tracker: {throughput['events_per_second']:,.0f} events/s over "
        f"{throughput['events']} events; calibration "
        f"{throughput['calibration_ops_per_second']:,.0f} ops/s; "
        f"normalized {throughput[GATE_METRIC]:.3f}",
        file=sys.stderr,
    )
    print(json.dumps(payload, indent=2))
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    history = perf.load_history(args.history, GATE_METRIC)
    gate_ok, baseline = perf.check_regression(
        history, throughput[GATE_METRIC], GATE_METRIC
    )
    perf.append_history(args.history, {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": payload["mode"],
        GATE_METRIC: throughput[GATE_METRIC],
        "events_per_second": throughput["events_per_second"],
        "calibration_ops_per_second": (
            throughput["calibration_ops_per_second"]
        ),
        "events": throughput["events"],
    })
    if baseline is not None:
        print(
            f"regression gate: current {throughput[GATE_METRIC]:.3f} vs "
            f"baseline {baseline:.3f} (median of {len(history)} runs) "
            f"-> {'ok' if gate_ok else 'REGRESSED'}",
            file=sys.stderr,
        )
    return 0 if (gate_ok or not args.gate) else 1


if __name__ == "__main__":
    sys.exit(main())
