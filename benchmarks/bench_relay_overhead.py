"""Extension — cross-process telemetry overhead on a parallel sweep.

With a hub attached, every sweep worker's cell spans and metric deltas
ride its results over the lease dispatcher's per-worker pipe and merge
into the parent hub (:mod:`repro.telemetry.relay`), and the pipe's
heartbeats become parent ``heartbeat`` events, while a ``--jobs N``
sweep runs.  That observability must stay cheap:
the telemetered sweep may cost at most :data:`OVERHEAD_BOUND` (10%)
extra wall time over the telemetry-off sweep of the same grid, and the
grid results must stay byte-identical either way.

Runnable two ways:

* under pytest-benchmark (tier-2): ``pytest benchmarks/bench_relay_overhead.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_relay_overhead.py
  [--smoke] [--json BENCH_relay.json] [--history BENCH_history.jsonl]
  [--gate]`` — the CI smoke job runs ``--smoke --gate``; every
  standalone run appends one JSON line to the history file, and
  ``--gate`` exits non-zero when the off/on wall-time ratio either
  regressed more than :data:`REGRESSION_TOLERANCE` against the history
  baseline (median of prior runs) or fell below the absolute floor
  ``1 / (1 + OVERHEAD_BOUND)``.  The gated metric is a dimensionless
  ratio of two runs on the same machine, so it is robust to CI hosts of
  different speeds.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro import perf
from repro.sweep import GridSpec, TraceCache, run_sweep
from repro.telemetry import Telemetry

#: --gate fails when the off/on ratio drops more than this fraction
#: below the history baseline.
REGRESSION_TOLERANCE = perf.REGRESSION_TOLERANCE

#: The history-record key this benchmark gates on.
GATE_METRIC = "relay_off_over_on"

#: Telemetry may add at most this fraction of wall time to a sweep.
OVERHEAD_BOUND = 0.10

#: Absolute gate floor: wall_off / wall_on at exactly 10% overhead.
RATIO_FLOOR = 1.0 / (1.0 + OVERHEAD_BOUND)

#: Full measurement grid: 4x3 configs x 2 rates = 24 cells at jobs=2.
FULL_GRID = GridSpec(
    window_sizes=(1, 5, 13, 20),
    propagation_caps=(1, 3, 6),
    rates=(0.0, 1e-2),
    seed=1,
)

#: Reduced grid for the CI smoke job.  12 cells, not 4: the gate is a
#: wall-time *ratio*, and a sub-0.2s sweep leaves scheduler noise worth
#: several percent of the measurement.
SMOKE_GRID = GridSpec(
    window_sizes=(1, 5, 13, 20),
    propagation_caps=(2, 3, 6),
    rates=(0.0,),
    seed=1,
)

JOBS = 2


def primed_cache() -> TraceCache:
    cache = TraceCache()
    cache.prime(droidbench=True)
    cache.prime_replay_state()
    return cache


def _grid_digest(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def _relay_accounting(telemetry: Telemetry) -> dict:
    """Parent-side worker-telemetry counters from the hub's snapshot."""
    sweep = telemetry.snapshot().get("sweep", {})

    def value(name):
        return sweep.get(name, {}).get("value", 0)

    return {
        "events_merged": value("sweep.relay.events_merged"),
        "heartbeats": value("sweep.relay.heartbeats"),
    }


def measure_relay_overhead(
    grid: GridSpec, cache: TraceCache, jobs: int = JOBS, rounds: int = 3
) -> dict:
    """Best-of-``rounds`` wall time, telemetry off vs on, same grid.

    The telemetered run gets a fresh :class:`Telemetry` hub each round
    so worker telemetry (worker hubs, payloads on each result, heartbeat
    events, metric merging) is exercised end to end exactly as
    ``--telemetry`` would; the off run is the same dispatched sweep
    without a hub.
    """
    timings = {}
    digests = {}
    accounting = {}
    for telemetered in (False, True):
        best = float("inf")
        for _ in range(rounds):
            telemetry = Telemetry() if telemetered else None
            started = time.perf_counter()
            result = run_sweep(grid, cache=cache, jobs=jobs,
                               telemetry=telemetry)
            best = min(best, time.perf_counter() - started)
            if telemetered:
                accounting = _relay_accounting(telemetry)
        timings[telemetered] = best
        digests[telemetered] = _grid_digest(result)
    identical = digests[False] == digests[True]
    ratio = timings[False] / timings[True] if timings[True] else 0.0
    overhead = (timings[True] / timings[False] - 1.0) if timings[False] else 0.0
    return {
        "grid_cells": len(grid),
        "jobs": jobs,
        "rounds": rounds,
        "wall_seconds_off": timings[False],
        "wall_seconds_on": timings[True],
        "relay_off_over_on": ratio,
        "relay_overhead": overhead,
        "identical": identical,
        "relay": accounting,
    }


# -- BENCH_history.jsonl + regression gate (delegates to repro.perf) ----------


def load_history(path: Path) -> list:
    """All prior records for this benchmark's gate metric."""
    return perf.load_history(path, GATE_METRIC)


def append_history(path: Path, record: dict) -> None:
    perf.append_history(path, record)


def check_regression(history: list, current: float) -> tuple:
    """(ok, baseline) — ok is False when current regressed > tolerance."""
    return perf.check_regression(history, current, GATE_METRIC)


# -- pytest-benchmark entry point --------------------------------------------


def test_relay_overhead_within_bound(benchmark, measured, suite_runs):
    """Telemetered jobs=2 sweep: <=10% overhead, byte-identical grid."""
    cache = TraceCache(droidbench=suite_runs)
    cache.prime_replay_state()

    started = time.perf_counter()
    plain = run_sweep(SMOKE_GRID, cache=cache, jobs=JOBS)
    off_seconds = time.perf_counter() - started

    hubs = []

    def telemetered():
        hub = Telemetry()
        hubs.append(hub)
        return run_sweep(SMOKE_GRID, cache=cache, jobs=JOBS, telemetry=hub)

    relayed, seconds = measured(telemetered, rounds=3)
    assert _grid_digest(relayed) == _grid_digest(plain)
    accounting = _relay_accounting(hubs[-1])
    assert accounting["events_merged"] > 0  # worker telemetry merged
    on_seconds = min(seconds)
    ratio = off_seconds / on_seconds if on_seconds else 0.0
    print(f"\nrelay overhead: {off_seconds:.3f}s off vs {on_seconds:.3f}s on "
          f"(off/on {ratio:.3f}, floor {RATIO_FLOOR:.3f})")
    benchmark.extra_info["wall_seconds_off"] = off_seconds
    benchmark.extra_info["relay_off_over_on"] = ratio
    assert ratio >= RATIO_FLOOR


# -- standalone mode ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PIFT telemetry-relay overhead benchmark (standalone)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid for CI (4 cells)")
    parser.add_argument("--json", metavar="PATH", default="BENCH_relay.json",
                        help="write results here (default BENCH_relay.json)")
    parser.add_argument("--history", metavar="PATH",
                        default="BENCH_history.jsonl",
                        help="append one summary line per run here "
                             "(default BENCH_history.jsonl)")
    parser.add_argument("--gate", action="store_true",
                        help="fail if the off/on ratio regressed "
                             f">{REGRESSION_TOLERANCE * 100:.0f}%% vs the "
                             "history baseline or fell below "
                             f"{RATIO_FLOOR:.3f} "
                             f"({OVERHEAD_BOUND * 100:.0f}%% overhead)")
    args = parser.parse_args(argv)

    cache = primed_cache()
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    measured = measure_relay_overhead(grid, cache)
    print(
        f"relay overhead: {measured['wall_seconds_off']:.2f}s off vs "
        f"{measured['wall_seconds_on']:.2f}s on over "
        f"{measured['grid_cells']} cells at jobs={measured['jobs']} "
        f"(off/on {measured['relay_off_over_on']:.3f}, "
        f"overhead {measured['relay_overhead']:+.1%}, "
        f"identical={measured['identical']}); parent merged "
        f"{measured['relay']['events_merged']} worker events, "
        f"{measured['relay']['heartbeats']} heartbeats",
        file=sys.stderr,
    )
    payload = {"mode": "smoke" if args.smoke else "full", **measured}
    print(json.dumps(payload, indent=2))
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    history_path = Path(args.history)
    history = load_history(history_path)
    gate_ok, baseline = check_regression(
        history, measured["relay_off_over_on"]
    )
    append_history(history_path, {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": payload["mode"],
        "relay_off_over_on": measured["relay_off_over_on"],
        "relay_overhead": measured["relay_overhead"],
        "wall_seconds_off": measured["wall_seconds_off"],
        "wall_seconds_on": measured["wall_seconds_on"],
        "grid_cells": measured["grid_cells"],
        "jobs": measured["jobs"],
        "identical": measured["identical"],
    })
    if baseline is not None:
        print(
            f"regression gate: current {measured['relay_off_over_on']:.3f} "
            f"vs baseline {baseline:.3f} (median of {len(history)} runs) "
            f"-> {'ok' if gate_ok else 'REGRESSED'}",
            file=sys.stderr,
        )

    ok = measured["identical"]
    ok = ok and measured["relay"]["events_merged"] > 0
    if args.gate:
        ok = ok and gate_ok
        ok = ok and measured["relay_off_over_on"] >= RATIO_FLOOR
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
