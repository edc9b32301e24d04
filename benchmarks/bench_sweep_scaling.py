"""Extension — sweep scaling, batch fast path, and the vectorised kernel.

Measures the three performance claims the replay stack makes:

1. **Batch fast path** — replaying a recorded suite through
   ``observe_columns`` is measurably faster than the per-event
   ``observe`` loop, with identical results.
2. **Parallel scaling** — fanning a grid across ``--jobs N`` worker
   processes beats the serial run wall-clock while staying bit-identical.
3. **Vectorised kernel** — on a long mostly-untainted replay (the
   regime PIFT targets), the numpy pre-filter kernel
   (``repro.core.vectorized``) beats the scalar column loop by >= 5x
   with bit-identical verdicts and stats.
4. **Digest payloads** — with an ``ArtifactStore`` backing the cache,
   sweep workers receive store digests instead of pickled suites; the
   transfer saving (pickled payload bytes, with vs without a store)
   must exceed 50%.

Runnable two ways:

* under pytest-benchmark (tier-2): ``pytest benchmarks/bench_sweep_scaling.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_sweep_scaling.py
  [--smoke] [--json BENCH_sweep.json] [--history BENCH_history.jsonl]
  [--gate]`` — the CI smoke job runs ``--smoke --gate``; every
  standalone run appends one JSON line to the history file, and
  ``--gate`` exits non-zero if the kernel speedup regressed more than
  :data:`REGRESSION_TOLERANCE` against the history baseline.  The gate
  compares the *dimensionless* vectorised-vs-scalar speedup ratio, not
  absolute throughput, so it is robust to CI machines of different
  speeds.
"""

import argparse
import json
import os
import pickle
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import perf
from repro.core import PIFTConfig
from repro.sweep import GridSpec, TraceCache, run_sweep

#: --gate fails when the measured kernel speedup drops below
#: ``(1 - REGRESSION_TOLERANCE)`` times the history baseline.
REGRESSION_TOLERANCE = perf.REGRESSION_TOLERANCE

#: The history-record key this benchmark gates on.
GATE_METRIC = "vectorized_speedup"

#: The full measurement grid: 4x4 configs x 2 rates = 32 cells.
FULL_GRID = GridSpec(
    window_sizes=(1, 5, 13, 20),
    propagation_caps=(1, 3, 6, 10),
    rates=(0.0, 1e-2),
    seed=1,
)

#: Reduced grid for the CI smoke job.
SMOKE_GRID = GridSpec(
    window_sizes=(5, 13),
    propagation_caps=(2, 3),
    rates=(0.0,),
    seed=1,
)


def primed_cache() -> TraceCache:
    cache = TraceCache()
    cache.prime(droidbench=True)
    cache.prime_replay_state()
    return cache


# -- vectorised-kernel measurement -------------------------------------------


def synthetic_recorded_run(events: int = 150_000, seed: int = 11):
    """A long, mostly-untainted recorded run — the kernel's target regime.

    One source, periodic tainted loads whose in-window stores land in a
    small scratch region, periodic wide scratch stores that untaint, and
    a sea of background accesses in a disjoint heap region.  Taint stays
    small and localised, so the overwhelming majority of events are
    irrelevant — exactly the shape of a real app trace between source
    touches.
    """
    from repro.android.device import (
        RecordedRun, SinkCheck, SourceRegistration,
    )
    from repro.core.events import load, store
    from repro.core.ranges import AddressRange

    rng = random.Random(seed)
    run = RecordedRun()
    run.sources.append(
        SourceRegistration(AddressRange(1000, 1003), 0, "imei")
    )
    index = 0
    for i in range(events):
        index += rng.randint(1, 3)
        if i % 5000 == 0:
            run.trace.append(load(1000, 1003, index))
        elif i % 5000 < 4:
            a = 1000 + rng.randrange(0, 1000)
            run.trace.append(store(a, a + 3, index))
        elif i % 9000 == 8999:
            run.trace.append(store(1000, 2000, index))
        else:
            a = 100_000 + rng.randrange(0, 1_000_000)
            maker = load if rng.random() < 0.5 else store
            run.trace.append(maker(a, a + 3, index))
    run.trace.note_instruction(index + 1)
    run.sink_checks.append(
        SinkCheck(AddressRange(1000, 1063), index + 1, "network", "socket")
    )
    return run


def _replay_fingerprint(result) -> str:
    return json.dumps(
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


def measure_vectorized(events: int = 150_000, rounds: int = 3) -> dict:
    """Replay the synthetic run scalar vs vectorised; best-of-``rounds``."""
    from repro.analysis.replay import replay

    recorded = synthetic_recorded_run(events=events)
    # Warm the one-time caches (column encoding + numpy arrays); both
    # strategies share them, and best-of-rounds would hide the cost from
    # whichever strategy runs second anyway.
    recorded.trace.columns().arrays()
    config = PIFTConfig(13, 3)
    timings = {}
    fingerprints = {}
    for vectorized in (False, True):
        cell = replace(config, vectorized=vectorized)
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            result = replay(recorded, cell)
            best = min(best, time.perf_counter() - started)
        timings[vectorized] = best
        fingerprints[vectorized] = _replay_fingerprint(result)
    identical = fingerprints[True] == fingerprints[False]
    speedup = timings[False] / timings[True] if timings[True] else 0.0
    return {
        "events": len(recorded.trace),
        "scalar_seconds": timings[False],
        "vectorized_seconds": timings[True],
        "scalar_events_per_second": len(recorded.trace) / timings[False],
        "vectorized_events_per_second": len(recorded.trace) / timings[True],
        "speedup": speedup,
        "identical": identical,
    }


# -- store payload transfer saving -------------------------------------------


def measure_transfer_saving(cache: TraceCache, store_dir) -> dict:
    """Pickled worker-payload bytes: full suites vs store path + digests.

    Every sweep worker receives ``cache.payload()`` under spawn; with a
    backing store the payload carries content digests instead of the
    recorded suites, and the workers read the store themselves.
    """
    from repro.store import ArtifactStore

    without_store = len(pickle.dumps(cache.payload()))
    store = ArtifactStore(store_dir)
    backed = TraceCache(backing_store=store)
    backed.droidbench_runs()  # records once, persists, then serves digests
    with_store = len(pickle.dumps(backed.payload()))
    saving = 1.0 - (with_store / without_store) if without_store else 0.0
    return {
        "payload_bytes_without_store": without_store,
        "payload_bytes_with_store": with_store,
        "transfer_saving": saving,
    }


# -- BENCH_history.jsonl + regression gate (delegates to repro.perf) ----------


def load_history(path: Path) -> list:
    """All prior records for this benchmark's gate metric."""
    return perf.load_history(path, GATE_METRIC)


def append_history(path: Path, record: dict) -> None:
    perf.append_history(path, record)


def baseline_speedup(history: list) -> float:
    """The gate baseline: median speedup of the recorded history."""
    return perf.baseline(history, GATE_METRIC)


def check_regression(history: list, current: float) -> tuple:
    """(ok, baseline) — ok is False when current regressed > tolerance."""
    return perf.check_regression(history, current, GATE_METRIC)


# -- pytest-benchmark entry points ------------------------------------------


def test_batch_replay_beats_per_event(benchmark, measured, suite_runs):
    """The column fast path outruns per-event observe on the same work."""
    from repro.core.events import EventColumns
    from repro.core.tracker import PIFTTracker

    config = PIFTConfig(13, 3)
    runs = suite_runs
    columns = [EventColumns.from_events(app.recorded.trace) for app in runs]

    def per_event():
        total = 0
        for app in runs:
            tracker = PIFTTracker(config)
            for event in app.recorded.trace:
                tracker.observe(event)
            total += tracker.stats.instructions_observed
        return total

    def batched():
        total = 0
        for encoded in columns:
            tracker = PIFTTracker(config)
            tracker.run(encoded)
            total += tracker.stats.instructions_observed
        return total

    started = time.perf_counter()
    baseline = per_event()
    per_event_seconds = time.perf_counter() - started
    fast, seconds = measured(batched, rounds=3)
    assert fast == baseline  # identical accounting, only faster
    batched_seconds = sum(seconds) / len(seconds)
    speedup = per_event_seconds / batched_seconds
    print(f"\nbatch fast path: {per_event_seconds:.3f}s per-event vs "
          f"{batched_seconds:.3f}s batched ({speedup:.2f}x)")
    benchmark.extra_info["per_event_seconds"] = per_event_seconds
    benchmark.extra_info["speedup"] = speedup
    assert speedup > 1.0


def test_vectorized_kernel_speedup(benchmark, measured):
    """The numpy kernel must beat the scalar loop >= 5x on the synthetic
    mostly-untainted replay, with bit-identical observable results."""
    from repro.analysis.replay import replay

    recorded = synthetic_recorded_run(events=120_000)
    scalar_config = PIFTConfig(13, 3, vectorized=False)
    vector_config = replace(scalar_config, vectorized=True)

    # Warm the one-time caches (column encoding + numpy arrays) so the
    # timed rounds compare the replay loops, not trace encoding.
    recorded.trace.columns().arrays()

    started = time.perf_counter()
    scalar_result = replay(recorded, scalar_config)
    scalar_seconds = time.perf_counter() - started
    vector_result, seconds = measured(
        lambda: replay(recorded, vector_config), rounds=3
    )
    assert _replay_fingerprint(vector_result) == _replay_fingerprint(
        scalar_result
    )
    vector_seconds = sum(seconds) / len(seconds)
    speedup = scalar_seconds / vector_seconds
    print(f"\nvectorized kernel: {scalar_seconds:.3f}s scalar vs "
          f"{vector_seconds:.3f}s vectorized ({speedup:.1f}x)")
    benchmark.extra_info["scalar_seconds"] = scalar_seconds
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 5.0


def test_parallel_sweep_matches_serial(benchmark, suite_runs):
    """jobs=2 returns byte-identical cells to jobs=1 on a real grid."""
    cache = TraceCache(droidbench=suite_runs)
    cache.prime_replay_state()
    serial = run_sweep(SMOKE_GRID, cache=cache, jobs=1)
    parallel = benchmark.pedantic(
        lambda: run_sweep(SMOKE_GRID, cache=cache, jobs=2),
        rounds=1, iterations=1,
    )
    assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
        parallel.as_dict(), sort_keys=True
    )


# -- standalone mode ---------------------------------------------------------


def measure(grid: GridSpec, jobs_axis, cache: TraceCache) -> dict:
    """Run the grid at each worker count; verify parity; report timings."""
    runs = []
    reference = None
    for jobs in jobs_axis:
        result = run_sweep(grid, cache=cache, jobs=jobs)
        digest = json.dumps(result.as_dict(), sort_keys=True)
        if reference is None:
            reference = digest
        timings = result.timings()
        timings["identical_to_serial"] = digest == reference
        runs.append(timings)
        print(
            f"jobs={jobs}: {timings['wall_seconds']:.2f}s wall, "
            f"{len(timings['workers'])} worker pids, "
            f"identical={timings['identical_to_serial']}",
            file=sys.stderr,
        )
    serial_wall = runs[0]["wall_seconds"]
    for row in runs:
        row["speedup_vs_serial"] = (
            serial_wall / row["wall_seconds"] if row["wall_seconds"] else 0.0
        )
    return {
        "grid_cells": len(grid),
        "jobs_axis": list(jobs_axis),
        "runs": runs,
        "all_identical": all(row["identical_to_serial"] for row in runs),
        "best_speedup": max(row["speedup_vs_serial"] for row in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PIFT sweep-engine scaling benchmark (standalone mode)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid for CI (fewer cells, jobs 1-2)")
    parser.add_argument("--json", metavar="PATH", default="BENCH_sweep.json",
                        help="write results here (default BENCH_sweep.json)")
    parser.add_argument("--history", metavar="PATH",
                        default="BENCH_history.jsonl",
                        help="append one summary line per run here "
                             "(default BENCH_history.jsonl)")
    parser.add_argument("--gate", action="store_true",
                        help="fail if the vectorized speedup regressed "
                             f">{REGRESSION_TOLERANCE * 100:.0f}%% vs the "
                             "history baseline (median of prior runs)")
    args = parser.parse_args(argv)

    cache = primed_cache()
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    if args.smoke:
        grid, jobs_axis = SMOKE_GRID, (1, 2)
    else:
        grid, jobs_axis = FULL_GRID, (1, 2, min(8, max(2, cpus)))

    # Same replay size in both modes, so smoke (CI) and full history
    # records gate against each other like-for-like.  The measurement is
    # cheap (~0.3s) — the grid scaling below dominates either way.
    vectorized = measure_vectorized(events=200_000)
    print(
        f"vectorized kernel: {vectorized['speedup']:.1f}x over scalar "
        f"on {vectorized['events']} events "
        f"(identical={vectorized['identical']})",
        file=sys.stderr,
    )
    import tempfile

    with tempfile.TemporaryDirectory(prefix="pift-bench-store-") as store_dir:
        transfer = measure_transfer_saving(cache, store_dir)
    print(
        f"store transfer saving: {transfer['transfer_saving']:.1%} "
        f"({transfer['payload_bytes_without_store']:,} -> "
        f"{transfer['payload_bytes_with_store']:,} payload bytes)",
        file=sys.stderr,
    )
    payload = {
        "mode": "smoke" if args.smoke else "full",
        "available_cpus": cpus,
        "vectorized": vectorized,
        "transfer": transfer,
        "scaling": measure(grid, jobs_axis, cache),
    }
    print(json.dumps(payload, indent=2))
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    history_path = Path(args.history)
    history = load_history(history_path)
    gate_ok, baseline = check_regression(history, vectorized["speedup"])
    append_history(history_path, {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": payload["mode"],
        "vectorized_speedup": vectorized["speedup"],
        "vectorized_events_per_second": (
            vectorized["vectorized_events_per_second"]
        ),
        "scalar_events_per_second": vectorized["scalar_events_per_second"],
        "events": vectorized["events"],
        "sweep_best_speedup": payload["scaling"]["best_speedup"],
        "transfer_saving": transfer["transfer_saving"],
        "identical": vectorized["identical"],
    })
    if baseline is not None:
        print(
            f"regression gate: current {vectorized['speedup']:.1f}x vs "
            f"baseline {baseline:.1f}x (median of {len(history)} runs) "
            f"-> {'ok' if gate_ok else 'REGRESSED'}",
            file=sys.stderr,
        )

    ok = payload["scaling"]["all_identical"] and vectorized["identical"]
    # Digest payloads must actually shrink what each worker receives.
    ok = ok and transfer["transfer_saving"] > 0.5
    if args.gate:
        ok = ok and gate_ok
    if not args.smoke and cpus > 1:
        # With real cores available, parallel must beat serial wall-clock.
        # (On a single-CPU box the workers can only add overhead; parity is
        # still asserted, the speedup claim is not testable.)
        ok = ok and payload["scaling"]["best_speedup"] > 1.0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
