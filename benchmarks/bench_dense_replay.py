"""Dense-regime replay benchmark — the kernel's former blind spot.

The PR-4 kernel classified blocks in numpy but executed every relevant
event in the scalar loop, so taint-dense traces sat at ~1.0x.  The dense
executor runs Algorithm 1's window evolution and range-set commits in
numpy; this benchmark measures the two claims that protect it:

1. **Dense speedup** — a taint-dense replay (most events are in-window
   stores into already-tainted memory, the malware-payload shape) across
   a small ``(NI, NT)`` grid must beat the scalar loop >= 5x with
   bit-identical results (``dense_vectorized_speedup``, regression-gated
   against ``BENCH_history.jsonl``).
2. **Bail-out recovery** — a dense-prefix/sparse-tail trace (taint churn
   that defeats the dense executor, then a long mostly-untainted tail)
   must recover the sparse fast path after the bounded density bail-out
   re-probes (``dense_prefix_recovery``); the pre-fix one-way bail-out
   pinned this at ~1.0x by handing the whole remainder to the scalar
   loop.

Runnable two ways:

* under pytest-benchmark (tier-2): ``pytest benchmarks/bench_dense_replay.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_dense_replay.py
  [--smoke] [--json BENCH_dense.json] [--history BENCH_history.jsonl]
  [--gate]`` — the CI executor-smoke job runs ``--smoke --gate``.  The gate
  compares the *dimensionless* dense speedup ratio against the history
  median, so it is robust to CI machines of different speeds.
"""

import argparse
import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import perf
from repro.core import PIFTConfig

#: --gate fails when the dense speedup drops below
#: ``(1 - REGRESSION_TOLERANCE)`` times the history baseline.
REGRESSION_TOLERANCE = perf.REGRESSION_TOLERANCE

#: The history-record key this benchmark gates on.
GATE_METRIC = "dense_vectorized_speedup"

#: Hard floors asserted regardless of history (the acceptance criteria).
DENSE_SPEEDUP_FLOOR = 5.0
RECOVERY_FLOOR = 2.0

#: The dense sweep cells: caps >= 3 so the three in-window stores per
#: tainted load all propagate (the taint-dense regime), windows spanning
#: the paper's Figure 14-17 range.
DENSE_CELLS = ((13, 3), (13, 6), (21, 3), (34, 6))

SOURCE_LO, SOURCE_HI = 0, 4_095
SCRATCH_LO, SCRATCH_HI = 8_192, 73_727


def dense_recorded_run(events: int = 120_000, seed: int = 2026):
    """A taint-dense recorded run: Algorithm 1 fires on almost every event.

    A payload loop reads the tainted source and immediately writes into a
    tainted working buffer — every load opens a window, every store is an
    in-window propagation into already-tainted memory.  This is the dense
    half of the sweep grid (and the regime hardware DIFT offload engines
    are built for): nothing is skippable, so the pre-filter alone gains
    nothing and vectorised *execution* has to carry the speedup.
    """
    from repro.android.device import (
        RecordedRun, SinkCheck, SourceRegistration,
    )
    from repro.core.events import load, store
    from repro.core.ranges import AddressRange

    rng = random.Random(seed)
    run = RecordedRun()
    run.sources.append(
        SourceRegistration(AddressRange(SOURCE_LO, SOURCE_HI), 0, "imei")
    )
    run.sources.append(
        SourceRegistration(AddressRange(SCRATCH_LO, SCRATCH_HI), 0, "buffer")
    )
    index = 0
    for i in range(events):
        index += 1
        phase = i % 4
        if phase == 0:
            a = SOURCE_LO + rng.randrange(0, SOURCE_HI - SOURCE_LO - 8)
            run.trace.append(load(a, a + 3, index))
        else:
            a = SCRATCH_LO + rng.randrange(0, SCRATCH_HI - SCRATCH_LO - 8)
            run.trace.append(store(a, a + 7, index))
    run.trace.note_instruction(index + 1)
    run.sink_checks.append(
        SinkCheck(
            AddressRange(SCRATCH_LO, SCRATCH_LO + 63),
            index + 1, "network", "socket",
        )
    )
    return run


def dense_prefix_sparse_tail_run(
    prefix: int = 8_000, tail: int = 400_000, seed: int = 7
):
    """Taint/untaint churn prefix, then a long mostly-untainted tail.

    The prefix alternates fresh-range taints with overlapping untaints,
    so every store is a content mutation — the dense executor's mutation
    budget trips and the density bail-out engages.  The tail is the
    sparse regime the kernel earns ~90x on; recovering it after the
    prefix is exactly what the bounded re-probe exists for.
    """
    from repro.android.device import (
        RecordedRun, SinkCheck, SourceRegistration,
    )
    from repro.core.events import load, store
    from repro.core.ranges import AddressRange

    rng = random.Random(seed)
    run = RecordedRun()
    run.sources.append(
        SourceRegistration(AddressRange(SOURCE_LO, SOURCE_HI), 0, "imei")
    )
    index = 0
    for i in range(prefix):
        index += 1
        phase = i % 3
        if phase == 0:
            run.trace.append(load(SOURCE_LO, SOURCE_LO + 3, index))
        elif phase == 1:
            a = 100_000 + i * 16
            run.trace.append(store(a, a + 3, index))
        else:
            a = 100_000 + (i - 1) * 16
            run.trace.append(store(a, a + 3, index))
    for _ in range(tail):
        index += rng.randint(1, 3)
        a = 10_000_000 + rng.randrange(0, 1_000_000)
        maker = load if rng.random() < 0.5 else store
        run.trace.append(maker(a, a + 3, index))
    run.trace.note_instruction(index + 1)
    run.sink_checks.append(
        SinkCheck(
            AddressRange(SOURCE_LO, SOURCE_LO + 63),
            index + 1, "network", "socket",
        )
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


def measure_dense(events: int = 120_000, rounds: int = 3) -> dict:
    """Dense replay across DENSE_CELLS, scalar vs vectorised."""
    from repro.analysis.replay import replay

    recorded = dense_recorded_run(events=events)
    recorded.trace.columns().arrays()  # warm the shared one-time caches
    cells = []
    scalar_total = 0.0
    vector_total = 0.0
    identical = True
    for window_size, cap in DENSE_CELLS:
        timings = {}
        fingerprints = {}
        for vectorized in (False, True):
            config = PIFTConfig(window_size, cap, vectorized=vectorized)
            best = float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                result = replay(recorded, config)
                best = min(best, time.perf_counter() - started)
            timings[vectorized] = best
            fingerprints[vectorized] = _replay_fingerprint(result)
        cell_identical = fingerprints[True] == fingerprints[False]
        identical = identical and cell_identical
        scalar_total += timings[False]
        vector_total += timings[True]
        cells.append({
            "window_size": window_size,
            "max_propagations": cap,
            "scalar_seconds": timings[False],
            "vectorized_seconds": timings[True],
            "speedup": timings[False] / timings[True],
            "identical": cell_identical,
        })
    return {
        "events": len(recorded.trace),
        "cells": cells,
        "scalar_seconds": scalar_total,
        "vectorized_seconds": vector_total,
        "speedup": scalar_total / vector_total if vector_total else 0.0,
        "identical": identical,
    }


def measure_recovery(
    prefix: int = 8_000, tail: int = 400_000, rounds: int = 3
) -> dict:
    """Dense-prefix/sparse-tail replay, scalar vs vectorised."""
    from repro.analysis.replay import replay

    recorded = dense_prefix_sparse_tail_run(prefix=prefix, tail=tail)
    recorded.trace.columns().arrays()
    config = PIFTConfig(50, 1)
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
    return {
        "prefix_events": prefix,
        "tail_events": tail,
        "scalar_seconds": timings[False],
        "vectorized_seconds": timings[True],
        "speedup": timings[False] / timings[True] if timings[True] else 0.0,
        "identical": fingerprints[True] == fingerprints[False],
    }


# -- pytest-benchmark entry points ------------------------------------------


def test_dense_replay_speedup(benchmark):
    """The dense executor must beat the scalar loop >= 5x on taint-dense
    replays with bit-identical observable results."""
    from repro.analysis.replay import replay

    recorded = dense_recorded_run(events=80_000)
    recorded.trace.columns().arrays()
    scalar_config = PIFTConfig(13, 3, vectorized=False)
    vector_config = replace(scalar_config, vectorized=True)
    started = time.perf_counter()
    scalar_result = replay(recorded, scalar_config)
    scalar_seconds = time.perf_counter() - started
    vector_result = benchmark.pedantic(
        lambda: replay(recorded, vector_config), rounds=3, iterations=1
    )
    assert _replay_fingerprint(vector_result) == _replay_fingerprint(
        scalar_result
    )
    vector_seconds = benchmark.stats.stats.mean
    speedup = scalar_seconds / vector_seconds
    print(f"\ndense executor: {scalar_seconds:.3f}s scalar vs "
          f"{vector_seconds:.3f}s vectorized ({speedup:.1f}x)")
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= DENSE_SPEEDUP_FLOOR


def test_dense_prefix_recovery(benchmark):
    """After the churn prefix forces the density bail-out, the bounded
    re-probe must recover the sparse fast path on the tail."""
    from repro.analysis.replay import replay

    recorded = dense_prefix_sparse_tail_run(prefix=6_000, tail=200_000)
    recorded.trace.columns().arrays()
    scalar_config = PIFTConfig(50, 1, vectorized=False)
    vector_config = replace(scalar_config, vectorized=True)
    started = time.perf_counter()
    scalar_result = replay(recorded, scalar_config)
    scalar_seconds = time.perf_counter() - started
    vector_result = benchmark.pedantic(
        lambda: replay(recorded, vector_config), rounds=3, iterations=1
    )
    assert _replay_fingerprint(vector_result) == _replay_fingerprint(
        scalar_result
    )
    speedup = scalar_seconds / benchmark.stats.stats.mean
    print(f"\ndense-prefix recovery: {speedup:.1f}x")
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= RECOVERY_FLOOR


# -- standalone mode ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PIFT dense-regime replay benchmark (standalone mode)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="reduced event counts for CI")
    parser.add_argument("--json", metavar="PATH", default="BENCH_dense.json",
                        help="write results here (default BENCH_dense.json)")
    parser.add_argument("--history", metavar="PATH",
                        default="BENCH_history.jsonl",
                        help="append one summary line per run here "
                             "(default BENCH_history.jsonl)")
    parser.add_argument("--gate", action="store_true",
                        help="fail if the dense speedup regressed "
                             f">{REGRESSION_TOLERANCE:.0%} vs the history "
                             "baseline (median of prior runs)")
    args = parser.parse_args(argv)

    if args.smoke:
        dense = measure_dense(events=80_000)
        recovery = measure_recovery(prefix=6_000, tail=200_000)
    else:
        dense = measure_dense(events=160_000)
        recovery = measure_recovery(prefix=8_000, tail=400_000)
    print(
        f"dense replay: {dense['speedup']:.1f}x over scalar across "
        f"{len(dense['cells'])} cells x {dense['events']} events "
        f"(identical={dense['identical']})",
        file=sys.stderr,
    )
    print(
        f"dense-prefix recovery: {recovery['speedup']:.1f}x "
        f"(identical={recovery['identical']})",
        file=sys.stderr,
    )
    payload = {
        "mode": "smoke" if args.smoke else "full",
        "dense": dense,
        "recovery": recovery,
    }
    print(json.dumps(payload, indent=2))
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

    history_path = Path(args.history)
    history = perf.load_history(history_path, GATE_METRIC)
    gate_ok, baseline = perf.check_regression(
        history, dense["speedup"], GATE_METRIC
    )
    perf.append_history(history_path, {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": payload["mode"],
        "dense_vectorized_speedup": dense["speedup"],
        "dense_events": dense["events"],
        "dense_prefix_recovery": recovery["speedup"],
        "identical": dense["identical"] and recovery["identical"],
    })
    if baseline is not None:
        print(
            f"regression gate: current {dense['speedup']:.1f}x vs "
            f"baseline {baseline:.1f}x (median of {len(history)} runs) "
            f"-> {'ok' if gate_ok else 'REGRESSED'}",
            file=sys.stderr,
        )

    ok = dense["identical"] and recovery["identical"]
    ok = ok and dense["speedup"] >= DENSE_SPEEDUP_FLOOR
    ok = ok and recovery["speedup"] >= RECOVERY_FLOOR
    if args.gate:
        ok = ok and gate_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
