"""Extension — sweep dispatcher resilience under worker mortality.

The lease dispatcher every ``run_sweep(jobs > 1)`` runs on claims two
things:

1. **Survival** — a sweep with workers being SIGKILLed mid-cell still
   completes, without ``--resume``, and the grid is bit-identical to a
   fault-free serial run (leases requeue the lost cells; pure cells
   recompute identical results).
2. **Bounded overhead** — at 20% per-attempt worker mortality
   (``kill-workers:0.2``), wall time stays within
   :data:`MAX_MORTALITY_RATIO` (1.5x) of the fault-free run on the same
   grid.  Dead workers only cost the lost attempt's partial work,
   a short requeue backoff, and a respawn — all overlapped with the
   surviving workers' progress.

Runnable two ways:

* under pytest-benchmark (tier-2):
  ``pytest benchmarks/bench_queue_resilience.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_queue_resilience.py
  [--smoke] [--json BENCH_queue.json] [--history BENCH_history.jsonl]
  [--gate]`` — ``--gate`` exits non-zero when parity breaks, when chaos
  failed to actually kill workers, or when the mortality ratio exceeds
  the bar.  The ratio is dimensionless (chaos wall / fault-free wall on
  the same machine, same grid), so the gate is robust to CI hosts of
  different speeds.
"""

import argparse
import json
import sys
import time

from repro import perf
from repro.sweep import (
    BackoffPolicy,
    ChaosPlan,
    GridSpec,
    TraceCache,
    run_sweep,
)

#: Chaos wall time must stay within this factor of the fault-free run at
#: 20% per-attempt worker mortality.
MAX_MORTALITY_RATIO = 1.5

#: The smoke grid's bar carries slack: with only 32 cells a handful of
#: deaths is a much larger fraction of the wall time, and CI runners are
#: slow and noisy — the 1.5x headline claim is measured on the full grid.
SMOKE_MAX_MORTALITY_RATIO = 2.0

#: Per-attempt SIGKILL probability the headline claim is measured at.
MORTALITY = 0.2

#: Deterministic seed for the chaos schedule (and backoff jitter).
CHAOS_SEED = 7

#: The history-record key this benchmark tracks (lower is better; the
#: gate is the absolute MAX_MORTALITY_RATIO bar, not history-relative).
GATE_METRIC = "mortality_ratio"

#: 48 cells — enough work that respawn/backoff overhead amortises the
#: way it does on real grids (on a handful of cells a single death is a
#: large fraction of the wall time and the ratio is pure noise).
FULL_GRID = GridSpec(
    window_sizes=(1, 5, 13, 20),
    propagation_caps=(1, 3, 6, 10),
    rates=(0.0, 1e-2, 1e-1),
    seed=1,
)

#: Reduced grid for the CI smoke job (parity still asserted; the ratio
#: is measured best-of-two against the relaxed smoke bar).
SMOKE_GRID = GridSpec(
    window_sizes=(1, 5, 13, 20),
    propagation_caps=(1, 3, 6, 10),
    rates=(0.0, 1e-2),
    seed=1,
)

#: Snappy failure handling for benchmark-scale cells: cells finish in
#: tens of milliseconds, so second-scale production defaults would
#: measure the backoff policy, not the dispatcher.
QUEUE_OPTIONS = {
    "lease_timeout": 5.0,
    "heartbeat_interval": 0.05,
    "backoff": BackoffPolicy(base=0.02, cap=0.2, seed=CHAOS_SEED),
}


def primed_cache() -> TraceCache:
    cache = TraceCache()
    cache.prime(droidbench=True)
    cache.prime_replay_state()
    return cache


def _digest(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def measure_resilience(
    grid: GridSpec, cache: TraceCache, jobs: int = 4, trials: int = 2
) -> dict:
    """Serial reference, fault-free and chaos dispatch; best-of-trials."""
    serial = run_sweep(grid, cache=cache, jobs=1)
    reference = _digest(serial)
    chaos_plan = ChaosPlan.parse(f"kill-workers:{MORTALITY}", seed=CHAOS_SEED)

    clean_wall = chaos_wall = float("inf")
    deaths = retries = restarts = 0
    identical = True
    for _ in range(trials):
        started = time.perf_counter()
        clean = run_sweep(
            grid, cache=cache, jobs=jobs,
            backend_options=dict(QUEUE_OPTIONS),
        )
        clean_wall = min(clean_wall, time.perf_counter() - started)
        identical = identical and _digest(clean) == reference

        started = time.perf_counter()
        chaos = run_sweep(
            grid, cache=cache, jobs=jobs,
            backend_options={**QUEUE_OPTIONS, "chaos": chaos_plan},
        )
        chaos_wall = min(chaos_wall, time.perf_counter() - started)
        identical = identical and _digest(chaos) == reference
        deaths = chaos.worker_deaths
        retries = chaos.retries
        restarts = chaos.worker_restarts
        identical = identical and not chaos.poisoned

    ratio = chaos_wall / clean_wall if clean_wall else float("inf")
    return {
        "grid_cells": len(grid),
        "jobs": jobs,
        "mortality": MORTALITY,
        "clean_wall_seconds": clean_wall,
        "chaos_wall_seconds": chaos_wall,
        "mortality_ratio": ratio,
        "worker_deaths": deaths,
        "retries": retries,
        "worker_restarts": restarts,
        "identical": identical,
    }


# -- pytest-benchmark entry points ------------------------------------------


def test_dispatcher_matches_serial(benchmark, suite_runs):
    """A fault-free dispatched sweep is bit-identical to the inline one."""
    cache = TraceCache(droidbench=suite_runs)
    cache.prime_replay_state()
    serial = run_sweep(SMOKE_GRID, cache=cache, jobs=1)
    queued = benchmark.pedantic(
        lambda: run_sweep(
            SMOKE_GRID, cache=cache, jobs=2,
            backend_options=dict(QUEUE_OPTIONS),
        ),
        rounds=1, iterations=1,
    )
    assert _digest(queued) == _digest(serial)
    assert queued.worker_deaths == 0 and not queued.poisoned


def test_chaos_mortality_parity_and_overhead(
    benchmark, measured, suite_runs
):
    """20% mortality: grid survives bit-identical, overhead bounded."""
    cache = TraceCache(droidbench=suite_runs)
    cache.prime_replay_state()
    serial = run_sweep(FULL_GRID, cache=cache, jobs=1)
    chaos_plan = ChaosPlan.parse(f"kill-workers:{MORTALITY}", seed=CHAOS_SEED)

    started = time.perf_counter()
    clean = run_sweep(
        FULL_GRID, cache=cache, jobs=4,
        backend_options=dict(QUEUE_OPTIONS),
    )
    clean_wall = time.perf_counter() - started
    chaos, seconds = measured(
        lambda: run_sweep(
            FULL_GRID, cache=cache, jobs=4,
            backend_options={**QUEUE_OPTIONS, "chaos": chaos_plan},
        ),
        rounds=1,
    )
    chaos_wall = seconds[0]
    assert _digest(clean) == _digest(serial)
    assert _digest(chaos) == _digest(serial)
    assert chaos.worker_deaths > 0, "chaos schedule killed nobody"
    assert not chaos.poisoned
    ratio = chaos_wall / clean_wall
    print(
        f"\nqueue resilience: {clean_wall:.2f}s fault-free vs "
        f"{chaos_wall:.2f}s at {MORTALITY:.0%} mortality "
        f"({ratio:.2f}x, {chaos.worker_deaths} deaths, "
        f"{chaos.retries} retries)"
    )
    benchmark.extra_info["mortality_ratio"] = ratio
    benchmark.extra_info["worker_deaths"] = chaos.worker_deaths
    assert ratio <= MAX_MORTALITY_RATIO


# -- standalone mode ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PIFT sweep-dispatcher resilience benchmark (standalone)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid + relaxed ratio bar for CI")
    parser.add_argument("--json", metavar="PATH", default="BENCH_queue.json",
                        help="write results here (default BENCH_queue.json)")
    parser.add_argument("--history", metavar="PATH",
                        default="BENCH_history.jsonl",
                        help="append one summary line per run here "
                             "(default BENCH_history.jsonl)")
    parser.add_argument("--gate", action="store_true",
                        help=f"fail unless the grid survives bit-identical "
                             f"with workers actually dying and the wall-time "
                             f"ratio stays <= {MAX_MORTALITY_RATIO}x")
    args = parser.parse_args(argv)

    cache = primed_cache()
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    bar = SMOKE_MAX_MORTALITY_RATIO if args.smoke else MAX_MORTALITY_RATIO
    result = measure_resilience(grid, cache, trials=2)
    print(
        f"queue resilience: {result['clean_wall_seconds']:.2f}s fault-free "
        f"vs {result['chaos_wall_seconds']:.2f}s at "
        f"{result['mortality']:.0%} mortality "
        f"({result['mortality_ratio']:.2f}x, "
        f"{result['worker_deaths']} deaths, {result['retries']} retries, "
        f"{result['worker_restarts']} respawns, "
        f"identical={result['identical']})",
        file=sys.stderr,
    )
    payload = {"mode": "smoke" if args.smoke else "full", **result}
    print(json.dumps(payload, indent=2))
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    perf.append_history(args.history, {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": payload["mode"],
        GATE_METRIC: result["mortality_ratio"],
        "worker_deaths": result["worker_deaths"],
        "retries": result["retries"],
        "identical": result["identical"],
    })

    ok = result["identical"] and result["worker_deaths"] > 0
    if args.gate:
        ok = ok and result["mortality_ratio"] <= bar
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
