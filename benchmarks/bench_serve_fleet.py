"""Fleet throughput and migration latency of the `repro serve` daemon.

Two service-level numbers on top of the tracker microbenchmarks:

* **Fleet throughput** — events/sec sustained end-to-end through the
  daemon (JSON framing, unix socket, router, shard FIFOs, drain
  workers) by N concurrent devices streaming synthetic runs, measured
  via :func:`repro.serve.fleet.run_fleet_sync` — the same harness that
  proves parity, so the number is for *verified-correct* streaming.
* **Drain latency** — the wall-clock cost of one admin ``drain`` +
  ``restore`` round-trip (snapshot over the wire and back) against a
  shard with live state, i.e. how long a key is parked during a
  migration.

Runnable two ways:

* under pytest-benchmark (tier-2): ``pytest benchmarks/bench_serve_fleet.py``
* standalone: ``PYTHONPATH=src python benchmarks/bench_serve_fleet.py
  [--smoke] [--json BENCH_serve.json] [--history BENCH_history.jsonl]
  [--gate]`` — appends one summary line to the shared history file and,
  with ``--gate``, exits non-zero if ``serve_throughput_eps`` regressed
  more than 25% against the history median (:mod:`repro.perf`).  Like
  the tracker gate, the metric is calibration-normalised (daemon
  events/s divided by a plain-Python loop's ops/s in the same process),
  so it is dimensionless and robust across CI machines; the raw
  events/s ride along in the record as ``serve_events_per_second``.
"""

import argparse
import asyncio
import json
import sys
import time

import pytest

from repro import perf
from repro.android.device import RecordedRun, SinkCheck, SourceRegistration
from repro.core.config import PIFTConfig
from repro.core.events import EventTrace, load, store
from repro.core.ranges import AddressRange
from repro.serve.client import AdminClient, DeviceClient
from repro.serve.fleet import run_fleet_sync
from repro.serve.router import ShardRouter
from repro.serve.server import PIFTServer

#: The history-record key this benchmark gates on (normalised).
GATE_METRIC = "serve_throughput_eps"

CONFIG = PIFTConfig(5, 2)


def make_run(rounds, pids=(0, 1)):
    """A leak-and-check run, sized by ``rounds`` events per pid."""
    events, sources, checks = [], [], []
    top = 0
    for i, pid in enumerate(pids):
        src = 0x1000 + 0x100000 * i
        dst = 0x8000 + 0x100000 * i
        sources.append(
            SourceRegistration(
                AddressRange(src, src + 0xF), 0, f"src-{pid}", pid=pid
            )
        )
        index = 1
        for r in range(rounds):
            events.append(load(src, src + 3, index, pid))
            events.append(store(dst + 4 * (r % 64), dst + 4 * (r % 64) + 3,
                                index + 1, pid))
            index += 3
        checks.append(
            SinkCheck(AddressRange(dst, dst + 255), index,
                      f"sink-{pid}", "net", pid=pid)
        )
        top = max(top, index + 1)
    return RecordedRun(
        trace=EventTrace(events, instruction_count=top),
        sources=sources,
        sink_checks=checks,
    )


def make_suite(runs, rounds):
    return [(f"bench-{i}", make_run(rounds)) for i in range(runs)]


def run_bench_fleet(runs=8, rounds=400, devices=4):
    report = run_fleet_sync(
        make_suite(runs, rounds), devices=devices, config=CONFIG
    )
    assert report["parity"], "benchmark fleet lost parity"
    return report


# -- pytest-benchmark entries ------------------------------------------------


def test_fleet_throughput(benchmark):
    report = benchmark.pedantic(run_bench_fleet, rounds=1, iterations=1)
    print(f"\nfleet: {report['events_per_s']:,.0f} events/s "
          f"({report['devices']} devices, {report['runs']} runs)")
    benchmark.extra_info["events_per_s"] = report["events_per_s"]
    assert report["parity"]


def test_drain_restore_latency(benchmark):
    latency = benchmark.pedantic(
        lambda: measure_drain_latency(rounds=200, cycles=10),
        rounds=1, iterations=1,
    )
    print(f"\ndrain+restore round-trip: {latency['drain_ms_median']:.2f} ms "
          f"median over {latency['cycles']} cycles")
    assert latency["drain_ms_median"] > 0


# -- standalone measurements -------------------------------------------------


def calibration_rate(iterations=1_000_000, rounds=3):
    """Machine-speed yardstick (same species as the tracker gate's)."""
    best = float("inf")
    for _ in range(rounds):
        acc = 0
        started = time.perf_counter()
        for i in range(iterations):
            if acc <= i:
                acc += 1
        best = min(best, time.perf_counter() - started)
    return iterations / best


def measure_throughput(runs, rounds, devices=4, best_of=3):
    """Best-of-N fleet events/s plus the normalised gate metric."""
    best = None
    for _ in range(best_of):
        report = run_bench_fleet(runs=runs, rounds=rounds, devices=devices)
        if best is None or report["events_per_s"] > best["events_per_s"]:
            best = report
    calibration = calibration_rate()
    return {
        "devices": best["devices"],
        "runs": best["runs"],
        "events_streamed": best["events_streamed"],
        "elapsed_s": best["elapsed_s"],
        "events_per_second": best["events_per_s"],
        "calibration_ops_per_second": calibration,
        GATE_METRIC: best["events_per_s"] / calibration,
    }


def measure_drain_latency(rounds=2000, cycles=20):
    """Median admin drain+restore round-trip against a loaded shard."""
    import tempfile

    recorded = make_run(rounds, pids=(0,))

    async def scenario():
        with tempfile.TemporaryDirectory(prefix="pift-bench-") as tmp:
            path = f"{tmp}/serve.sock"
            router = ShardRouter(CONFIG, workers=2)
            server = PIFTServer(router)
            await server.start(unix_path=path)
            client = await DeviceClient.connect("bench", unix_path=path)
            await client.stream_run(recorded)
            admin = await AdminClient.connect(unix_path=path)
            samples = []
            for cycle in range(cycles):
                started = time.perf_counter()
                snapshot = await admin.drain("bench", 0)
                await admin.restore(snapshot, worker=cycle % 2)
                samples.append(time.perf_counter() - started)
            snapshot_bytes = len(json.dumps(snapshot))
            await admin.close()
            await client.end()
            await server.stop()
            return samples, snapshot_bytes

    samples, snapshot_bytes = asyncio.run(scenario())
    samples.sort()
    return {
        "cycles": cycles,
        "shard_events": len(recorded.trace.events),
        "snapshot_bytes": snapshot_bytes,
        "drain_ms_median": samples[len(samples) // 2] * 1000,
        "drain_ms_worst": samples[-1] * 1000,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PIFT serve fleet benchmark (standalone mode)"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="smaller fleet workload for CI")
    parser.add_argument("--json", metavar="PATH",
                        default="BENCH_serve.json",
                        help="write results here (default BENCH_serve.json)")
    parser.add_argument("--history", metavar="PATH",
                        default="BENCH_history.jsonl",
                        help="append one summary line per run here "
                             "(default BENCH_history.jsonl)")
    parser.add_argument("--gate", action="store_true",
                        help="fail if normalised fleet throughput "
                             "regressed "
                             f">{perf.REGRESSION_TOLERANCE * 100:.0f}%% "
                             "vs the history baseline (median)")
    args = parser.parse_args(argv)

    if args.smoke:
        throughput = measure_throughput(runs=6, rounds=150, best_of=2)
        latency = measure_drain_latency(rounds=400, cycles=10)
    else:
        throughput = measure_throughput(runs=12, rounds=600)
        latency = measure_drain_latency(rounds=4000, cycles=30)
    payload = {
        "mode": "smoke" if args.smoke else "full",
        "throughput": throughput,
        "drain_latency": latency,
    }
    print(
        f"fleet: {throughput['events_per_second']:,.0f} events/s over "
        f"{throughput['events_streamed']} events "
        f"({throughput['devices']} devices); drain+restore "
        f"{latency['drain_ms_median']:.2f} ms median "
        f"({latency['snapshot_bytes']} snapshot bytes); "
        f"normalized {throughput[GATE_METRIC]:.4f}",
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
        "serve_events_per_second": throughput["events_per_second"],
        "calibration_ops_per_second": (
            throughput["calibration_ops_per_second"]
        ),
        "drain_ms_median": latency["drain_ms_median"],
        "devices": throughput["devices"],
    })
    if baseline is not None:
        print(
            f"regression gate: current {throughput[GATE_METRIC]:.4f} vs "
            f"baseline {baseline:.4f} (median of {len(history)} runs) "
            f"-> {'ok' if gate_ok else 'REGRESSED'}",
            file=sys.stderr,
        )
    return 0 if (gate_ok or not args.gate) else 1


if __name__ == "__main__":
    sys.exit(main())
