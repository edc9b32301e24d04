"""The ``serve_fleet`` workload: a device fleet against ``repro serve``.

The daemon runs in its own process, started exactly as a user starts it
(``python -m repro serve --port 0``).  This process is the one generator:
it opens :data:`DEVICES` TCP connections and streams, closed loop, the 57
DroidBench runs plus the seven malware samples at ``work=16``, each run
as its replay-plan frame sequence (``protocol.run_to_frames``, 512-event
chunks) followed by a ``reset``.  Frames are encoded and batch truth is
computed during set-up, so streaming costs the generator one socket write
per check and one ``json.loads`` per reply.

A device writes everything up to and including the next ``check`` (or
the run's closing ``reset``) in one write, then waits for the reply: the
daemon's blocking sink check drains the shard first, so a device waits
on the daemon by design.  ``--seed`` only shuffles each pass's run order
and which device streams which run.

Rates and latencies are rescaled to reference speed by calibration
samples the generator takes every :data:`SAMPLE_EVERY_S` while it
streams (their mean over the run); raw figures are reported beside them.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, List, Optional

from common import (
    CALIBRATION_REF_S, HERE, OUT, ROOT, Checks, Outcome, SpeedClock,
    calibration_sample, fingerprint, load_reference, outcome_rows,
    overhead_rows, percentile_ms, perf_counter, program_env, rng_for,
    timed_setups,
)
from layers import install_replay_layers, layer_metrics
from tracing import Tracer

HOST = "127.0.0.1"
#: Device connections; never more than the usable CPUs (see run()).
DEVICES = 2
#: Malware background work of the streamed samples (``repro malware``).
SERVE_MALWARE_WORK = 16
#: A run streams until at least this many checks were answered, so the
#: p99 verdict latency (LGRoot's wait) has at least ten samples beyond it.
MIN_CHECKS = 1000
#: Passes of the traced run and its untraced twin (65 checks a pass).
TRACED_PASSES = 16
#: How often the generator takes a calibration sample while streaming.
SAMPLE_EVERY_S = 0.1
SERVE_MODULES = ("repro.apps.droidbench", "repro.analysis.degradation",
                 "repro.serve")
READY = re.compile(r"pift-serve ready \(tcp [^:]+:(\d+)")


@dataclass
class EncodedRun:
    """One recorded run as pre-encoded write segments plus its truth."""

    name: str
    events: int
    #: ``(bytes, is_check)``: each segment ends with the one frame in it
    #: that the daemon answers (a ``check``, or the closing ``reset``).
    segments: List[tuple]
    truth: List[tuple]


def encode_run(name: str, recorded, truth: List[tuple]) -> EncodedRun:
    from repro.serve import protocol

    segments = []
    pending: List[bytes] = []
    for frame in protocol.run_to_frames(recorded, protocol.DEFAULT_CHUNK):
        pending.append(protocol.encode_frame(frame))
        if frame["op"] == "check":
            segments.append((b"".join(pending), True))
            pending = []
    pending.append(protocol.encode_frame({"op": "reset"}))
    segments.append((b"".join(pending), False))
    return EncodedRun(name, len(recorded.trace), segments, truth)


# -- the daemon process -------------------------------------------------------

class Daemon:
    """A ``repro serve`` process, untraced or under the traced entry."""

    def __init__(self, summary_path=None) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.summary_path = summary_path
        if summary_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"),
                       str(summary_path), "--port", "0"]
        self.log_path = OUT / f"daemon-{os.getpid()}.log"
        self._log = open(self.log_path, "w+", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=program_env(),
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.port = self._wait_ready()

    def _wait_ready(self, timeout: float = 120.0) -> int:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            self._log.seek(0)
            match = READY.search(self._log.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.process.kill()
        self.process.wait()
        self._log.close()
        raise RuntimeError(f"repro serve did not become ready; see "
                           f"{self.log_path}")

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the daemon so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stats(self) -> dict:
        """The daemon's ``stats`` admin verb."""
        from repro.serve.client import AdminClient

        async def ask() -> dict:
            admin = await AdminClient.connect(HOST, self.port)
            try:
                return await admin.stats()
            finally:
                await admin.close()

        return asyncio.run(ask())

    def stop(self) -> Optional[dict]:
        """Shut the daemon down; returns the traced daemon's summary."""
        from repro.serve.client import AdminClient

        async def shutdown() -> None:
            admin = await AdminClient.connect(HOST, self.port)
            await admin.shutdown()

        if self.process.poll() is None:
            try:
                asyncio.run(shutdown())
                self.process.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self._log.close()
        self.log_path.unlink(missing_ok=True)
        if self.summary_path is not None and self.summary_path.exists():
            return json.loads(self.summary_path.read_text())
        return None


# -- the generator ------------------------------------------------------------

def schedules(seed: int, runs: int, devices: int, passes: int) -> List[list]:
    """Per-device run indexes: each pass shuffled, then dealt round-robin."""
    per_device: List[list] = [[] for _ in range(devices)]
    for index in range(passes):
        order = list(range(runs))
        rng_for(seed, "pass", index).shuffle(order)
        for position, run in enumerate(order):
            per_device[position % devices].append(run)
    return per_device


async def _stream(port: int, encoded: List[EncodedRun], plan: List[list],
                  keep_going: Callable, checks: Checks,
                  verdicts: Dict[str, list]) -> dict:
    from repro.serve import protocol

    totals = {"checks": 0, "events": 0, "runs": 0}
    latencies: List[float] = []
    samples = [calibration_sample()]

    async def sample_speed() -> None:
        while True:
            samples.append(calibration_sample())
            await asyncio.sleep(SAMPLE_EVERY_S)

    sampler = asyncio.get_running_loop().create_task(sample_speed())
    started = perf_counter()

    async def device(number: int, runs: list) -> None:
        reader, writer = await asyncio.open_connection(
            HOST, port, limit=16 * 1024 * 1024)
        writer.write(protocol.encode_frame(
            protocol.hello_frame(f"device{number}")))
        welcome = json.loads(await reader.readline())
        checks.expect(welcome.get("op") == "welcome",
                      f"device{number}: no welcome: {welcome}")
        for run_index in runs:
            if not keep_going(totals, perf_counter() - started):
                break
            run = encoded[run_index]
            seen = []
            for (blob, is_check), truth in zip(
                run.segments, run.truth + [None]
            ):
                began = perf_counter()
                writer.write(blob)
                line = await reader.readline()
                elapsed = perf_counter() - began
                reply = json.loads(line)
                if not is_check:
                    checks.expect(reply.get("op") == "ack",
                                  f"{run.name}: reset answered {reply}")
                    continue
                latencies.append(elapsed)
                totals["checks"] += 1
                key = protocol.verdict_key(reply)
                seen.append(list(key))
                checks.expect(
                    reply.get("op") == "verdict" and key == truth
                    and not reply.get("degraded"),
                    f"{run.name}: verdict {reply} != truth {truth}",
                )
            previous = verdicts.setdefault(run.name, seen)
            checks.expect(previous == seen,
                          f"{run.name}: verdicts changed between passes")
            totals["events"] += run.events
            totals["runs"] += 1
        writer.write(protocol.encode_frame({"op": "end"}))
        bye = json.loads(await reader.readline())
        checks.expect(bye.get("op") == "bye", f"device{number}: {bye}")
        writer.close()
        await writer.wait_closed()

    try:
        await asyncio.gather(*(device(number, runs)
                               for number, runs in enumerate(plan)))
    finally:
        sampler.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await sampler
    wall = perf_counter() - started
    return {**totals, "wall_s": wall, "latencies": latencies,
            "factor": CALIBRATION_REF_S / statistics.fmean(samples)}


def stream(daemon: Daemon, encoded: List[EncodedRun], plan: List[list],
           keep_going: Callable, checks: Checks,
           verdicts: Dict[str, list]) -> dict:
    """Stream ``plan`` through ``daemon``; CPU shares and daemon stats."""
    daemon_cpu = daemon.cpu_seconds()
    own = os.times()
    result = asyncio.run(
        _stream(daemon.port, encoded, plan, keep_going, checks, verdicts))
    own_after = os.times()
    wall = result["wall_s"]
    result["daemon_cpu_s"] = daemon.cpu_seconds() - daemon_cpu
    result["daemon_cpu_share"] = result["daemon_cpu_s"] / wall
    result["generator_cpu_share"] = (
        own_after.user + own_after.system - own.user - own.system) / wall
    checks.expect(
        result["daemon_cpu_share"] > result["generator_cpu_share"],
        "invalid run: the generator was busier than the daemon "
        f"({result['generator_cpu_share']:.2f} vs "
        f"{result['daemon_cpu_share']:.2f} CPU)",
    )
    stats = daemon.stats()
    result["forced_drops"] = stats["forced_drops"]
    result["backpressure_engagements"] = stats["backpressure_engagements"]
    checks.expect(stats["forced_drops"] == 0,
                  f"{stats['forced_drops']} events dropped by the daemon")
    factor = result["factor"]
    result["raw_events_per_s"] = result["events"] / wall
    result["events_per_s"] = result["raw_events_per_s"] / factor
    latencies = [latency * factor for latency in result["latencies"]]
    result["p50_ms"] = percentile_ms(latencies, 50)
    result["p95_ms"] = percentile_ms(latencies, 95)
    result["p99_ms"] = percentile_ms(latencies, 99)
    return result


# -- the workload -------------------------------------------------------------

def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def serve_fleet(ctx) -> Outcome:
    replay_mod = import_module("repro.analysis.replay")
    suite = import_module("repro.apps.droidbench.suite")
    from repro.analysis.degradation import record_malware_runs
    from repro.apps.droidbench import record_suite
    from repro.core import PIFTConfig
    from repro.serve import protocol

    if DEVICES > usable_cpus():
        raise SystemExit(
            f"serve_fleet needs {DEVICES} usable CPUs for its {DEVICES} "
            f"device connections; this process may use {usable_cpus()}"
        )
    reference = load_reference("serve_fleet.json", ctx.references)
    checks = Checks()
    verdicts: Dict[str, list] = {}
    record_rates: List[float] = []
    config = PIFTConfig(13, 3)  # the `repro serve` defaults

    def prepare_inputs() -> List[EncodedRun]:
        clock = SpeedClock()
        runs = []
        for app in suite.all_apps():
            runs += record_suite(apps=[app])
            clock.lap()
        runs += record_malware_runs(work=SERVE_MALWARE_WORK)
        clock.lap()
        record_rates.append(
            sum(run.recorded.instruction_count for run in runs) / clock.ref_s)
        encoded = []
        for run in runs:
            checks.expect(
                fingerprint(run.recorded)
                == reference["recordings"].get(run.name),
                f"recording {run.name} differs from its reference")
            truth = replay_mod.replay(run.recorded, config)
            checks.expect(
                outcome_rows(truth) == reference["truth"].get(run.name),
                f"batch truth of {run.name} differs from its reference")
            encoded.append(encode_run(
                run.name, run.recorded,
                [protocol.outcome_key(o) for o in truth.sink_outcomes]))
        return encoded

    if ctx.trace:
        return _traced(ctx, prepare_inputs, checks, verdicts)

    def prepare():
        return prepare_inputs(), Daemon()

    setup_s, setup_times, (encoded, daemon) = timed_setups(
        ctx.setup_repeats, SERVE_MODULES, prepare,
        discard=lambda state: state[1].stop(),
    )
    try:
        if ctx.smoke:
            plan = schedules(ctx.seed, len(encoded), DEVICES, 1)

            def keep_going(totals, elapsed):
                return True
        else:
            plan = schedules(ctx.seed, len(encoded), DEVICES, 10_000)

            def keep_going(totals, elapsed):
                return elapsed < ctx.seconds or totals["checks"] < MIN_CHECKS
        result = stream(daemon, encoded, plan, keep_going, checks, verdicts)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "record_instr_per_s": statistics.median(record_rates),
            "events_per_s": result["events_per_s"],
            "p50_ms": result["p50_ms"],
            "p95_ms": result["p95_ms"],
        },
        details={
            "serve_events_per_s": result["events_per_s"],
            "raw_events_per_s": result["raw_events_per_s"],
            "speed_factor": result["factor"],
            "verdict_p50_ms": result["p50_ms"],
            "verdict_p99_ms": result["p99_ms"],
            "latency_samples": len(result["latencies"]),
            "runs_streamed": result["runs"],
            "devices": DEVICES,
            "daemon_cpu_share": result["daemon_cpu_share"],
            "generator_cpu_share": result["generator_cpu_share"],
            "backpressure_engagements": result["backpressure_engagements"],
            "forced_drops": result["forced_drops"],
        },
        checks=checks,
        verdicts=verdicts,
        info={"setup_times_s": setup_times},
    )


def _traced(ctx, prepare_inputs: Callable, checks: Checks,
            verdicts: Dict[str, list]) -> Outcome:
    """Set up under the tracer, then one untraced and one traced daemon
    stream the same fixed passes."""
    tracer = Tracer()
    install_replay_layers(tracer)
    try:
        with tracer.in_phase("setup"):
            encoded = prepare_inputs()
    finally:
        tracer.uninstall()
    passes = 1 if ctx.smoke else TRACED_PASSES
    plan = schedules(ctx.seed, len(encoded), DEVICES, passes)
    results = {}
    summary_path = OUT / "serve-daemon-summary.json"
    summary_path.unlink(missing_ok=True)
    for mode in ("untraced", "traced"):
        daemon = Daemon(summary_path if mode == "traced" else None)
        try:
            results[mode] = stream(daemon, encoded, plan,
                                   lambda totals, elapsed: True,
                                   checks, verdicts)
        finally:
            daemon_summary = daemon.stop()
    untraced, traced = results["untraced"], results["traced"]
    keys = ("events_per_s", "p50_ms", "p95_ms", "p99_ms")
    extra = {
        "serve.daemon_cpu_share": traced["daemon_cpu_share"],
        "serve.generator_cpu_share": traced["generator_cpu_share"],
        "serve.forced_drops": traced["forced_drops"],
        "daemon_cpu_s": traced["daemon_cpu_s"],
        "trace.overhead_ratio": (untraced["events_per_s"]
                                 / traced["events_per_s"]),
        "serve_events_per_s": untraced["events_per_s"],
        "verdict_p50_ms": untraced["p50_ms"],
        "verdict_p99_ms": untraced["p99_ms"],
    }
    summary = tracer.summary()
    tracer.dump(OUT / "serve_fleet-spans.npz")
    return Outcome(
        metrics={},
        details={},
        checks=checks,
        verdicts=verdicts,
        layers=layer_metrics(summary, daemon_summary, extra),
        info={
            "overhead": overhead_rows(untraced, traced, keys),
            "phases": {"daemon": (daemon_summary or {}).get("all", {}),
                       "setup": summary.get("setup", {})},
            "counters": {"daemon": (daemon_summary or {}).get("counters"),
                         "benchmark": summary["counters"]},
        },
    )
