"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_grid --seed 1 --seconds 20 \\
        --trace 0

Workloads: ``suite_grid``, ``malware_replay``, ``serve_fleet`` (see
``perfbench/METRICS.md``).  ``--trace 0`` reports the end-to-end metrics
measured with tracing off; ``--trace 1`` reports the per-layer metrics of
a separate traced run.  ``--smoke`` runs a tiny size of the workload.

The report lists every metric by name and unit, then the environment
record, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output failed
its reference check, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT, SRC  # noqa: E402

#: End-to-end metric units, by BENCHMARK.json name.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_ratio": "ratio",
    "record_instr_per_s": "instr/s",
    "events_per_s": "events/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
}
WORKLOADS = ("suite_grid", "malware_replay", "serve_fleet")


def environment() -> dict:
    """What the numbers were measured on."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except OSError:
            commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, references=None):
    """Run one workload in this process; returns its Outcome."""
    from fleet import serve_fleet
    from workloads import Context, malware_replay, suite_grid

    kwargs = {} if references is None else {"references": references}
    ctx = Context(seed, seconds, trace, smoke=smoke, **kwargs)
    return {"suite_grid": suite_grid, "malware_replay": malware_replay,
            "serve_fleet": serve_fleet}[workload](ctx)


def result_line(outcome, trace: bool) -> dict:
    from layers import PER_LAYER_UNITS

    checks = outcome.checks
    if trace:
        values, units = outcome.layers, PER_LAYER_UNITS
    else:
        values = dict(outcome.metrics)
        values["passed_ratio"] = (
            (checks.attempted - checks.failed) / checks.attempted
        )
        units = END_TO_END_UNITS
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def report(workload: str, outcome, result: dict, env: dict) -> None:
    print(f"perfbench {workload}: {result['attempted']} outputs checked, "
          f"{result['failed']} failed "
          f"(failed_ratio {result['failed'] / result['attempted']:.6f})")
    for failure in outcome.checks.failures:
        print(f"  FAILED: {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in outcome.details.items():
        print(f"  ({name:<38} {value:>16.6g})")
    for name, row in outcome.info.get("overhead", {}).items():
        print(f"  tracing overhead {name}: untraced {row['untraced']:.6g}, "
              f"traced {row['traced']:.6g}, "
              f"difference {row['difference']:+.6g}")
    print("environment " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size: one unit, one set-up")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  smoke=args.smoke)
    result = result_line(outcome, bool(args.trace))
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
     ).write_text(json.dumps({
         "result": result, "details": outcome.details, "info": outcome.info,
         "failures": outcome.checks.failures, "environment": env,
     }, indent=1, default=str))
    report(args.workload, outcome, result, env)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
