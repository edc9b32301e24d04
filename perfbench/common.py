"""Shared pieces of the workloads: paths, reference checks, set-up timing.

Nothing here imports ``repro`` at module level, so ``run.py`` can refuse
to start in a directory that holds no program before touching it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
#: Scratch space for stores, spans and reports (git-ignored).
OUT = ROOT / ".perfbench_out"

#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The per-run malware replay grid (NI x NT).
REPLAY_CONFIGS: Tuple[Tuple[int, int], ...] = tuple(
    (ni, nt) for ni in (5, 13, 20) for nt in (1, 3)
)
#: The 200-cell Figure 11 grid: the ``repro sweep`` default axes.
GRID_WINDOWS = tuple(range(1, 21))
GRID_CAPS = tuple(range(1, 11))
#: Full-grid cell indexes the smoke mode keeps (corners and the paper's
#: NI=13, NT=3 point).
SMOKE_CELLS = (0, 19, 52, 180, 199)

perf_counter = time.perf_counter

#: What one calibration sample takes on the reference machine.  Timed
#: segments are rescaled by ``CALIBRATION_REF_S / sample`` (see
#: :class:`SpeedClock`), so the reported rates and latencies read as if
#: measured on a machine of that speed.
CALIBRATION_REF_S = 0.9e-3


def program_env() -> dict:
    """Environment for child processes running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@dataclass
class Checks:
    """Outputs checked against their references, and the failures."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Outcome:
    """Everything one workload run produced."""

    #: End-to-end metric values (tracing off), by BENCHMARK.json name.
    metrics: Dict[str, float]
    #: Workload-specific figures behind the end-to-end metrics.
    details: Dict[str, float]
    checks: Checks
    #: Per-run verdicts, keyed by run (and config): seed-invariant.
    verdicts: Dict[str, list]
    #: Per-layer metric values (traced runs only).
    layers: Optional[Dict[str, float]] = None
    info: dict = field(default_factory=dict)


def load_reference(name: str, directory: Path = REFERENCES) -> dict:
    with open(directory / name, encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint(recorded) -> str:
    """Digest of a recorded run: events, sources, checks, length."""
    digest = hashlib.sha256()
    digest.update(repr([
        (e.is_load, e.address_range.start, e.address_range.end,
         e.instruction_index, e.pid)
        for e in recorded.trace.events
    ]).encode())
    digest.update(repr([
        (s.address_range.start, s.address_range.end, s.instruction_index,
         s.source_name, s.pid)
        for s in recorded.sources
    ]).encode())
    digest.update(repr([
        (c.address_range.start, c.address_range.end, c.instruction_index,
         c.sink_name, c.channel, c.pid)
        for c in recorded.sink_checks
    ]).encode())
    digest.update(str(recorded.instruction_count).encode())
    return digest.hexdigest()


def outcome_rows(result) -> list:
    """A ReplayResult's sink outcomes as JSON-comparable rows."""
    return [
        [o.sink_name, o.channel, o.instruction_index, o.pid, o.tainted,
         list(o.colours)]
        for o in result.sink_outcomes
    ]


def stats_row(result) -> dict:
    stats = result.stats.as_dict()
    stats.pop("timeline")
    return stats


def import_probe(modules: Sequence[str]) -> None:
    """Import ``modules`` in a fresh interpreter (process start + imports)."""
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=program_env(), cwd=ROOT, check=True, timeout=60,
    )


def calibration_sample() -> float:
    """Seconds for a fixed pure-Python kernel (best of two passes).

    The kernel uses builtins only, so no change to the program moves it;
    it moves with the host's speed, which on a shared machine drifts by
    tens of percent within a minute.
    """
    best = float("inf")
    for _ in range(2):
        started = perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(6000):
            table[i & 255] = i
            total += table.get((i * 7) & 255, 0)
        best = min(best, perf_counter() - started)
    return best


class SpeedClock:
    """Wall time in segments, each rescaled to the reference speed.

    A calibration sample is taken before the first segment and after
    every :meth:`lap`; a segment's factor is ``CALIBRATION_REF_S`` over
    the mean of the samples around it.  ``raw_s`` sums the measured
    seconds (calibration excluded), ``ref_s`` the rescaled ones.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._sample = calibration_sample()
        self._mark = perf_counter()

    def lap(self) -> float:
        """End the current segment; returns its rescaling factor."""
        elapsed = perf_counter() - self._mark
        sample = calibration_sample()
        factor = CALIBRATION_REF_S / ((self._sample + sample) / 2)
        self.raw_s += elapsed
        self.ref_s += elapsed * factor
        self._sample = sample
        self._mark = perf_counter()
        return factor


def timed_setups(
    repeats: int, modules: Sequence[str], prepare: Callable,
    discard: Optional[Callable] = None,
):
    """Set up ``repeats`` times; returns ``(median seconds, times, state)``.

    Each set-up is a fresh interpreter importing ``modules`` plus an
    in-process ``prepare()``, timed at reference speed (one
    :class:`SpeedClock` segment); the last state is kept and earlier ones
    are passed to ``discard``.
    """
    times = []
    state = None
    for _ in range(repeats):
        if state is not None and discard is not None:
            discard(state)
        clock = SpeedClock()
        import_probe(modules)
        state = prepare()
        clock.lap()
        times.append(clock.ref_s)
    return statistics.median(times), times, state


def percentile_ms(samples: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples) * 1e3, q))


def overhead_rows(untraced: dict, traced: dict, keys) -> Dict[str, dict]:
    """Tracing overhead: each figure from the traced and untraced units."""
    return {
        key: {"untraced": untraced[key], "traced": traced[key],
              "difference": traced[key] - untraced[key]}
        for key in keys
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rng_for(seed: int, *salt) -> random.Random:
    return random.Random("|".join(str(part) for part in (seed,) + salt))
