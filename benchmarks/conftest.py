"""Shared fixtures for the reproduction benchmarks.

Expensive artifacts (the LGRoot trace, the recorded 57-app suite) are
produced once per session and shared across benchmark files.

Run with ``pytest benchmarks/ --benchmark-only -s`` to also see the
regenerated tables and figure series printed to stdout.
"""

import time

import pytest

from repro.apps.droidbench import record_suite
from repro.apps.malware import record_lgroot_trace


@pytest.fixture
def measured(benchmark):
    """``measured(fn, rounds)`` -> ``(fn's last result, [seconds per
    call])``: ``fn`` runs under ``benchmark.pedantic`` (or ``benchmark``
    itself when ``rounds`` is None) and every call is timed with
    ``perf_counter``.

    Gates read these times, not ``benchmark.stats``: with
    ``--benchmark-disable`` pytest-benchmark calls ``fn`` once and leaves
    ``stats`` at None, so the missing rounds run here and each gate sees
    the same round count whether benchmarking is on or off.
    """

    def run(fn, rounds=None):
        seconds = []

        def timed():
            started = time.perf_counter()
            result = fn()
            seconds.append(time.perf_counter() - started)
            return result

        if rounds is None:
            result = benchmark(timed)
        else:
            result = benchmark.pedantic(timed, rounds=rounds, iterations=1)
        while len(seconds) < (rounds or 1):
            result = timed()
        return result, seconds

    return run


@pytest.fixture(scope="session")
def lgroot_trace():
    """The LGRoot malware execution trace (paper Figures 2, 12-19)."""
    return record_lgroot_trace(work=160)


@pytest.fixture(scope="session")
def suite_runs():
    """All 57 DroidBench-style apps, recorded once (paper Figure 11)."""
    return record_suite()
