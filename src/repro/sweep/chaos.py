"""Deterministic chaos harness for the sweep's lease dispatcher.

Proving the fault-tolerance acceptance bar ("bit-identical grids with
workers dying and joining mid-run") needs workers that *actually die*,
on a schedule tests can replay.  A :class:`ChaosPlan` parses a spec like
``kill-workers:0.2`` and, seeded through the :mod:`repro.core.faults`
splitmix64 streams, decides per ``(cell, attempt)`` whether the worker
evaluating that attempt is killed (SIGKILL mid-cell), hung (SIGSTOP —
the whole process freezes, heartbeats stop, the lease expires), or made
to raise (a deterministic in-cell exception, the poison-cell path).

Decisions are pure functions of ``(seed, mode, cell, attempt)``:
re-running the same grid with the same chaos spec kills the same
attempts, so the chaos CI job and the resilience benchmark are
reproducible.  The harness is injected worker-side
(:meth:`ChaosInjector.run`) so death happens *inside* the evaluation —
after the cell was claimed and leased, before its result is shipped —
exercising exactly the requeue path a real crash takes.

Modes (comma-separated in one spec):

* ``kill-workers:P`` — with probability P per attempt, SIGKILL the
  worker partway into the cell;
* ``hang-workers:P`` — SIGSTOP the worker mid-cell (lease-expiry path;
  the supervisor SIGKILLs the frozen process);
* ``fail-cells:P`` — raise ``ChaosFailure`` from the evaluation (the
  retry-then-poison path, no process death).
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.faults import chance64

#: splitmix64 stream ids per chaos mode (frozen: changing them changes
#: every seeded chaos schedule).
_STREAMS: Dict[str, int] = {
    "kill-workers": 201,
    "hang-workers": 202,
    "fail-cells": 203,
}

#: How far into the cell the kill/hang lands, as a fraction of this many
#: seconds — enough for the attempt to be visibly mid-evaluation without
#: stretching test wall time.
_MID_CELL_DELAY = 0.05


class ChaosError(ValueError):
    """The chaos spec cannot be parsed."""


class ChaosFailure(RuntimeError):
    """Deterministic in-cell failure injected by ``fail-cells``."""


@dataclass(frozen=True)
class ChaosPlan:
    """Parsed, seeded chaos schedule (picklable; crosses into workers)."""

    kill_rate: float = 0.0
    hang_rate: float = 0.0
    fail_rate: float = 0.0
    seed: int = 0

    @classmethod
    def parse(cls, spec: Optional[str], seed: int = 0) -> "ChaosPlan":
        """Parse ``"kill-workers:0.2,fail-cells:1"`` into a plan."""
        rates = {"kill-workers": 0.0, "hang-workers": 0.0, "fail-cells": 0.0}
        for part in (spec or "").split(","):
            part = part.strip()
            if not part:
                continue
            mode, _, raw = part.partition(":")
            mode = mode.strip()
            if mode not in rates:
                raise ChaosError(
                    f"unknown chaos mode {mode!r}; "
                    f"known: {', '.join(sorted(rates))}"
                )
            try:
                rate = float(raw)
            except ValueError:
                raise ChaosError(
                    f"bad chaos rate {raw!r} in {part!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise ChaosError(f"chaos rate must be in [0, 1], got {rate}")
            rates[mode] = rate
        return cls(
            kill_rate=rates["kill-workers"],
            hang_rate=rates["hang-workers"],
            fail_rate=rates["fail-cells"],
            seed=seed,
        )

    @property
    def enabled(self) -> bool:
        return self.kill_rate > 0 or self.hang_rate > 0 or self.fail_rate > 0

    def decision(self, cell_index: int, attempt: int) -> Optional[str]:
        """The fate of this (cell, attempt): 'kill', 'hang', 'fail', None.

        Modes draw from independent splitmix64 streams; when several
        fire, the deadlier one wins (kill > hang > fail) so raising one
        rate never *removes* deaths scheduled by another.
        """
        ordinal = cell_index * 1_000_003 + attempt
        if self.kill_rate > 0 and (
            chance64(self.seed, _STREAMS["kill-workers"], ordinal)
            < self.kill_rate
        ):
            return "kill"
        if self.hang_rate > 0 and (
            chance64(self.seed, _STREAMS["hang-workers"], ordinal)
            < self.hang_rate
        ):
            return "hang"
        if self.fail_rate > 0 and (
            chance64(self.seed, _STREAMS["fail-cells"], ordinal)
            < self.fail_rate
        ):
            return "fail"
        return None

    def as_payload(self) -> dict:
        return {
            "kill_rate": self.kill_rate,
            "hang_rate": self.hang_rate,
            "fail_rate": self.fail_rate,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: Optional[dict]) -> Optional["ChaosPlan"]:
        if not payload:
            return None
        plan = cls(**payload)
        return plan if plan.enabled else None


class ChaosInjector:
    """Worker-side executor that applies a plan's decision to one attempt."""

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan

    def run(self, cell_index: int, attempt: int, evaluate):
        """Evaluate the cell under this attempt's chaos decision.

        ``evaluate`` is a zero-argument callable producing the cell
        result.  On a ``kill``/``hang`` decision the evaluation runs on
        a scratch thread while the main thread delivers the signal a
        deterministic fraction into the cell — the process dies (or
        freezes) genuinely mid-evaluation, and no result is ever
        shipped for that attempt even if the evaluation happened to
        finish first (the requeued attempt recomputes the identical
        result, so the grid stays bit-exact).
        """
        fate = self.plan.decision(cell_index, attempt)
        if fate is None:
            return evaluate()
        if fate == "fail":
            raise ChaosFailure(
                f"chaos fail-cells: cell {cell_index} attempt {attempt}"
            )
        delay = _MID_CELL_DELAY * chance64(
            self.plan.seed, 299, cell_index * 1_000_003 + attempt
        )
        worker = threading.Thread(target=_swallow(evaluate), daemon=True)
        worker.start()
        worker.join(timeout=delay)
        if fate == "hang":
            # Freeze the whole process (heartbeat threads included) so
            # the parent sees the lease expire, SIGKILLs us, requeues.
            os.kill(os.getpid(), signal.SIGSTOP)
            # If anything ever SIGCONTs us, die rather than double-ship.
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable: SIGKILL did not take")  # pragma: no cover


def _swallow(evaluate):
    """Run ``evaluate`` discarding result and errors (doomed attempt)."""

    def run() -> None:
        try:
            evaluate()
        except Exception:
            pass

    return run
