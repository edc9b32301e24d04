"""Lease bookkeeping for the sweep's lease dispatcher.

The dispatcher's correctness story is a small state machine per cell:

``READY -> LEASED -> DONE`` on the happy path, with two failure edges —
``LEASED -> READY`` (the holding worker died or its lease expired; the
cell requeues after an exponential-backoff delay) and ``LEASED ->
POISONED`` (the cell failed ``max_retries + 1`` times; it is quarantined
so the rest of the grid can finish around an explicit hole).

Everything here is *pure* bookkeeping: time is injected into every
method, no process or queue is touched, and backoff jitter draws from
the :mod:`repro.core.faults` splitmix64 streams — so the supervisor is
deterministic under test and the process-wrangling lives entirely in
:mod:`repro.sweep.dispatch`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.faults import chance64

#: splitmix64 stream id for backoff jitter draws (frozen; changing it
#: changes every seeded run's requeue schedule).
_STREAM_BACKOFF = 101


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic jitter for cell requeues.

    The delay before attempt ``n`` (n >= 2) is ``base * multiplier**(n-2)``
    capped at ``cap``, scaled by a jitter factor in ``[1 - jitter, 1 +
    jitter]`` drawn from a splitmix64 stream over ``(seed, cell,
    attempt)`` — decorrelated across cells and attempts, reproducible
    across runs.
    """

    base: float = 0.1
    multiplier: float = 2.0
    cap: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0 or self.cap < 0:
            raise ValueError("backoff base/cap must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("backoff jitter must be in [0, 1]")

    def delay(self, cell_index: int, attempt: int) -> float:
        """Seconds to hold cell ``cell_index`` back before ``attempt``."""
        if attempt <= 1:
            return 0.0
        raw = min(self.cap, self.base * self.multiplier ** (attempt - 2))
        if self.jitter == 0.0:
            return raw
        draw = chance64(
            self.seed, _STREAM_BACKOFF, cell_index * 1_000_003 + attempt
        )
        return raw * (1.0 + self.jitter * (2.0 * draw - 1.0))


@dataclass
class Lease:
    """One worker's claim on one cell, valid until ``deadline``."""

    cell_index: int
    worker: int
    attempt: int
    granted_at: float
    deadline: float
    #: When the holder was last heard from: the grant, then each renewal.
    heard_at: float = 0.0
    #: Reported stalled in the current quiet spell; a renewal clears it.
    stalled: bool = False

    def renew(self, now: float, ttl: float) -> None:
        self.heard_at = now
        self.deadline = now + ttl
        self.stalled = False

    def expired(self, now: float) -> bool:
        return now > self.deadline


@dataclass
class PoisonedCell:
    """A cell quarantined after exhausting its retry budget."""

    cell_index: int
    attempts: int
    error: Optional[str] = None
    #: Per-attempt outcome strings ("lost", "error: ...") for the journal.
    history: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "index": self.cell_index,
            "attempts": self.attempts,
            "error": self.error,
        }


class LeaseSupervisor:
    """The dispatcher's brain: grants, renewals, expiry, retry, poison.

    The dispatcher drives it with wall-clock ``now`` values; tests drive
    it with a fake clock.  One instance supervises one sweep's pending
    cells, granted in the order given:

    * :meth:`next_ready` / :meth:`grant` hand cells to idle workers;
    * :meth:`heartbeat` renews every lease the worker holds;
    * :meth:`expired_leases` names leases past their TTL (dead or hung
      holder — the dispatcher kills the process, then calls
      :meth:`worker_lost`);
    * :meth:`stalled_leases` names leases whose holder has gone quiet
      for a shorter, report-only timeout, once per quiet spell;
    * :meth:`worker_lost` / :meth:`fail` requeue with backoff or, once
      the retry budget is spent, quarantine the cell as poisoned;
    * :meth:`complete` retires a cell (stale duplicate results from a
      prior lease generation are accepted — cells are pure functions, so
      any attempt's result is *the* result).
    """

    def __init__(
        self,
        cells,
        lease_timeout: float,
        max_retries: int,
        backoff: Optional[BackoffPolicy] = None,
        now: float = 0.0,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.lease_timeout = lease_timeout
        self.max_retries = max_retries
        self.backoff = backoff or BackoffPolicy()
        self.cells = {cell.index: cell for cell in cells}
        self.leases: Dict[int, Lease] = {}
        self.poisoned: Dict[int, PoisonedCell] = {}
        self.completed: set = set()
        #: Requeues performed (retry attempts granted beyond the first).
        self.retries = 0
        self.renewals = 0
        self._attempts: Dict[int, int] = {index: 0 for index in self.cells}
        self._history: Dict[int, List[str]] = {index: [] for index in self.cells}
        #: (ready_at, tiebreak, cell_index) min-heap of runnable cells.
        #: Superseded entries are deleted lazily: only the entry matching
        #: ``_current[cell_index]`` counts.
        self._ready: List[Tuple[float, int, int]] = []
        self._current: Dict[int, Tuple[float, int]] = {}
        self._seq = 0
        for index in self.cells:
            self._push_ready(index, now)

    # -- ready queue -------------------------------------------------------

    def _push_ready(self, cell_index: int, ready_at: float) -> None:
        self._current[cell_index] = (ready_at, self._seq)
        heapq.heappush(self._ready, (ready_at, self._seq, cell_index))
        self._seq += 1

    def _stale(self, ready_at: float, seq: int, cell_index: int) -> bool:
        """True for superseded entries and retired/currently-leased cells
        (a leased cell's future re-entry comes from its failure edge)."""
        return (
            self._current.get(cell_index) != (ready_at, seq)
            or cell_index in self.completed
            or cell_index in self.poisoned
            or cell_index in self.leases
        )

    def next_ready(self, now: float):
        """Pop the next runnable cell, or None (nothing ready yet/ever)."""
        while self._ready and self._ready[0][0] <= now:
            ready_at, seq, cell_index = heapq.heappop(self._ready)
            if self._stale(ready_at, seq, cell_index):
                continue
            return self.cells[cell_index]
        return None

    def next_ready_at(self) -> Optional[float]:
        """When the earliest backed-off cell becomes runnable (or None)."""
        while self._ready:
            ready_at, seq, cell_index = self._ready[0]
            if self._stale(ready_at, seq, cell_index):
                heapq.heappop(self._ready)
                continue
            return ready_at
        return None

    # -- lease lifecycle ---------------------------------------------------

    def grant(self, cell_index: int, worker: int, now: float) -> Lease:
        """Lease ``cell_index`` to ``worker`` under the TTL."""
        if cell_index in self.leases:
            raise ValueError(f"cell {cell_index} is already leased")
        self._attempts[cell_index] += 1
        lease = Lease(
            cell_index=cell_index,
            worker=worker,
            attempt=self._attempts[cell_index],
            granted_at=now,
            deadline=now + self.lease_timeout,
            heard_at=now,
        )
        self.leases[cell_index] = lease
        return lease

    def heartbeat(self, worker: int, now: float) -> int:
        """Renew every lease ``worker`` holds; returns renewal count."""
        renewed = 0
        for lease in self.leases.values():
            if lease.worker == worker:
                lease.renew(now, self.lease_timeout)
                renewed += 1
        self.renewals += renewed
        return renewed

    def expired_leases(self, now: float) -> List[Lease]:
        """Leases past their deadline (their holders count as dead)."""
        return [
            lease for lease in self.leases.values() if lease.expired(now)
        ]

    def stalled_leases(self, now: float, timeout: float) -> List[Lease]:
        """Leases whose holder has been quiet for longer than ``timeout``.

        Each quiet spell is reported once: a reported lease is skipped
        until a :meth:`heartbeat` renews it.
        """
        stalled = [
            lease for lease in self.leases.values()
            if not lease.stalled and now - lease.heard_at > timeout
        ]
        for lease in stalled:
            lease.stalled = True
        return stalled

    def complete(self, cell_index: int) -> bool:
        """Retire a finished cell; False when it was already retired."""
        if cell_index in self.completed:
            return False
        self.completed.add(cell_index)
        self.leases.pop(cell_index, None)
        # A straggler result for a poisoned cell un-quarantines it: the
        # grid prefers a real value over a hole.
        self.poisoned.pop(cell_index, None)
        return True

    # -- failure edges -----------------------------------------------------

    def _requeue_or_poison(
        self, lease: Lease, now: float, outcome: str,
        error: Optional[str] = None,
    ) -> Optional[PoisonedCell]:
        self.leases.pop(lease.cell_index, None)
        if lease.cell_index in self.completed:
            return None
        self._history[lease.cell_index].append(outcome)
        if lease.attempt > self.max_retries:
            poisoned = PoisonedCell(
                cell_index=lease.cell_index,
                attempts=lease.attempt,
                error=error,
                history=list(self._history[lease.cell_index]),
            )
            self.poisoned[lease.cell_index] = poisoned
            return poisoned
        self.retries += 1
        delay = self.backoff.delay(lease.cell_index, lease.attempt + 1)
        self._push_ready(lease.cell_index, now + delay)
        return None

    def worker_lost(
        self, worker: int, now: float
    ) -> List[Optional[PoisonedCell]]:
        """The worker died or was killed: fail every lease it held.

        Returns one entry per lease the worker was holding — a
        :class:`PoisonedCell` when the failure exhausted the budget,
        None when the cell was requeued.
        """
        outcomes = []
        for lease in [
            lease for lease in self.leases.values() if lease.worker == worker
        ]:
            outcomes.append(self._requeue_or_poison(lease, now, "lost"))
        return outcomes

    def fail(
        self, cell_index: int, now: float, error: str
    ) -> Optional[PoisonedCell]:
        """The cell's evaluation raised (worker survived): retry or poison."""
        lease = self.leases.get(cell_index)
        if lease is None:
            return None
        return self._requeue_or_poison(
            lease, now, f"error: {error}", error=error
        )

    # -- progress ----------------------------------------------------------

    def attempts(self, cell_index: int) -> int:
        return self._attempts.get(cell_index, 0)

    def outstanding(self) -> int:
        """Cells not yet completed or poisoned."""
        return len(self.cells) - len(self.completed) - len(self.poisoned)

    def done(self) -> bool:
        return self.outstanding() == 0
