"""repro.sweep — the parallel experiment engine.

Declarative experiment grids (:class:`GridSpec` → :class:`SweepCell`)
evaluated over a record-once/replay-many :class:`TraceCache`, inline or
across worker processes (:func:`run_sweep`).  Results are bit-identical
at any worker count; ``--jobs`` only changes wall-clock time.  The
``analysis.accuracy`` / ``analysis.degradation`` entry points and the
``python -m repro sweep`` CLI are built on this engine.

Every ``jobs > 1`` sweep runs on the lease dispatcher
(:class:`QueueBackend`), which survives worker deaths via TTL leases,
exponential-backoff retries, and poison-cell quarantine — with a
deterministic chaos harness (:class:`ChaosPlan`) to prove it.
"""

from repro.sweep.cache import TraceCache
from repro.sweep.chaos import ChaosError, ChaosFailure, ChaosPlan
from repro.sweep.dispatch import DispatchError, DispatchStats, QueueBackend
from repro.sweep.engine import (
    CellResult,
    SweepResult,
    run_cell,
    run_sweep,
)
from repro.sweep.leases import (
    BackoffPolicy,
    Lease,
    LeaseSupervisor,
    PoisonedCell,
)
from repro.sweep.specs import (
    STATE_FACTORIES,
    GridSpec,
    SweepCell,
    derive_seed,
    register_state_factory,
    resolve_state_factory,
)

__all__ = [
    "BackoffPolicy",
    "CellResult",
    "ChaosError",
    "ChaosFailure",
    "ChaosPlan",
    "DispatchError",
    "DispatchStats",
    "GridSpec",
    "Lease",
    "LeaseSupervisor",
    "PoisonedCell",
    "QueueBackend",
    "STATE_FACTORIES",
    "SweepCell",
    "SweepResult",
    "TraceCache",
    "derive_seed",
    "register_state_factory",
    "resolve_state_factory",
    "run_cell",
    "run_sweep",
]
