"""Vectorised columnar pre-filter for the replay hot loop.

Hardware DIFT engines get their speed by processing taint checks as wide
parallel bit operations off the critical path; this module is the numpy
analogue for PIFT's Algorithm 1.  The observation: on the traces PIFT
cares about (DroidBench apps, malware payloads, long background
workloads) the overwhelming majority of memory events are *irrelevant* —
they advance counters but cannot change window or taint state:

* a **load** that overlaps no tainted range opens no window;
* a **store** with no open (and unexhausted) tainting window in its
  process is not a taint candidate, and — when untainting is off, or the
  store overlaps no tainted range — not an untaint candidate either.

Both conditions are pure functions of state that only changes at the
*relevant* events themselves (tainted loads, taints, untaints, source
registrations).  So the kernel classifies whole blocks of the column
encoding with ``np.searchsorted`` overlap tests against a sorted-interval
numpy mirror of each PID's taint state
(:meth:`~repro.core.ranges.RangeSet.as_arrays`, refreshed on mutation via
the range set's version counter), bulk-accounts the irrelevant prefix run
in O(distinct PIDs), and drops into the exact scalar loop
(:meth:`~repro.core.tracker.PIFTTracker.observe_columns_scalar`) only
around events that can matter.

Soundness argument (the property suite in
``tests/property/test_batch_parity.py`` checks this bit-for-bit):

* classification happens at a *sync point* where no event has been
  skipped past; skipped events are exactly those whose scalar processing
  would touch nothing but ``loads_observed`` / ``stores_observed`` and
  the per-PID instruction high-water marks, which the bulk accounting
  reproduces exactly (the high-water updates telescope, so applying the
  per-PID maximum equals applying every index in sequence);
* a relevant event can invalidate the remaining classification (a taint
  grows the overlap set; a tainted load opens a window), so the kernel
  never skips past one — it scalar-processes a short run and re-syncs;
* untaints and propagation-cap exhaustion only *shrink* the relevant
  set, so a stale classification stays conservative, never unsound.

The kernel is an execution strategy, not a semantics change: it requires
an unbounded interval-set backend, :class:`~repro.core.ranges.RangeSet` or
:class:`~repro.core.colours.ColourRangeSet` (bounded hardware models
mutate on eviction inside ``add`` and may keep LRU state, so skipping
their queries would change behaviour).  A telemetry hub does not change
the route: the tracker publishes its counters once per call, after the
kernel returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.events import ColumnArrays, EventColumns
    from repro.core.tracker import PIFTTracker

#: First classification block; doubled after every fully-irrelevant block.
BLOCK_MIN = 512

#: Classification block ceiling — caps per-sync numpy work so taint-dense
#: regions never pay more than O(BLOCK_MAX) per relevant event.
BLOCK_MAX = 65536

#: Events handed to the scalar loop after each relevant hit before the
#: kernel re-classifies.  Amortises classification cost in dense regions.
SCALAR_RUN = 64

#: Density bail-out: once this many events have gone through the scalar
#: loop, the kernel compares skipped vs scalar-handled counts and, if
#: fewer than half were skipped, hands a *bounded* chunk
#: (:data:`REPROBE_EVERY`) to the scalar loop and re-probes — a
#: dense-prefix/sparse-tail trace regains the fast path once the tail
#: starts, instead of staying scalar forever.
BAILOUT_AFTER = 512

#: Events handed to the scalar loop per density bail-out before the
#: kernel re-probes with a fresh classification window.
REPROBE_EVERY = 4096


def _pid_relevance(
    tracker: "PIFTTracker",
    pid: int,
    loads_m,
    query_start,
    query_end,
    query_index,
):
    """Relevance mask for one PID's events, given the sync-point state.

    Relevance:

    * load overlapping the PID's taint state (would open a window),
    * store inside the PID's open, unexhausted window (would taint),
    * store overlapping the PID's taint state while untainting is on
      (would untaint).
    """
    config = tracker.config
    state = tracker._states.get(pid)
    if state is not None and len(state):
        starts, ends = state.as_arrays()
        candidate = _np.searchsorted(starts, query_end, side="right") - 1
        hit = (candidate >= 0) & (ends[candidate] >= query_start)
        # Overlapping loads open windows; overlapping stores untaint
        # (when untainting is on).
        rel = hit if config.untainting else hit & loads_m
    else:
        rel = None
    window = tracker._windows.get(pid)
    if (
        window is not None
        and window.last_tainted_load is not None
        and window.propagations < config.max_propagations
    ):
        # Both window edges: the window is the NI instructions *following*
        # the tainted load, so an index below the window-opening load is
        # outside it (matches the scalar loop's two-edge test; without the
        # lower edge, regressed-index stores were classified relevant).
        last = window.last_tainted_load
        in_window = (
            ~loads_m
            & (query_index >= last)
            & (query_index <= last + config.window_size)
        )
        rel = in_window if rel is None else rel | in_window
    return rel


def _first_relevant(
    tracker: "PIFTTracker",
    arrays: "ColumnArrays",
    lo: int,
    hi: int,
) -> int:
    """Index of the first event in ``[lo, hi)`` that can matter, else ``hi``."""
    loads_m = arrays.is_load[lo:hi]
    query_start = arrays.starts[lo:hi]
    query_end = arrays.ends[lo:hi]
    query_index = arrays.indices[lo:hi]
    pid_values = arrays.pid_values
    if len(pid_values) == 1:
        relevant = _pid_relevance(
            tracker, pid_values[0], loads_m, query_start, query_end,
            query_index,
        )
    else:
        block_pids = arrays.pids[lo:hi]
        relevant = None
        for pid in pid_values:
            member = block_pids == pid
            if not member.any():
                continue
            rel = _pid_relevance(
                tracker, pid, loads_m[member], query_start[member],
                query_end[member], query_index[member],
            )
            if rel is not None and rel.any():
                if relevant is None:
                    relevant = _np.zeros(hi - lo, dtype=bool)
                relevant[member] = rel
    if relevant is None:
        return hi
    hits = _np.flatnonzero(relevant)
    return lo + int(hits[0]) if hits.size else hi


def _skip_run(tracker: "PIFTTracker", arrays: "ColumnArrays", lo: int, hi: int) -> None:
    """Bulk-account the irrelevant events in ``[lo, hi)``.

    Matches what the scalar loop would have done for them: bump the
    load/store counters and advance each PID's instruction high-water
    mark (whose per-event updates telescope to a single per-PID max),
    creating taint state / window entries for first-seen PIDs exactly as
    the scalar loop does on a PID switch.
    """
    stats = tracker.stats
    load_count = int(_np.count_nonzero(arrays.is_load[lo:hi]))
    stats.loads_observed += load_count
    stats.stores_observed += (hi - lo) - load_count
    windows = tracker._windows
    pid_values = arrays.pid_values
    if len(pid_values) == 1:
        pid = pid_values[0]
        if pid not in windows:
            tracker.state(pid)
        window = windows[pid]
        # Per-PID indices are normally non-decreasing, but the scalar
        # loop tolerates regressions via its high-water update; max()
        # (not the last element) keeps the telescoped form identical.
        top = int(arrays.indices[lo:hi].max())
        if top >= window.instructions_retired:
            stats.instructions_observed += top + 1 - window.instructions_retired
            window.instructions_retired = top + 1
        return
    block_pids = arrays.pids[lo:hi]
    block_indices = arrays.indices[lo:hi]
    for pid in pid_values:
        member = block_pids == pid
        if not member.any():
            continue
        if pid not in windows:
            tracker.state(pid)
        window = windows[pid]
        top = int(block_indices[member].max())
        if top >= window.instructions_retired:
            stats.instructions_observed += top + 1 - window.instructions_retired
            window.instructions_retired = top + 1


def observe_columns(
    tracker: "PIFTTracker", columns: "EventColumns", start: int, stop: int
) -> None:
    """Algorithm 1 over ``columns[start:stop)`` with vectorised skipping.

    Alternates between bulk-skipping classified-irrelevant prefix runs
    and exact scalar processing of :data:`SCALAR_RUN` events around each
    relevant one.  The block size doubles (up to :data:`BLOCK_MAX`)
    while blocks keep coming back fully irrelevant — a fully untainted
    trace is classified in O(n / BLOCK_MAX) numpy passes — and resets
    after every relevant hit.  Slices where the scalar loop ends up
    doing most of the work (skip share below one half after
    :data:`BAILOUT_AFTER` scalar events) hand a bounded
    :data:`REPROBE_EVERY` chunk to the scalar loop, then re-probe — so a
    dense-prefix/sparse-tail trace regains the fast path.
    """
    arrays = columns.arrays()
    scalar = tracker.observe_columns_scalar
    position = start
    block = BLOCK_MIN
    skipped = 0
    scalar_handled = 0
    while position < stop:
        block_end = min(position + block, stop)
        first = _first_relevant(tracker, arrays, position, block_end)
        if first > position:
            _skip_run(tracker, arrays, position, first)
            skipped += first - position
            position = first
        if position >= block_end:
            # Whole block irrelevant: widen the next classification.
            block = min(block * 2, BLOCK_MAX)
            continue
        # A relevant event: let the exact scalar loop process a short run
        # (its mutations may invalidate the rest of the classification),
        # then re-sync against the updated state.
        run_end = min(position + SCALAR_RUN, stop)
        scalar(columns, position, run_end)
        scalar_handled += run_end - position
        position = run_end
        block = BLOCK_MIN
        if scalar_handled >= BAILOUT_AFTER:
            if skipped < scalar_handled:
                # Density bail-out, bounded: scalar a chunk, re-probe.
                chunk_end = min(position + REPROBE_EVERY, stop)
                scalar(columns, position, chunk_end)
                position = chunk_end
            skipped = 0
            scalar_handled = 0
