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

import bisect
import warnings
from typing import TYPE_CHECKING, List, Tuple

from repro.core.colours import ColourRangeSet
from repro.core.ranges import AddressRange

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatched stubs
    _np = None

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.events import ColumnArrays, EventColumns
    from repro.core.tracker import PIFTTracker

#: Is the kernel usable at all (numpy importable)?
HAVE_NUMPY = _np is not None

#: First classification block; doubled after every fully-irrelevant block.
BLOCK_MIN = 512

#: Classification block ceiling — caps per-sync numpy work so taint-dense
#: regions never pay more than O(BLOCK_MAX) per relevant event.
BLOCK_MAX = 65536

#: Events handed to the scalar loop after each relevant hit before the
#: kernel re-classifies.  Amortises classification cost in dense regions.
SCALAR_RUN = 64

#: Density bail-out: once this many events have gone through the scalar
#: loop, the kernel compares vector-handled (skipped + dense-committed)
#: vs scalar-handled counts and, if fewer than half were handled
#: vectorised, hands a *bounded* chunk (:data:`REPROBE_EVERY`) to the
#: scalar loop and re-probes — a dense-prefix/sparse-tail trace regains
#: the fast path once the tail starts, instead of staying scalar forever.
BAILOUT_AFTER = 512

#: Events handed to the scalar loop per density bail-out before the
#: kernel re-probes with a fresh classification window.
REPROBE_EVERY = 4096

#: Ceiling on one dense-executor span (a same-PID run executed with
#: vectorised window evolution and per-run range-set commits).
DENSE_SPAN = 4096

#: Runs shorter than this skip the dense executor — numpy setup on a
#: handful of events costs more than the scalar loop.
DENSE_MIN = 32

#: Content mutations tolerated per dense span before the rest of the
#: span is handed to the scalar loop; every mutation forces a mask
#: patch plus a window re-simulation, so mutation-heavy spans are
#: cheaper scalar.
DENSE_MAX_MUTATIONS = 24

#: Consecutive mutation-budget bail-outs tolerated before the dense path
#: stops re-probing: churn (taint/untaint churn, or stores that OR new
#: colour bits into covered ranges) makes every span mutation-heavy, so
#: paying full-span classification just to hand off is a pure loss.
#: After the streak trips, whole :data:`REPROBE_EVERY` chunks go straight
#: to the scalar loop, then the dense path probes again.
DENSE_CHURN_STREAK = 2

#: One-shot flag for the numpy-absence fallback warning.
_numpy_fallback_warned = False


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


def _coverage(state, coloured: bool, query_start, query_end):
    """``(hit, contained, omask, cover_mask)`` for query ranges against
    one PID's taint state.

    ``hit`` is the paper's overlap test; ``contained`` is full coverage
    by a single stored range (a contained taint-add changes no coverage,
    so the dense executor can commit it as pure counter updates).  The
    mask arrays are built only for a coloured state: ``omask`` is the OR
    of every overlapped range's colour mask (the window mask a tainted
    load would carry), ``cover_mask`` the covering range's mask for
    contained queries (the superset test for absorbed taint-adds).  A
    single-bit state gets ``None`` for both.  Queries overlapping a
    single stored range — the overwhelming case, since coloured
    intervals are coalesced per colour — resolve fully vectorised; the
    rare multi-range stragglers take a few passes by overlap depth.
    """
    starts, ends = state.as_arrays()
    nq = len(query_start)
    if not starts.size:
        hit = _np.zeros(nq, dtype=bool)
        if not coloured:
            return hit, hit.copy(), None, None
        zmask = _np.zeros(nq, dtype=_np.uint64)
        return hit, hit.copy(), zmask, zmask.copy()
    c_end = _np.searchsorted(starts, query_end, side="right") - 1
    hit = (c_end >= 0) & (ends[_np.maximum(c_end, 0)] >= query_start)
    c_start = _np.searchsorted(starts, query_start, side="right") - 1
    contained = (c_start >= 0) & (ends[_np.maximum(c_start, 0)] >= query_end)
    if not coloured:
        return hit, contained, None, None
    rmasks = state.mask_array()
    first = _np.searchsorted(ends, query_start, side="left")
    last = _np.maximum(c_end, 0)
    omask = _np.where(
        hit, rmasks[_np.minimum(first, len(starts) - 1)], _np.uint64(0)
    )
    multi = hit & (last > first)
    if _np.any(multi):
        # OR the remaining overlapped ranges' masks in, sweeping by
        # overlap *depth*: iteration d ORs the (first+d)-th overlapped
        # range of every query still deep enough.  Depth is bounded by
        # the fattest query (stores are a few bytes wide), so this runs
        # a handful of vector passes instead of a python loop per query.
        depth = last - first
        top = int(depth[multi].max())
        limit = len(starts) - 1
        for d in range(1, top + 1):
            live = multi & (depth >= d)
            if not _np.any(live):
                break
            idx = _np.minimum(first + d, limit)
            omask[live] |= rmasks[idx[live]]
    cover_mask = _np.where(
        contained, rmasks[_np.maximum(c_start, 0)], _np.uint64(0)
    )
    return hit, contained, omask, cover_mask


def _add_steps(state, pairs: List[Tuple[int, int]], mask: int):
    """Taint each ``(start, end)`` pair with ``mask``, in order, through
    the state's own ``add`` — the dense executor's one taint commit.

    Returns ``(extent, steps)``.  ``steps`` holds ``(total_size,
    range_count)`` after every add: the values the scalar loop's
    per-mutation high-water bookkeeping sees.  ``range_count`` is not
    monotone under adds (a merge shrinks it; a coloured add spanning k
    gapped differently-masked ranges raises it by k+1), so only the
    per-step values fold exactly.  ``extent`` is the smallest span
    covering every stored range the run touched: outside it, coverage
    and masks are unchanged, so callers patch cached masks from it.
    """
    add = state.add
    steps = []
    for start, end in pairs:
        add(AddressRange(start, end), mask)
        steps.append((state.total_size, state.range_count))
    # Both interval sets keep sorted, disjoint ``_starts``/``_ends``.
    starts, ends = state._starts, state._ends
    first = bisect.bisect_left(ends, min(start for start, _ in pairs))
    last = bisect.bisect_right(starts, max(end for _, end in pairs)) - 1
    return (starts[first], ends[last]), steps


def _dense_span(
    tracker: "PIFTTracker",
    columns: "EventColumns",
    arrays: "ColumnArrays",
    lo: int,
    limit: int,
):
    """Vectorised *execution* of one same-PID run starting at ``lo``.

    The dense-regime engine: instead of handing relevant events to the
    scalar loop one short run at a time, simulate Algorithm 1's window
    evolution for the whole run under fixed coverage masks, bulk-commit
    everything up to the first *content* mutation (a taint that changes
    coverage or colours, or an effective untaint), execute the mutation
    run step by step, patch the masks from the mutated extent, and
    continue.  Returns ``(consumed, scalar_events)`` so the caller's
    density accounting can tell vector-handled events from scalar ones.

    Soundness (checked bit-for-bit by the parity suites): taint decisions
    depend only on window evolution — hit-load positions, the two window
    edges, and the propagation cap — never on taint *content* or colour,
    so they stay valid across content mutations as long as the masks
    feeding the hit-load positions do; the executor therefore never
    advances past a content mutation without patching the masks, and
    every quantity it bulk-commits (counters, telescoped high-water
    marks, window state at the cut) equals the scalar loop's value by
    construction.  A contained taint-add whose covering range already
    holds every bit of the window mask mutates nothing, so it commits
    as a counter update.  Colours ride along only for a
    :class:`~repro.core.colours.ColourRangeSet`: the window mask of each
    store is its governing hit load's overlap mask.
    """
    if tracker._dense_churn_streak >= DENSE_CHURN_STREAK:
        # Churn hysteresis: recent spans all tripped the mutation budget,
        # so classification would be thrown away again — scalar a whole
        # chunk, then probe dense once more.
        tracker._dense_churn_streak = 0
        consumed = min(REPROBE_EVERY, limit - lo)
        tracker.observe_columns_scalar(columns, lo, lo + consumed)
        return consumed, consumed
    run_hi = arrays.same_pid_run(lo, min(lo + DENSE_SPAN, limit))
    n = run_hi - lo
    if n < DENSE_MIN:
        consumed = min(SCALAR_RUN, limit - lo)
        tracker.observe_columns_scalar(columns, lo, lo + consumed)
        return consumed, consumed
    pid = int(arrays.pids[lo])
    if pid not in tracker._windows:
        tracker.state(pid)
    state = tracker._states[pid]
    window = tracker._windows[pid]
    # Mask arrays cost real time on taint-dense spans, so single-bit
    # states never build them.
    coloured = isinstance(state, ColourRangeSet)
    config = tracker.config
    ni = config.window_size
    nt = config.max_propagations
    untainting = config.untainting
    stats = tracker.stats

    K = arrays.indices[lo:run_hi]
    S = arrays.starts[lo:run_hi]
    E = arrays.ends[lo:run_hi]
    L = arrays.is_load[lo:run_hi]
    stores_m = ~L

    hit, contained, omask, cover_mask = _coverage(state, coloured, S, E)

    last = window.last_tainted_load
    props = window.propagations
    wmask = window.colour_mask
    p = 0
    mutations = 0
    while p < n:
        # -- simulate window evolution under the current masks ----------
        hl = _np.flatnonzero(L[p:] & hit[p:]) + p
        seg = _np.searchsorted(hl, _np.arange(p, n), side="right") - 1
        in_seg = seg >= 0
        if hl.size:
            governing = hl[_np.maximum(seg, 0)]
            gov = K[governing]
        else:
            gov = _np.zeros(n - p, dtype=_np.int64)
        kk = K[p:]
        if last is not None:
            gov = _np.where(in_seg, gov, last)
            windowed = _np.ones(n - p, dtype=bool)
        else:
            windowed = in_seg
        in_win = stores_m[p:] & windowed & (kk >= gov) & (kk <= gov + ni)
        ranks = _np.cumsum(in_win)
        if hl.size:
            base = _np.where(in_seg, ranks[governing - p], 0)
        else:
            base = 0
        cap = _np.where(in_seg, nt, nt - props)
        taint = in_win & (ranks - 1 - base < cap)
        if untainting:
            untaint_cand = stores_m[p:] & ~taint & hit[p:]
        else:
            untaint_cand = _np.zeros(n - p, dtype=bool)
        absorbed = contained[p:]
        if coloured:
            # A contained add is content-free only when the covering
            # range already holds every bit of the governing window mask.
            if hl.size:
                gmasks = omask[governing]
            else:
                gmasks = _np.zeros(n - p, dtype=_np.uint64)
            if last is not None:
                gmasks = _np.where(in_seg, gmasks, _np.uint64(wmask))
            absorbed = absorbed & ((cover_mask[p:] & gmasks) == gmasks)
        content_mut = (taint & ~absorbed) | untaint_cand
        cuts = _np.flatnonzero(content_mut)
        cut = (int(cuts[0]) + p) if cuts.size else n

        # -- bulk-commit the mutation-free prefix [p, cut) --------------
        if cut > p:
            sl = slice(p, cut)
            load_count = int(_np.count_nonzero(L[sl]))
            stats.loads_observed += load_count
            stats.stores_observed += (cut - p) - load_count
            stats.tainted_loads += int(_np.count_nonzero(L[sl] & hit[sl]))
            taint_count = int(_np.count_nonzero(taint[: cut - p]))
            stats.taint_operations += taint_count
            top = int(K[sl].max())
            if top >= window.instructions_retired:
                stats.instructions_observed += (
                    top + 1 - window.instructions_retired
                )
                window.instructions_retired = top + 1
            hl_before = hl[hl < cut]
            if hl_before.size:
                last_load = int(hl_before[-1])
                last = int(K[last_load])
                props = int(
                    _np.count_nonzero(taint[last_load + 1 - p : cut - p])
                )
                wmask = int(omask[last_load]) if coloured else True
            elif last is not None:
                props += taint_count
        if cut >= n:
            break

        # -- a content mutation: execute its run step by step ----------
        mutations += 1
        if mutations > DENSE_MAX_MUTATIONS:
            # Mutation-heavy span — each mutation costs a mask patch and
            # a re-simulation, so the scalar loop is cheaper from here.
            window.last_tainted_load = last
            window.propagations = props
            window.colour_mask = wmask
            tracker._dense_churn_streak += 1
            tracker.observe_columns_scalar(columns, lo + cut, run_hi)
            return n, n - cut
        other_size = tracker.tainted_bytes - state.total_size
        other_count = tracker.range_count - state.range_count
        if taint[cut - p]:
            # Maximal run of consecutive taint-decision stores.  It holds
            # no loads, so the live window — whose mask the prefix commit
            # just carried into ``wmask`` — governs all of it.
            stop_rel = _np.flatnonzero(~taint[cut - p :])
            j = cut + (int(stop_rel[0]) if stop_rel.size else n - cut)
            extent, steps = _add_steps(
                state, list(zip(S[cut:j].tolist(), E[cut:j].tolist())), wmask
            )
            stats.taint_operations += j - cut
            props += j - cut
        else:
            # Maximal run of consecutive non-taint stores: untaint
            # candidates resolve sequentially inside remove_many (an
            # earlier untaint can void a later candidate), reported
            # per-step because a split *raises* the range count.
            stop_rel = _np.flatnonzero(L[cut:] | taint[cut - p :])
            j = cut + (int(stop_rel[0]) if stop_rel.size else n - cut)
            cand = _np.flatnonzero(hit[cut:j]) + cut
            removed = state.remove_many(
                [(int(S[i]), int(E[i])) for i in cand]
            )
            effective = [i for i, (ok, _, _) in zip(cand, removed) if ok]
            steps = [(total, count) for ok, total, count in removed if ok]
            stats.untaint_operations += len(steps)
            if effective:
                extent = (
                    int(min(S[i] for i in effective)),
                    int(max(E[i] for i in effective)),
                )
            else:
                extent = None
        # Fold the per-step totals into the tracker-wide high-water
        # marks, as the scalar loop's per-mutation bookkeeping does.
        max_bytes = stats.max_tainted_bytes
        max_ranges = stats.max_range_count
        for total, count in steps:
            if other_size + total > max_bytes:
                max_bytes = other_size + total
            if other_count + count > max_ranges:
                max_ranges = other_count + count
        stats.max_tainted_bytes = max_bytes
        stats.max_range_count = max_ranges
        stats.stores_observed += j - cut
        top = int(K[cut:j].max())
        if top >= window.instructions_retired:
            stats.instructions_observed += top + 1 - window.instructions_retired
            window.instructions_retired = top + 1

        # -- patch the masks: only events overlapping the mutated extent
        #    can have changed coverage or colours ----------------------------
        if extent is not None and j < n:
            extent_lo, extent_hi = extent
            suspects = _np.flatnonzero(
                (S[j:] <= extent_hi) & (E[j:] >= extent_lo)
            ) + j
            if suspects.size:
                new_hit, new_contained, new_omask, new_cover = _coverage(
                    state, coloured, S[suspects], E[suspects]
                )
                hit[suspects] = new_hit
                contained[suspects] = new_contained
                if coloured:
                    omask[suspects] = new_omask
                    cover_mask[suspects] = new_cover
        p = j
    window.last_tainted_load = last
    window.propagations = props
    window.colour_mask = wmask
    tracker._dense_churn_streak = 0
    return n, 0


def observe_columns(
    tracker: "PIFTTracker", columns: "EventColumns", start: int, stop: int
) -> None:
    """Algorithm 1 over ``columns[start:stop)`` with vectorised skipping
    *and* vectorised dense-regime execution.

    Alternates between bulk-skipping classified-irrelevant prefix runs
    and the dense executor (:func:`_dense_span`) on relevant events.  The
    block size doubles (up to :data:`BLOCK_MAX`) while blocks keep coming
    back fully irrelevant and resets after every relevant hit.  Slices
    where the scalar loop ends up doing most of the work (vector-handled
    share below one half after :data:`BAILOUT_AFTER` scalar events) hand
    a bounded :data:`REPROBE_EVERY` chunk to the scalar loop, then
    re-probe — so a dense-prefix/sparse-tail trace regains the fast path.

    Timeline recording forces per-mutation :class:`TimelinePoint`
    appends, which the bulk commits deliberately elide; with
    ``record_timeline`` on, relevant events take the exact scalar loop
    instead (classification/skipping is unaffected — skipped events never
    mutate).  Without numpy the whole call degrades to
    :meth:`~repro.core.tracker.PIFTTracker.observe_columns_scalar` with a
    one-shot warning (equivalent to ``--no-vectorized``).
    """
    if _np is None:
        global _numpy_fallback_warned
        if not _numpy_fallback_warned:
            _numpy_fallback_warned = True
            warnings.warn(
                "numpy is unavailable; the vectorised kernel is falling "
                "back to the scalar loop (equivalent to --no-vectorized)",
                RuntimeWarning,
                stacklevel=2,
            )
        tracker.observe_columns_scalar(columns, start, stop)
        return
    arrays = columns.arrays()
    scalar = tracker.observe_columns_scalar
    dense_ok = not tracker._record_timeline
    position = start
    block = BLOCK_MIN
    vector_handled = 0
    scalar_handled = 0
    while position < stop:
        block_end = min(position + block, stop)
        first = _first_relevant(tracker, arrays, position, block_end)
        if first > position:
            _skip_run(tracker, arrays, position, first)
            vector_handled += first - position
            position = first
        if position >= block_end:
            # Whole block irrelevant: widen the next classification.
            block = min(block * 2, BLOCK_MAX)
            continue
        # A relevant event: execute a span through the dense engine (or
        # the exact scalar loop when timeline recording demands
        # per-mutation samples), then re-sync against the updated state.
        if dense_ok:
            consumed, dense_scalar = _dense_span(
                tracker, columns, arrays, position, stop
            )
        else:
            consumed = min(SCALAR_RUN, stop - position)
            scalar(columns, position, position + consumed)
            dense_scalar = consumed
        position += consumed
        scalar_handled += dense_scalar
        vector_handled += consumed - dense_scalar
        block = BLOCK_MIN
        if scalar_handled >= BAILOUT_AFTER:
            if vector_handled < scalar_handled:
                # Density bail-out, bounded: scalar a chunk, re-probe.
                chunk_end = min(position + REPROBE_EVERY, stop)
                scalar(columns, position, chunk_end)
                position = chunk_end
            vector_handled = 0
            scalar_handled = 0
