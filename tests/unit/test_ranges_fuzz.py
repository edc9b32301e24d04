"""Seeded fuzz test: RangeSet against a naive byte-set model.

The tracker's correctness rests entirely on ``RangeSet`` keeping its
sorted/coalesced/disjoint invariants under arbitrary interleavings of
add, remove, drop, and query.  This test drives ~10k random operations
from a fixed seed and cross-checks every observable against a model that
stores the tainted bytes one by one — slow but obviously correct.
"""

import random

from repro.core.ranges import AddressRange, RangeSet

ADDRESS_SPACE = 2048  # small enough that collisions/coalescing are constant
MAX_RANGE = 48
OPERATIONS = 10_000
SEED = 20160402  # the paper's conference date; any fixed seed works


def random_range(rng: random.Random) -> AddressRange:
    start = rng.randrange(ADDRESS_SPACE)
    return AddressRange(start, start + rng.randrange(MAX_RANGE))


def check_invariants(rangeset: RangeSet, model: set) -> None:
    ranges = list(rangeset)
    # Sorted, disjoint, and coalesced: a gap of at least one byte
    # between consecutive ranges, starts strictly increasing.
    for earlier, later in zip(ranges, ranges[1:]):
        assert earlier.end + 1 < later.start, (
            f"uncoalesced or overlapping neighbours {earlier} and {later}"
        )
    # Aggregates match the byte-exact model.
    assert rangeset.total_size == len(model)
    covered = set()
    for item in ranges:
        covered.update(range(item.start, item.end + 1))
    assert covered == model
    # range_count equals the number of maximal runs in the model.
    runs = 0
    previous = None
    for address in sorted(model):
        if previous is None or address != previous + 1:
            runs += 1
        previous = address
    assert rangeset.range_count == runs


def test_rangeset_matches_byte_model_under_fuzz():
    rng = random.Random(SEED)
    rangeset = RangeSet()
    model: set = set()
    for step in range(OPERATIONS):
        op = rng.random()
        item = random_range(rng)
        span = set(range(item.start, item.end + 1))
        if op < 0.45:
            rangeset.add(item)
            model |= span
        elif op < 0.80:
            rangeset.remove(item)
            model -= span
        elif op < 0.90:
            victim = rangeset.drop_nth_range(rng.randrange(1 << 30))
            if victim is None:
                assert not model
            else:
                model -= set(range(victim.start, victim.end + 1))
        else:
            # Pure queries: must agree with the model and mutate nothing.
            assert rangeset.overlaps(item) == bool(span & model)
            address = rng.randrange(ADDRESS_SPACE + MAX_RANGE)
            assert rangeset.covers_address(address) == (address in model)
            for hit in rangeset.overlapping(item):
                assert set(range(hit.start, hit.end + 1)) & span
        # Invariants are cheap enough to check at a sampled cadence, and
        # exhaustively near the start where regressions usually surface.
        if step < 200 or step % 97 == 0:
            check_invariants(rangeset, model)
    check_invariants(rangeset, model)


def test_rangeset_snapshot_restore_under_fuzz():
    rng = random.Random(SEED + 1)
    rangeset = RangeSet()
    for _ in range(500):
        if rng.random() < 0.7:
            rangeset.add(random_range(rng))
        else:
            rangeset.remove(random_range(rng))
    clone = RangeSet()
    clone.restore(rangeset.snapshot())
    assert clone == rangeset
    assert clone.total_size == rangeset.total_size
    # Restoring does not alias the source's internals.
    clone.add(AddressRange(0, ADDRESS_SPACE + MAX_RANGE + 10))
    assert clone != rangeset


# -- batch primitives vs the scalar oracle (hypothesis) ----------------------
#
# The dense executor commits taint runs through ``_add_steps`` (one add per
# store, reporting per-step totals and the touched extent) and untaint runs
# through ``remove_many``; the parity guarantee of the vectorised kernel
# rests on both reporting exactly what the scalar add/remove loop the exact
# tracker runs would see.  These properties drive them against that loop on
# the same interleavings, including remove-induced splits (range_count can
# rise on a remove) and batches that straddle the top of the address space.

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colours import ColourRangeSet
from repro.core.vectorized import _add_steps

HUGE = (1 << 62)  # overflow edge: far beyond any trace address

pair = st.builds(
    lambda start, size: (start, start + size),
    st.one_of(
        st.integers(0, ADDRESS_SPACE),
        st.integers(HUGE, HUGE + ADDRESS_SPACE),
    ),
    st.integers(0, MAX_RANGE),
)

batches = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), st.lists(pair, max_size=8)),
    max_size=12,
)


@given(batches)
@settings(max_examples=150, deadline=None)
def test_remove_many_matches_interleaved_scalar_oracle(ops):
    batched = RangeSet()
    oracle = RangeSet()
    for op, items in ops:
        if op == "add":
            for start, end in items:
                batched.add(AddressRange(start, end))
                oracle.add(AddressRange(start, end))
            continue
        steps = batched.remove_many(items)
        assert len(steps) == len(items)
        for (start, end), step in zip(items, steps):
            before_version = oracle._version
            oracle.remove(AddressRange(start, end))
            effective, total_after, count_after = step
            assert effective == (oracle._version != before_version)
            assert total_after == oracle.total_size
            assert count_after == oracle.range_count
        assert list(batched) == list(oracle)
        assert batched.total_size == oracle.total_size
        assert batched.range_count == oracle.range_count


def entries(state):
    """Stored ranges with their masks (a plain set has none)."""
    if isinstance(state, ColourRangeSet):
        return list(state.items())
    return [(start, end, None) for start, end in state.as_pairs()]


def outside(stored, lo, hi):
    """The byte-level content of ``stored`` outside ``[lo, hi]``: clipped
    pieces, with equal-mask neighbours coalesced (a coloured add may split
    a range whose remnant past the extent keeps its bytes and mask)."""
    pieces = []
    for start, end, mask in stored:
        for piece in ((start, min(end, lo - 1)), (max(start, hi + 1), end)):
            if piece[0] > piece[1]:
                continue
            if pieces and pieces[-1][2] == mask and pieces[-1][1] + 1 == piece[0]:
                pieces[-1] = (pieces[-1][0], piece[1], mask)
            else:
                pieces.append((piece[0], piece[1], mask))
    return pieces


@given(batches, st.booleans())
@settings(max_examples=150, deadline=None)
def test_add_steps_report_per_step_counts_and_cover_touched_ranges(
    ops, coloured
):
    """``_add_steps`` against sequential adds, plain and coloured: every
    per-step ``(total_size, range_count)`` matches, and the extent covers
    every stored range the run touched, so outside it coverage and colour
    masks are exactly as before (the executor patches cached masks only
    inside it)."""
    make = ColourRangeSet if coloured else RangeSet
    state, oracle = make(), make()
    for number, (op, items) in enumerate(ops):
        mask = 1 << (number % 3)
        if op == "remove" or not items:
            for start, end in items:
                state.remove(AddressRange(start, end))
                oracle.remove(AddressRange(start, end))
            continue
        before = entries(state)
        extent, steps = _add_steps(state, items, mask)
        assert len(steps) == len(items)
        for (start, end), (total, count) in zip(items, steps):
            oracle.add(AddressRange(start, end), mask)
            assert total == oracle.total_size
            assert count == oracle.range_count
        after = entries(state)
        assert after == entries(oracle)
        lo, hi = extent
        for start, end, _ in after:
            if any(start <= e and s <= end for s, e in items):
                assert lo <= start and end <= hi  # a touched range
        assert outside(before, lo, hi) == outside(after, lo, hi)


@given(st.lists(pair, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_remove_many_reports_split_growth(items):
    """A remove that lands strictly inside a stored range splits it —
    remove_many's per-step range counts must show the growth, because the
    tracker's max_range_count high-water is taken per mutation."""
    rangeset = RangeSet()
    hull_lo = min(s for s, _ in items)
    hull_hi = max(e for _, e in items) + 2
    rangeset.add(AddressRange(hull_lo, hull_hi))
    interior = [
        (s + 1, min(e, hull_hi - 1))
        for s, e in items
        if s + 1 <= min(e, hull_hi - 1)
    ]
    steps = rangeset.remove_many(interior)
    oracle = RangeSet()
    oracle.add(AddressRange(hull_lo, hull_hi))
    for (start, end), (effective, total_after, count_after) in zip(
        interior, steps
    ):
        before_version = oracle._version
        oracle.remove(AddressRange(start, end))
        # A repeated interior pair is a no-op the second time around;
        # what matters is that per-step reports track the oracle exactly.
        assert effective == (oracle._version != before_version)
        assert total_after == oracle.total_size
        assert count_after == oracle.range_count
    assert list(rangeset) == list(oracle)
