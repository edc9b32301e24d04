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
