"""Property-based tests: RangeSet against reference per-byte models.

The plain model is a set of tainted bytes.  The coloured model is a
``{byte: mask}`` dict: an add ORs its mask into every byte, an untaint
drops every colour of its bytes, and the set's rows must be exactly the
model's maximal runs of equal-mask bytes.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ranges import AddressRange, RangeSet

ADDRESS_SPACE = 256  # small space so collisions are common

ranges = st.builds(
    lambda start, size: AddressRange(start, min(start + size, ADDRESS_SPACE)),
    st.integers(0, ADDRESS_SPACE),
    st.integers(0, 24),
)

operations = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), ranges), max_size=60
)


def apply_to_model(model: set, op: str, item: AddressRange) -> None:
    bytes_ = set(range(item.start, item.end + 1))
    if op == "add":
        model |= bytes_
    else:
        model -= bytes_


@given(operations)
@settings(max_examples=200)
def test_rangeset_equals_byte_set_model(ops):
    """After any add/remove sequence, RangeSet covers exactly the bytes the
    naive set-of-integers model covers."""
    range_set = RangeSet()
    model: set = set()
    for op, item in ops:
        if op == "add":
            range_set.add(item)
        else:
            range_set.remove(item)
        apply_to_model(model, op, item)
    assert range_set.total_size == len(model)
    for probe in range(0, ADDRESS_SPACE + 25, 7):
        assert range_set.covers_address(probe) == (probe in model)


@given(operations, ranges)
@settings(max_examples=200)
def test_overlap_query_matches_model(ops, query):
    range_set = RangeSet()
    model: set = set()
    for op, item in ops:
        if op == "add":
            range_set.add(item)
        else:
            range_set.remove(item)
        apply_to_model(model, op, item)
    expected = any(
        probe in model for probe in range(query.start, query.end + 1)
    )
    assert range_set.overlaps(query) == expected


@given(st.lists(ranges, max_size=40))
@settings(max_examples=200)
def test_ranges_stay_sorted_disjoint_nonadjacent(items):
    """Structural invariant: stored ranges are sorted, disjoint, and
    non-adjacent (fully coalesced)."""
    range_set = RangeSet()
    for item in items:
        range_set.add(item)
    stored = list(range_set)
    for left, right in zip(stored, stored[1:]):
        assert left.end + 1 < right.start


@given(st.lists(ranges, min_size=1, max_size=40))
@settings(max_examples=200)
def test_add_is_idempotent_and_order_independent(items):
    forward = RangeSet()
    backward = RangeSet()
    for item in items:
        forward.add(item)
    for item in reversed(items):
        backward.add(item)
        backward.add(item)  # idempotence
    assert forward == backward


@given(st.lists(ranges, max_size=30), ranges)
@settings(max_examples=200)
def test_remove_then_query_is_always_false(items, victim):
    range_set = RangeSet()
    for item in items:
        range_set.add(item)
    range_set.remove(victim)
    assert not range_set.overlaps(victim)


@given(st.lists(ranges, max_size=30))
@settings(max_examples=100)
def test_total_size_bounded_by_count_times_max(items):
    range_set = RangeSet()
    for item in items:
        range_set.add(item)
    assert range_set.range_count <= len(items) or not items
    assert range_set.total_size <= ADDRESS_SPACE + 25


# -- colour masks: RangeSet against a {byte: mask} model -------------------


#: Short ranges in the first 64 bytes, half of them on a 4-byte grid: an
#: add then often ends exactly where a stored range of another colour
#: begins.
masked_ranges = st.one_of(
    st.builds(
        lambda start, size: AddressRange(4 * start, 4 * (start + size) - 1),
        st.integers(0, 7),
        st.integers(1, 2),
    ),
    st.builds(
        lambda start, size: AddressRange(start, start + size),
        st.integers(0, 31),
        st.integers(0, 5),
    ),
)


def masked_operations(masks):
    """Random add / remove / drop_nth_range sequences, adds drawing
    their mask from ``masks``."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), masked_ranges, masks),
            st.tuples(st.just("remove"), masked_ranges),
            st.tuples(st.just("drop"), st.integers(0, 40)),
        ),
        min_size=10,
        max_size=60,
    )


def model_runs(model: dict) -> list:
    """The model's maximal runs of consecutive equal-mask bytes, as
    ``(start, end, mask)`` rows in address order."""
    runs: list = []
    for byte in sorted(model):
        mask = model[byte]
        if runs and runs[-1][1] + 1 == byte and runs[-1][2] == mask:
            runs[-1][1] = byte
        else:
            runs.append([byte, byte, mask])
    return [tuple(run) for run in runs]


def apply_masked(range_set: RangeSet, model: dict, operation) -> None:
    op = operation[0]
    if op == "add":
        _, item, mask = operation
        range_set.add(item, mask)
        for byte in range(item.start, item.end + 1):
            model[byte] = model.get(byte, 0) | mask
    elif op == "remove":
        item = operation[1]
        range_set.remove(item)
        for byte in range(item.start, item.end + 1):
            model.pop(byte, None)
    else:
        runs = model_runs(model)
        victim = range_set.drop_nth_range(operation[1])
        if not runs:
            assert victim is None
            return
        start, end, _ = runs[operation[1] % len(runs)]
        assert victim == AddressRange(start, end)
        for byte in range(start, end + 1):
            del model[byte]


def assert_matches_model(range_set: RangeSet, model: dict) -> None:
    runs = model_runs(model)
    assert list(range_set.items()) == runs
    assert range_set.total_size == len(model)
    assert range_set.range_count == len(runs)
    for start in range(0, 72, 3):
        for end in (start, start + 5):
            covered = [model[b] for b in range(start, end + 1) if b in model]
            mask = 0
            for byte_mask in covered:
                mask |= byte_mask
            assert range_set.overlaps_span(start, end) == bool(covered)
            assert range_set.mask_overlapping_span(start, end) == mask
            assert (AddressRange(start, end) in range_set) == (
                len(covered) == end - start + 1
            )
    clone = RangeSet()
    clone.restore(json.loads(json.dumps(range_set.snapshot())))
    assert clone == range_set
    assert clone.total_size == range_set.total_size


@given(masked_operations(st.sampled_from([1, 2, 4, 8])))
@settings(max_examples=300, deadline=None)
# A gap insert between neighbours of two other colours.
@example([("add", AddressRange(0, 3), 1), ("add", AddressRange(8, 11), 2),
          ("add", AddressRange(4, 7), 4)])
# An overlapping add that ends next to a neighbour of another colour.
@example([("add", AddressRange(0, 3), 1), ("add", AddressRange(8, 11), 2),
          ("add", AddressRange(2, 7), 1)])
# An add inside one range whose mask lacks one of the add's bits.
@example([("add", AddressRange(0, 15), 1), ("add", AddressRange(4, 7), 2)])
def test_coloured_rangeset_equals_byte_mask_model(ops):
    """Rows, sizes, overlap and mask queries, and a snapshot round trip
    all match the per-byte mask model after every operation."""
    range_set = RangeSet()
    model: dict = {}
    for operation in ops:
        apply_masked(range_set, model, operation)
        assert_matches_model(range_set, model)


@given(masked_operations(st.just(1)))
@settings(max_examples=200, deadline=None)
def test_single_colour_rangeset_equals_byte_mask_model(ops):
    """With mask 1 only, the rows are the coalesced ranges of the plain
    byte set."""
    range_set = RangeSet()
    model: dict = {}
    for operation in ops:
        apply_masked(range_set, model, operation)
        assert_matches_model(range_set, model)
        assert set(model.values()) <= {1}
