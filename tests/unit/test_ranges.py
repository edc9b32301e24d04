"""Unit tests for AddressRange and RangeSet."""

import pytest

from repro.core.ranges import AddressRange, RangeSet


class TestAddressRange:
    def test_single_byte_range(self):
        r = AddressRange(0x10, 0x10)
        assert r.size == 1
        assert r.contains_address(0x10)

    def test_size_is_inclusive(self):
        assert AddressRange(0, 3).size == 4

    def test_from_base_size(self):
        r = AddressRange.from_base_size(0x100, 16)
        assert r == AddressRange(0x100, 0x10F)

    def test_from_base_size_rejects_zero(self):
        with pytest.raises(ValueError):
            AddressRange.from_base_size(0x100, 0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            AddressRange(5, 4)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            AddressRange(-1, 4)

    def test_overlap_is_papers_condition(self):
        # max(s_i, s_L) <= min(e_i, e_L)
        a = AddressRange(10, 20)
        assert a.overlaps(AddressRange(20, 30))
        assert a.overlaps(AddressRange(0, 10))
        assert a.overlaps(AddressRange(12, 15))
        assert a.overlaps(AddressRange(0, 100))
        assert not a.overlaps(AddressRange(21, 30))
        assert not a.overlaps(AddressRange(0, 9))

    def test_contains(self):
        outer = AddressRange(0, 100)
        assert outer.contains(AddressRange(0, 100))
        assert outer.contains(AddressRange(10, 20))
        assert not outer.contains(AddressRange(50, 101))

    def test_intersection(self):
        a = AddressRange(10, 20)
        assert a.intersection(AddressRange(15, 30)) == AddressRange(15, 20)
        assert a.intersection(AddressRange(21, 30)) is None

    def test_union_of_adjacent(self):
        assert AddressRange(0, 4).union(AddressRange(5, 9)) == AddressRange(0, 9)

    def test_union_of_disjoint_raises(self):
        with pytest.raises(ValueError):
            AddressRange(0, 4).union(AddressRange(6, 9))

    def test_subtract_middle_splits(self):
        pieces = AddressRange(0, 10).subtract(AddressRange(3, 6))
        assert pieces == (AddressRange(0, 2), AddressRange(7, 10))

    def test_subtract_disjoint_is_identity(self):
        assert AddressRange(0, 10).subtract(AddressRange(20, 30)) == (
            AddressRange(0, 10),
        )

    def test_subtract_covering_removes_all(self):
        assert AddressRange(5, 6).subtract(AddressRange(0, 10)) == ()

    def test_subtract_prefix(self):
        assert AddressRange(0, 10).subtract(AddressRange(0, 4)) == (
            AddressRange(5, 10),
        )

    def test_aligned_expand_to_word(self):
        # 4-byte granularity: [5, 6] covers the block [4, 7].
        assert AddressRange(5, 6).aligned_expand(2) == AddressRange(4, 7)

    def test_aligned_expand_zero_bits_is_identity(self):
        assert AddressRange(5, 6).aligned_expand(0) == AddressRange(5, 6)

    def test_ordering_and_hash(self):
        assert AddressRange(0, 5) < AddressRange(1, 2)
        assert len({AddressRange(0, 5), AddressRange(0, 5)}) == 1


class TestRangeSet:
    def test_empty(self):
        s = RangeSet()
        assert len(s) == 0
        assert not s
        assert s.total_size == 0
        assert not s.overlaps(AddressRange(0, 100))

    def test_add_and_query(self):
        s = RangeSet()
        s.add(AddressRange(10, 20))
        assert s.overlaps(AddressRange(15, 15))
        assert s.overlaps(AddressRange(0, 10))
        assert not s.overlaps(AddressRange(21, 30))
        assert s.total_size == 11
        assert s.range_count == 1

    def test_add_merges_overlapping(self):
        s = RangeSet([AddressRange(10, 20), AddressRange(15, 30)])
        assert list(s) == [AddressRange(10, 30)]

    def test_add_merges_adjacent(self):
        s = RangeSet([AddressRange(10, 20), AddressRange(21, 30)])
        assert list(s) == [AddressRange(10, 30)]

    def test_add_keeps_disjoint_separate(self):
        s = RangeSet([AddressRange(10, 20), AddressRange(22, 30)])
        assert s.range_count == 2

    def test_add_bridging_range_merges_many(self):
        s = RangeSet([AddressRange(0, 4), AddressRange(10, 14), AddressRange(20, 24)])
        s.add(AddressRange(3, 21))
        assert list(s) == [AddressRange(0, 24)]

    def test_remove_splits(self):
        s = RangeSet([AddressRange(0, 10)])
        s.remove(AddressRange(3, 6))
        assert list(s) == [AddressRange(0, 2), AddressRange(7, 10)]

    def test_remove_entire(self):
        s = RangeSet([AddressRange(0, 10)])
        s.remove(AddressRange(0, 10))
        assert not s

    def test_remove_spanning_many(self):
        s = RangeSet([AddressRange(0, 4), AddressRange(10, 14), AddressRange(20, 24)])
        s.remove(AddressRange(2, 22))
        assert list(s) == [AddressRange(0, 1), AddressRange(23, 24)]

    def test_remove_disjoint_is_noop(self):
        s = RangeSet([AddressRange(0, 4)])
        s.remove(AddressRange(10, 20))
        assert list(s) == [AddressRange(0, 4)]

    def test_remove_from_empty(self):
        s = RangeSet()
        s.remove(AddressRange(0, 10))
        assert not s

    def test_contains_full_coverage_only(self):
        s = RangeSet([AddressRange(0, 10)])
        assert AddressRange(0, 10) in s
        assert AddressRange(3, 6) in s
        assert AddressRange(5, 15) not in s

    def test_overlapping_returns_sorted_hits(self):
        s = RangeSet([AddressRange(0, 4), AddressRange(10, 14), AddressRange(20, 24)])
        assert s.overlapping(AddressRange(3, 12)) == [
            AddressRange(0, 4),
            AddressRange(10, 14),
        ]

    def test_covers_address(self):
        s = RangeSet([AddressRange(5, 9)])
        assert s.covers_address(5)
        assert s.covers_address(9)
        assert not s.covers_address(4)
        assert not s.covers_address(10)

    def test_copy_is_independent(self):
        s = RangeSet([AddressRange(0, 10)])
        clone = s.copy()
        clone.add(AddressRange(20, 30))
        assert s.range_count == 1
        assert clone.range_count == 2
        assert s == RangeSet([AddressRange(0, 10)])

    def test_clear(self):
        s = RangeSet([AddressRange(0, 10)])
        s.clear()
        assert not s

    def test_iteration_is_sorted(self):
        s = RangeSet([AddressRange(20, 24), AddressRange(0, 4), AddressRange(10, 14)])
        assert list(s) == [
            AddressRange(0, 4),
            AddressRange(10, 14),
            AddressRange(20, 24),
        ]

    def test_add_at_address_zero(self):
        s = RangeSet()
        s.add(AddressRange(0, 0))
        s.add(AddressRange(1, 1))
        assert list(s) == [AddressRange(0, 1)]

    def test_equality(self):
        assert RangeSet([AddressRange(0, 5)]) == RangeSet(
            [AddressRange(0, 2), AddressRange(3, 5)]
        )
        assert RangeSet([AddressRange(0, 5)]) != RangeSet([AddressRange(0, 6)])
