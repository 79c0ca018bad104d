"""Unit tests for the integer bitset kernel."""

from __future__ import annotations

import pytest

from repro.core import bitset


class TestBitCount:
    def test_empty(self):
        assert bitset.bit_count(0) == 0

    def test_single(self):
        assert bitset.bit_count(1 << 17) == 1

    def test_full(self):
        assert bitset.bit_count(bitset.full_mask(64)) == 64

    def test_sparse(self):
        assert bitset.bit_count(0b1010101) == 4


class TestFullMask:
    def test_zero(self):
        assert bitset.full_mask(0) == 0

    def test_small(self):
        assert bitset.full_mask(3) == 0b111

    def test_large(self):
        assert bitset.full_mask(200) == (1 << 200) - 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bitset.full_mask(-1)


class TestMaskOf:
    def test_empty(self):
        assert bitset.mask_of([]) == 0

    def test_simple(self):
        assert bitset.mask_of([0, 2, 5]) == 0b100101

    def test_duplicates_idempotent(self):
        assert bitset.mask_of([3, 3, 3]) == 0b1000

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bitset.mask_of([1, -2])

    def test_accepts_any_iterable(self):
        assert bitset.mask_of(iter((1, 4))) == 0b10010


class TestSingleBit:
    def test_zero_index(self):
        assert bitset.single_bit(0) == 1

    def test_large_index(self):
        assert bitset.single_bit(100) == 1 << 100

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bitset.single_bit(-1)


class TestIterBitsAndIndices:
    def test_empty(self):
        assert list(bitset.iter_bits(0)) == []
        assert bitset.indices(0) == ()

    def test_ascending_order(self):
        assert list(bitset.iter_bits(0b101010)) == [1, 3, 5]

    def test_indices_round_trip(self):
        for mask in (0, 1, 0b1011, 1 << 63, (1 << 70) | 5):
            assert bitset.mask_of(bitset.indices(mask)) == mask


class TestSetAlgebra:
    def test_is_subset_reflexive(self):
        assert bitset.is_subset(0b1010, 0b1010)

    def test_is_subset_strict(self):
        assert bitset.is_subset(0b1000, 0b1010)
        assert not bitset.is_subset(0b1010, 0b1000)

    def test_empty_is_subset_of_all(self):
        assert bitset.is_subset(0, 0)
        assert bitset.is_subset(0, 0b111)

    def test_intersects(self):
        assert bitset.intersects(0b110, 0b011)
        assert not bitset.intersects(0b100, 0b011)
        assert not bitset.intersects(0, 0b111)

    def test_difference(self):
        assert bitset.difference(0b1110, 0b0110) == 0b1000
        assert bitset.difference(0b1, 0b1) == 0

    def test_lowest_bit_index(self):
        assert bitset.lowest_bit_index(0b1000) == 3
        assert bitset.lowest_bit_index(0b1001) == 0

    def test_lowest_bit_of_empty_raises(self):
        with pytest.raises(ValueError):
            bitset.lowest_bit_index(0)


class TestBoolConversion:
    def test_mask_from_bools(self):
        assert bitset.mask_from_bools([True, False, True]) == 0b101

    def test_mask_from_bools_empty(self):
        assert bitset.mask_from_bools([]) == 0

    def test_bools_from_mask(self):
        assert bitset.bools_from_mask(0b101, 3) == [True, False, True]

    def test_bools_from_mask_pads(self):
        assert bitset.bools_from_mask(0b1, 4) == [True, False, False, False]

    def test_bools_from_mask_overflow_raises(self):
        with pytest.raises(ValueError):
            bitset.bools_from_mask(0b1000, 3)

    def test_bools_from_mask_negative_n_raises_library_message(self):
        # Regression: a negative universe used to leak Python's internal
        # "negative shift count" instead of the library's validation.
        with pytest.raises(ValueError, match="universe size must be non-negative"):
            bitset.bools_from_mask(0b1, -1)

    def test_bools_from_mask_negative_n_zero_mask_raises(self):
        with pytest.raises(ValueError, match="universe size must be non-negative"):
            bitset.bools_from_mask(0, -5)

    def test_bools_from_mask_zero_universe(self):
        assert bitset.bools_from_mask(0, 0) == []

    def test_round_trip(self):
        flags = [True, True, False, True, False]
        mask = bitset.mask_from_bools(flags)
        assert bitset.bools_from_mask(mask, len(flags)) == flags

