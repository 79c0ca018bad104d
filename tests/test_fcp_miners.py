"""Unit and cross-equivalence tests for the two 2D FCP miners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitset import bit_count
from repro.fcp import (
    FCP_MINERS,
    BinaryMatrix,
    Pattern2D,
    carpenter_mine,
    check_pattern,
    dminer_mine,
    get_fcp_miner,
    oracle_mine_2d,
)
from repro.fcp.dminer import build_cutters_2d

ALL_MINERS = [dminer_mine, carpenter_mine]
MINER_IDS = ["dminer", "carpenter"]


@pytest.fixture
def example():
    """The {h2,h3} representative slice of the paper's Table 2."""
    return BinaryMatrix.from_array(
        [
            [1, 1, 1, 0, 0],
            [0, 1, 1, 0, 0],
            [1, 1, 1, 1, 0],
            [1, 1, 0, 0, 1],
        ]
    )


class TestPattern2D:
    def test_supports(self):
        p = Pattern2D(0b101, 0b11)
        assert p.row_support == 2
        assert p.column_support == 2

    def test_format(self):
        assert str(Pattern2D(0b101, 0b011)) == "r1r3 : c1c2, 2 : 2"

    def test_check_pattern_valid(self, example):
        assert check_pattern(example, Pattern2D(0b101, 0b111))

    def test_check_pattern_not_all_ones(self, example):
        assert not check_pattern(example, Pattern2D(0b1111, 0b111))

    def test_check_pattern_not_maximal(self, example):
        # rows {r1} with cols {c2,c3}: r2, r3 also contain them.
        assert not check_pattern(example, Pattern2D(0b0001, 0b110))

    def test_check_pattern_empty(self, example):
        assert not check_pattern(example, Pattern2D(0, 0b1))
        assert not check_pattern(example, Pattern2D(0b1, 0))


class TestPaperSliceFCPs:
    """Table 2 row 1: the 3 FCPs of the {h2,h3} slice at minR=minC=2."""

    EXPECTED = {"r1r3 : c1c2c3, 2 : 3", "r1r3r4 : c1c2, 3 : 2", "r1r2r3 : c2c3, 3 : 2"}

    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_each_miner(self, example, mine):
        patterns = {str(p) for p in mine(example, 2, 2)}
        assert patterns == self.EXPECTED


class TestDMinerInternals:
    def test_cutters_2d(self, example):
        cutters = build_cutters_2d(example)
        assert [(row, zeros) for row, zeros in cutters] == [
            (0, 0b11000),
            (1, 0b11001),
            (2, 0b10000),
            (3, 0b01100),
        ]

    def test_no_cutters_on_all_ones(self):
        matrix = BinaryMatrix.from_array(np.ones((3, 3), dtype=bool))
        assert build_cutters_2d(matrix) == []
        assert dminer_mine(matrix, 1, 1) == [Pattern2D(0b111, 0b111)]


class TestEdgeCases:
    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_all_zeros(self, mine):
        matrix = BinaryMatrix.from_array(np.zeros((3, 4), dtype=bool))
        assert mine(matrix, 1, 1) == []

    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_all_ones(self, mine):
        matrix = BinaryMatrix.from_array(np.ones((3, 4), dtype=bool))
        assert set(mine(matrix, 1, 1)) == {Pattern2D(0b111, 0b1111)}

    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_identity_matrix(self, mine):
        matrix = BinaryMatrix.from_array(np.eye(4, dtype=bool))
        patterns = set(mine(matrix, 1, 1))
        assert patterns == {Pattern2D(1 << i, 1 << i) for i in range(4)}

    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_thresholds_filter(self, mine, example):
        for pattern in mine(example, 3, 1):
            assert pattern.row_support >= 3
        for pattern in mine(example, 1, 3):
            assert pattern.column_support >= 3

    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_infeasible_thresholds(self, mine, example):
        assert mine(example, 5, 1) == []
        assert mine(example, 1, 6) == []

    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_invalid_thresholds_raise(self, mine, example):
        with pytest.raises(ValueError):
            mine(example, 0, 1)
        with pytest.raises(ValueError):
            mine(example, 1, 0)

    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_single_row(self, mine):
        matrix = BinaryMatrix.from_array([[1, 0, 1, 1]])
        assert set(mine(matrix, 1, 1)) == {Pattern2D(0b1, 0b1101)}

    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_single_column(self, mine):
        matrix = BinaryMatrix.from_array([[1], [0], [1]])
        assert set(mine(matrix, 1, 1)) == {Pattern2D(0b101, 0b1)}


class TestCrossEquivalence:
    @pytest.mark.parametrize("mine", ALL_MINERS, ids=MINER_IDS)
    def test_against_oracle_random(self, mine, rng):
        for _ in range(40):
            n, m = rng.integers(1, 9, size=2)
            matrix = BinaryMatrix.from_array(
                rng.random((n, m)) < rng.uniform(0.15, 0.95)
            )
            mr, mc = (int(x) for x in rng.integers(1, 4, size=2))
            assert set(mine(matrix, mr, mc)) == set(oracle_mine_2d(matrix, mr, mc))

    def test_all_patterns_valid_and_distinct(self, rng):
        for _ in range(20):
            n, m = rng.integers(2, 10, size=2)
            matrix = BinaryMatrix.from_array(rng.random((n, m)) < 0.6)
            for mine in ALL_MINERS:
                patterns = mine(matrix, 1, 1)
                assert len(patterns) == len(set(patterns))
                for pattern in patterns:
                    assert check_pattern(matrix, pattern)

    def test_extents_closed_means_rows_maximal(self, rng):
        """RSM correctness hinges on bi-maximality; verify explicitly."""
        for _ in range(10):
            matrix = BinaryMatrix.from_array(rng.random((6, 8)) < 0.5)
            for pattern in dminer_mine(matrix, 1, 1):
                assert matrix.support_rows(pattern.columns) == pattern.rows
                assert matrix.support_columns(pattern.rows) == pattern.columns


class TestRegistry:
    def test_all_names_resolve(self):
        for name in FCP_MINERS:
            miner = get_fcp_miner(name)
            assert miner.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown 2D miner"):
            get_fcp_miner("apriori")

    def test_class_interface(self, example):
        miner = get_fcp_miner("dminer")
        patterns = miner.mine(example, min_rows=2, min_columns=2)
        assert len(patterns) == 3


class TestOracleGuard:
    def test_rejects_large_input(self):
        matrix = BinaryMatrix.from_array(np.ones((19, 2), dtype=bool))
        with pytest.raises(ValueError, match="oracle"):
            oracle_mine_2d(matrix)

    def test_pattern_counts_monotone_in_thresholds(self, rng):
        matrix = BinaryMatrix.from_array(rng.random((7, 7)) < 0.6)
        c11 = len(oracle_mine_2d(matrix, 1, 1))
        c21 = len(oracle_mine_2d(matrix, 2, 1))
        c22 = len(oracle_mine_2d(matrix, 2, 2))
        assert c11 >= c21 >= c22
