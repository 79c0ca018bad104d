"""Unit and property tests for the closure operators (Definition 3.1/3.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import full_mask, is_subset, mask_of
from repro.core.closure import (
    close,
    column_support,
    height_set_closed,
    height_support,
    is_all_ones,
    is_closed_cube,
    row_set_closed,
    row_support,
)
from repro.core.cube import Cube
from repro.core.dataset import Dataset3D
from repro.cubeminer.algorithm import _Profiles
from repro.datasets import random_tensor
from tests.conftest import STORAGES, in_storage


class TestPaperExamples:
    """The three worked S-contained examples below Table 1."""

    def test_columns_containing_h1_r4(self, paper_ds):
        # C(h1 x r4) = {c3, c5}
        assert column_support(paper_ds, mask_of([0]), mask_of([3])) == mask_of([2, 4])

    def test_rows_containing_h2_c5(self, paper_ds):
        # R(h2 x c5) = {r1, r4}
        assert row_support(paper_ds, mask_of([1]), mask_of([4])) == mask_of([0, 3])

    def test_heights_containing_r2_c1(self, paper_ds):
        # H(r2 x c1) = {h1, h3}
        assert height_support(paper_ds, mask_of([1]), mask_of([0])) == mask_of([0, 2])

    def test_definition_31_example(self, paper_ds):
        # H({r1,r2} x {c1,c2,c3}) = {h1, h3}
        heights = height_support(paper_ds, mask_of([0, 1]), mask_of([0, 1, 2]))
        assert heights == mask_of([0, 2])


class TestSupportOperators:
    def test_column_support_empty_sets_give_universe(self, paper_ds):
        assert column_support(paper_ds, 0, 0) == full_mask(5)

    def test_column_support_shrinks_with_more_rows(self, paper_ds):
        one_row = column_support(paper_ds, mask_of([0]), mask_of([0]))
        two_rows = column_support(paper_ds, mask_of([0]), mask_of([0, 3]))
        assert two_rows & ~one_row == 0

    def test_height_support_empty_rows_gives_all_heights(self, paper_ds):
        assert height_support(paper_ds, 0, full_mask(5)) == full_mask(3)

    def test_row_support_with_empty_columns_gives_all_rows(self, paper_ds):
        assert row_support(paper_ds, full_mask(3), 0) == full_mask(4)

    def test_all_zero_dataset(self):
        ds = Dataset3D(np.zeros((2, 2, 2), dtype=bool))
        assert column_support(ds, 0b11, 0b11) == 0
        assert height_support(ds, 0b11, 0b01) == 0
        assert row_support(ds, 0b11, 0b01) == 0

    def test_all_one_dataset(self):
        ds = Dataset3D(np.ones((2, 3, 4), dtype=bool))
        assert column_support(ds, 0b11, 0b111) == full_mask(4)
        assert height_support(ds, 0b111, full_mask(4)) == 0b11
        assert row_support(ds, 0b11, full_mask(4)) == 0b111


class TestIsAllOnes:
    def test_complete_cube(self, paper_ds):
        cube = Cube.from_labels(paper_ds, "h1 h3", "r1 r2 r3", "c1 c2 c3")
        assert is_all_ones(paper_ds, cube)

    def test_incomplete_cube(self, paper_ds):
        cube = Cube.from_labels(paper_ds, "h1", "r4", "c1")  # O[h1,r4,c1] = 0
        assert not is_all_ones(paper_ds, cube)

    def test_empty_cube_is_vacuously_all_ones(self, paper_ds):
        assert is_all_ones(paper_ds, Cube(0, 0, 0))


class TestIsClosedCube:
    def test_paper_fcc_is_closed(self, paper_ds):
        cube = Cube.from_labels(paper_ds, "h1 h3", "r1 r2 r3", "c1 c2 c3")
        assert is_closed_cube(paper_ds, cube)

    def test_paper_counterexample_not_closed(self, paper_ds):
        # A' = (h1h3, r2r3, c1c2c3) is not closed: r1 extends it.
        cube = Cube.from_labels(paper_ds, "h1 h3", "r2 r3", "c1 c2 c3")
        assert not is_closed_cube(paper_ds, cube)

    def test_incomplete_cube_not_closed(self, paper_ds):
        cube = Cube.from_labels(paper_ds, "h1", "r4", "c1 c3")
        assert not is_closed_cube(paper_ds, cube)

    def test_empty_cube_not_closed(self, paper_ds):
        assert not is_closed_cube(paper_ds, Cube(0, 0, 0))

    def test_full_ones_cube_closed(self):
        ds = Dataset3D(np.ones((2, 2, 2), dtype=bool))
        assert is_closed_cube(ds, Cube(0b11, 0b11, 0b11))
        # Any strict sub-cube of an all-ones tensor is unclosed.
        assert not is_closed_cube(ds, Cube(0b01, 0b11, 0b11))


class TestClose:
    def test_close_expands_to_fcc(self, paper_ds):
        seed = Cube.from_labels(paper_ds, "h1 h3", "r2 r3", "c1 c2 c3")
        closed = close(paper_ds, seed)
        assert closed == Cube.from_labels(paper_ds, "h1 h3", "r1 r2 r3", "c1 c2 c3")

    def test_close_is_idempotent(self, paper_ds):
        seed = Cube.from_labels(paper_ds, "h2", "r4", "c5")
        once = close(paper_ds, seed)
        assert close(paper_ds, once) == once

    def test_close_is_extensive(self, paper_ds):
        seed = Cube.from_labels(paper_ds, "h2", "r1", "c2 c3")
        assert close(paper_ds, seed).contains(seed)

    def test_close_result_is_closed(self, paper_ds):
        for labels in [("h1", "r1", "c1"), ("h3", "r3", "c4"), ("h2", "r4", "c5")]:
            seed = Cube.from_labels(paper_ds, *labels)
            assert is_closed_cube(paper_ds, close(paper_ds, seed))

    def test_close_empty_raises(self, paper_ds):
        with pytest.raises(ValueError, match="empty"):
            close(paper_ds, Cube(0, 1, 1))

    def test_close_incomplete_raises(self, paper_ds):
        with pytest.raises(ValueError, match="zero cells"):
            close(paper_ds, Cube.from_labels(paper_ds, "h1", "r4", "c1"))


def _fixpoint(dataset: Dataset3D, cube: Cube) -> Cube:
    """Apply H, then R, then C, each to the latest sets, until none changes."""
    heights, rows, columns = cube.heights, cube.rows, cube.columns
    while True:
        grown_heights = height_support(dataset, rows, columns)
        grown_rows = row_support(dataset, grown_heights, columns)
        grown = (grown_heights, grown_rows, column_support(dataset, grown_heights, grown_rows))
        if grown == (heights, rows, columns):
            return Cube(heights, rows, columns)
        heights, rows, columns = grown


@st.composite
def datasets_and_cubes(draw):
    """A small random dataset in one storage plus a batch of cubes.

    Cubes are drawn three ways: arbitrary masks (empty, incomplete or
    closed by chance), single one-cells, and the fixpoint closure of
    each such cell with and without one of its heights, so complete
    seeds and closed cubes both occur often.
    """
    l = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.sampled_from([1, 3, 8, 64, 65, 70, 257]))
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 0.95]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    storage = draw(st.sampled_from(STORAGES))
    dataset = in_storage(random_tensor((l, n, m), density, seed=seed), storage)
    masks = st.tuples(
        st.integers(min_value=0, max_value=(1 << l) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
        st.integers(min_value=0, max_value=(1 << m) - 1),
    )
    cubes = [Cube(*triple) for triple in draw(st.lists(masks, min_size=1, max_size=20))]
    ones = np.argwhere(dataset.data)
    if len(ones):
        for index in draw(st.lists(st.integers(0, len(ones) - 1), max_size=5)):
            k, i, j = (int(v) for v in ones[index])
            cell = Cube(1 << k, 1 << i, 1 << j)
            closed = _fixpoint(dataset, cell)
            one_height = closed.heights & -closed.heights
            cubes += [cell, closed, Cube(one_height, closed.rows, closed.columns)]
    return dataset, cubes


def _closed_by_definition(dataset: Dataset3D, cube: Cube) -> bool:
    """Definition 3.2 from full supports: complete and maximal on each axis."""
    heights, rows, columns = cube.heights, cube.rows, cube.columns
    return (
        not cube.is_empty()
        and is_subset(columns, column_support(dataset, heights, rows))
        and heights == height_support(dataset, rows, columns)
        and rows == row_support(dataset, heights, columns)
        and columns == column_support(dataset, heights, rows)
    )


@settings(max_examples=80, deadline=None)
@given(datasets_and_cubes())
def test_close_is_the_operator_fixpoint(case):
    """One ``close`` pass lands on the fixpoint, a closed cube holding the seed."""
    dataset, cubes = case
    for cube in cubes:
        if cube.is_empty() or not is_subset(
            cube.columns, column_support(dataset, cube.heights, cube.rows)
        ):
            with pytest.raises(ValueError):
                close(dataset, cube)
            continue
        closed = close(dataset, cube)
        assert closed == _fixpoint(dataset, cube)
        assert closed.contains(cube)
        assert is_closed_cube(dataset, closed)
        assert close(dataset, closed) == closed


@settings(max_examples=80, deadline=None)
@given(datasets_and_cubes())
def test_is_closed_cube_is_definition_3_2(case):
    """``is_closed_cube`` == Definition 3.2 on empty, incomplete and closed cubes."""
    dataset, cubes = case
    for cube in cubes:
        assert is_closed_cube(dataset, cube) == _closed_by_definition(dataset, cube)


def _profile(planes: list[list[int]], members: int, n_bits: int) -> list[int]:
    """Entry ``x``: the AND of ``planes[b][x]`` over the bits ``b`` of ``members``."""
    profile = [full_mask(n_bits)] * len(planes[0])
    for b in range(len(planes)):
        if members >> b & 1:
            profile = [a & mask for a, mask in zip(profile, planes[b])]
    return profile


@pytest.mark.parametrize("storage", STORAGES)
@settings(max_examples=60, deadline=None)
@given(datasets_and_cubes())
def test_profile_checks_match_the_sweeps(storage, case):
    """With the profile of the cube's rows (heights), ``height_set_closed``
    (``row_set_closed``) answers as the grid sweep does, on any cube; on
    a complete cube both are the support-set equalities.  The profiles
    are also the ones CubeMiner's memo hands its leaf checks."""
    source, cubes = case
    dataset = in_storage(source, storage)
    grid = dataset.ones_grid()
    by_row = [list(plane) for plane in zip(*grid)]
    memo_by_rows, memo_by_heights = _Profiles(by_row), _Profiles(grid)
    m = dataset.n_columns
    for cube in cubes:
        heights, rows, columns = cube.heights, cube.rows, cube.columns
        height_profile = _profile(by_row, rows, m)
        row_profile = _profile(grid, heights, m)
        if rows:
            assert memo_by_rows[rows] == height_profile
        if heights:
            assert memo_by_heights[heights] == row_profile
        height_closed = height_set_closed(dataset, heights, rows, columns)
        row_closed = row_set_closed(dataset, heights, rows, columns)
        assert height_set_closed(dataset, heights, rows, columns, height_profile) == height_closed
        assert row_set_closed(dataset, heights, rows, columns, row_profile) == row_closed
        if is_subset(columns, column_support(dataset, heights, rows)):
            assert height_closed == (heights == height_support(dataset, rows, columns))
            assert row_closed == (rows == row_support(dataset, heights, columns))
