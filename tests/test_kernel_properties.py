"""Property-based verification of every kernel backend.

For each registered kernel, hypothesis checks that the batch operations
agree with an independent Python-``set`` model: pack/unpack round-trips,
AND folds, popcounts, superset scans, grid closure queries and
representative-slice folding.  Universes above 64 bits are drawn
deliberately so packed-word backends exercise multi-word masks, and
empty/full selections pin the empty-intersection conventions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import full_mask, indices, mask_of
from repro.core.kernels import available_kernels, get_kernel

KERNELS = list(available_kernels())

# Universe widths straddling the 64-bit word boundary.
_WIDTHS = [0, 1, 3, 17, 63, 64, 65, 70, 128, 130]


def _masks(n_bits: int) -> st.SearchStrategy[int]:
    universe = full_mask(n_bits)
    return st.one_of(
        st.just(0), st.just(universe), st.integers(min_value=0, max_value=universe)
    )


@st.composite
def mask_arrays(draw):
    n_bits = draw(st.sampled_from(_WIDTHS))
    masks = draw(st.lists(_masks(n_bits), min_size=0, max_size=6))
    return n_bits, masks


@st.composite
def grids(draw):
    """(n_bits, l x n column-mask grid) with l, n >= 1."""
    n_bits = draw(st.sampled_from([1, 4, 33, 64, 70]))
    l = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    grid = [
        [draw(_masks(n_bits)) for _ in range(n)] for _ in range(l)
    ]
    return n_bits, grid


def _sets(masks):
    return [set(indices(mask)) for mask in masks]


# ----------------------------------------------------------------------
# Mask arrays
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", KERNELS)
class TestMaskArrays:
    @settings(max_examples=60, deadline=None)
    @given(data=mask_arrays())
    def test_pack_unpack_round_trip(self, kernel_name, data):
        n_bits, masks = data
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_masks(masks, n_bits)
        assert kernel.unpack_masks(handle) == masks

    @settings(max_examples=60, deadline=None)
    @given(data=mask_arrays(), use_select=st.booleans(), select_bits=st.integers(0))
    def test_fold_and_matches_set_model(self, kernel_name, data, use_select, select_bits):
        n_bits, masks = data
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_masks(masks, n_bits)
        select = select_bits & full_mask(len(masks)) if use_select else None
        chosen = (
            _sets(masks)
            if select is None
            else [set(indices(masks[i])) for i in indices(select)]
        )
        expected = set(range(n_bits))  # empty AND-fold = full universe
        for s in chosen:
            expected &= s
        assert kernel.fold_and(handle, n_bits, select) == mask_of(expected)

    @settings(max_examples=60, deadline=None)
    @given(data=mask_arrays())
    def test_popcounts_match_set_sizes(self, kernel_name, data):
        n_bits, masks = data
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_masks(masks, n_bits)
        assert kernel.popcounts(handle) == [len(s) for s in _sets(masks)]

    @settings(max_examples=60, deadline=None)
    @given(data=mask_arrays(), sub_bits=st.integers(0))
    def test_supersets_of_matches_set_model(self, kernel_name, data, sub_bits):
        n_bits, masks = data
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_masks(masks, n_bits)
        sub = sub_bits & full_mask(n_bits)
        sub_set = set(indices(sub))
        expected = mask_of(
            i for i, s in enumerate(_sets(masks)) if sub_set <= s
        )
        assert kernel.supersets_of(handle, sub) == expected

    def test_empty_handle_conventions(self, kernel_name):
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_masks([], 70)
        assert kernel.unpack_masks(handle) == []
        assert kernel.fold_and(handle, 70) == full_mask(70)
        assert kernel.popcounts(handle) == []
        assert kernel.supersets_of(handle, 0b1) == 0

    def test_empty_selection_conventions(self, kernel_name):
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_masks([0b101, 0], 70)
        assert kernel.fold_and(handle, 70, select=0) == full_mask(70)

    def test_zero_bit_universe(self, kernel_name):
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_masks([0, 0, 0], 0)
        assert kernel.fold_and(handle, 0) == 0
        assert kernel.supersets_of(handle, 0) == 0b111


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel_name", KERNELS)
class TestGrids:
    @settings(max_examples=60, deadline=None)
    @given(data=grids(), h_bits=st.integers(0), r_bits=st.integers(0))
    def test_grid_fold_and_matches_set_model(self, kernel_name, data, h_bits, r_bits):
        n_bits, grid = data
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_grid(grid, n_bits)
        heights = h_bits & full_mask(len(grid))
        rows = r_bits & full_mask(len(grid[0]))
        expected = set(range(n_bits))
        for k in indices(heights):
            for i in indices(rows):
                expected &= set(indices(grid[k][i]))
        assert kernel.grid_fold_and(handle, heights, rows, n_bits) == mask_of(expected)

    @settings(max_examples=60, deadline=None)
    @given(data=grids(), h_bits=st.integers(0))
    def test_grid_fold_rows_matches_set_model(self, kernel_name, data, h_bits):
        n_bits, grid = data
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_grid(grid, n_bits)
        heights = h_bits & full_mask(len(grid))
        expected = []
        for i in range(len(grid[0])):
            acc = set(range(n_bits))
            for k in indices(heights):
                acc &= set(indices(grid[k][i]))
            expected.append(mask_of(acc))
        assert kernel.grid_fold_rows(handle, heights, n_bits) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        data=grids(),
        r_bits=st.integers(0),
        c_bits=st.integers(0),
        cand_bits=st.one_of(st.none(), st.integers(0)),
    )
    def test_grid_supporting_heights_matches_set_model(
        self, kernel_name, data, r_bits, c_bits, cand_bits
    ):
        n_bits, grid = data
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_grid(grid, n_bits)
        rows = r_bits & full_mask(len(grid[0]))
        columns = c_bits & full_mask(n_bits)
        candidates = (
            None if cand_bits is None else cand_bits & full_mask(len(grid))
        )
        pool = range(len(grid)) if candidates is None else indices(candidates)
        col_set = set(indices(columns))
        expected = mask_of(
            k
            for k in pool
            if all(col_set <= set(indices(grid[k][i])) for i in indices(rows))
        )
        assert (
            kernel.grid_supporting_heights(handle, rows, columns, candidates)
            == expected
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=grids(),
        h_bits=st.integers(0),
        c_bits=st.integers(0),
        cand_bits=st.one_of(st.none(), st.integers(0)),
    )
    def test_grid_supporting_rows_matches_set_model(
        self, kernel_name, data, h_bits, c_bits, cand_bits
    ):
        n_bits, grid = data
        kernel = get_kernel(kernel_name)
        handle = kernel.pack_grid(grid, n_bits)
        heights = h_bits & full_mask(len(grid))
        columns = c_bits & full_mask(n_bits)
        candidates = (
            None if cand_bits is None else cand_bits & full_mask(len(grid[0]))
        )
        pool = range(len(grid[0])) if candidates is None else indices(candidates)
        col_set = set(indices(columns))
        expected = mask_of(
            i
            for i in pool
            if all(col_set <= set(indices(grid[k][i])) for k in indices(heights))
        )
        assert (
            kernel.grid_supporting_rows(handle, heights, columns, candidates)
            == expected
        )

    def test_tensor_and_mask_packing_agree(self, kernel_name):
        import numpy as np

        rng = np.random.default_rng(42)
        data = rng.random((3, 4, 70)) < 0.5
        kernel = get_kernel(kernel_name)
        grid_masks = [
            [mask_of(np.flatnonzero(data[k, i]).tolist()) for i in range(4)]
            for k in range(3)
        ]
        from_tensor = kernel.pack_grid_from_tensor(data)
        from_masks = kernel.pack_grid(grid_masks, 70)
        for heights in (0, 0b1, 0b101, 0b111):
            assert kernel.grid_fold_rows(from_tensor, heights, 70) == kernel.grid_fold_rows(
                from_masks, heights, 70
            )
