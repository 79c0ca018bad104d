"""Property-based verification of the compute kernel over both storages.

For each dataset storage (``tests.conftest.STORAGES``: a boolean tensor
or packed uint64 words), hypothesis stores masks in it, reads the int
mask grid back and checks that the kernel's batch operations agree with
an independent Python-``set`` model: store/read round-trips, AND folds,
popcounts, superset scans and grid closure queries.  Universes above 64
bits are drawn deliberately so the word storage exercises multi-word
rows, and empty/full selections pin the empty-intersection conventions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import full_mask, indices, mask_of
from repro.core.dataset import Dataset3D
from repro.core.kernels import KERNEL
from tests.conftest import (
    STORAGES,
    grid_dataset,
    grid_in_storage,
    in_storage,
    masks_in_storage,
)

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
@pytest.mark.parametrize("storage", STORAGES)
class TestMaskArrays:
    @settings(max_examples=60, deadline=None)
    @given(data=mask_arrays())
    def test_pack_unpack_round_trip(self, storage, data):
        n_bits, masks = data
        assert masks_in_storage(masks, n_bits, storage) == masks

    @settings(max_examples=60, deadline=None)
    @given(data=mask_arrays(), use_select=st.booleans(), select_bits=st.integers(0))
    def test_fold_and_matches_set_model(self, storage, data, use_select, select_bits):
        n_bits, masks = data
        handle = masks_in_storage(masks, n_bits, storage)
        select = select_bits & full_mask(len(masks)) if use_select else None
        chosen = (
            _sets(masks)
            if select is None
            else [set(indices(masks[i])) for i in indices(select)]
        )
        expected = set(range(n_bits))  # empty AND-fold = full universe
        for s in chosen:
            expected &= s
        assert KERNEL.fold_and(handle, n_bits, select) == mask_of(expected)

    @settings(max_examples=60, deadline=None)
    @given(data=mask_arrays())
    def test_popcounts_match_set_sizes(self, storage, data):
        n_bits, masks = data
        sizes = [len(s) for s in _sets(masks)]
        handle = masks_in_storage(masks, n_bits, storage)
        assert [mask.bit_count() for mask in handle] == sizes
        dataset = in_storage(grid_dataset([masks], n_bits), storage)
        counts = np.bitwise_count(dataset.packed_grid()[0]).sum(axis=-1)
        assert counts.tolist() == sizes

    @settings(max_examples=60, deadline=None)
    @given(data=mask_arrays(), sub_bits=st.integers(0))
    def test_supersets_of_matches_set_model(self, storage, data, sub_bits):
        n_bits, masks = data
        handle = masks_in_storage(masks, n_bits, storage)
        sub = sub_bits & full_mask(n_bits)
        sub_set = set(indices(sub))
        expected = mask_of(
            i for i, s in enumerate(_sets(masks)) if sub_set <= s
        )
        assert KERNEL.supersets_of(handle, sub) == expected

    def test_empty_handle_conventions(self, storage):
        handle = masks_in_storage([], 70, storage)
        assert handle == []
        assert KERNEL.fold_and(handle, 70) == full_mask(70)
        assert in_storage(grid_dataset([[]], 70), storage).packed_grid().shape == (1, 0, 2)
        assert KERNEL.supersets_of(handle, 0b1) == 0

    def test_empty_selection_conventions(self, storage):
        handle = masks_in_storage([0b101, 0], 70, storage)
        assert KERNEL.fold_and(handle, 70, select=0) == full_mask(70)

    def test_zero_bit_universe(self, storage):
        handle = masks_in_storage([0, 0, 0], 0, storage)
        assert KERNEL.fold_and(handle, 0) == 0
        assert KERNEL.supersets_of(handle, 0) == 0b111


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", STORAGES)
class TestGrids:
    @settings(max_examples=60, deadline=None)
    @given(data=grids(), h_bits=st.integers(0), r_bits=st.integers(0))
    def test_grid_fold_and_matches_set_model(self, storage, data, h_bits, r_bits):
        n_bits, grid = data
        handle = grid_in_storage(grid, n_bits, storage)
        heights = h_bits & full_mask(len(grid))
        rows = r_bits & full_mask(len(grid[0]))
        expected = set(range(n_bits))
        for k in indices(heights):
            for i in indices(rows):
                expected &= set(indices(grid[k][i]))
        assert KERNEL.grid_fold_and(handle, heights, rows, n_bits) == mask_of(expected)

    @settings(max_examples=60, deadline=None)
    @given(data=grids(), h_bits=st.integers(0))
    def test_grid_fold_rows_matches_set_model(self, storage, data, h_bits):
        n_bits, grid = data
        handle = grid_in_storage(grid, n_bits, storage)
        heights = h_bits & full_mask(len(grid))
        expected = []
        for i in range(len(grid[0])):
            acc = set(range(n_bits))
            for k in indices(heights):
                acc &= set(indices(grid[k][i]))
            expected.append(mask_of(acc))
        assert KERNEL.grid_fold_rows(handle, heights, n_bits) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        data=grids(),
        r_bits=st.integers(0),
        c_bits=st.integers(0),
        cand_bits=st.one_of(st.none(), st.integers(0)),
    )
    def test_grid_supporting_heights_matches_set_model(
        self, storage, data, r_bits, c_bits, cand_bits
    ):
        n_bits, grid = data
        handle = grid_in_storage(grid, n_bits, storage)
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
            KERNEL.grid_supporting_heights(handle, rows, columns, candidates)
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
        self, storage, data, h_bits, c_bits, cand_bits
    ):
        n_bits, grid = data
        handle = grid_in_storage(grid, n_bits, storage)
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
            KERNEL.grid_supporting_rows(handle, heights, columns, candidates)
            == expected
        )

    def test_tensor_and_mask_packing_agree(self, storage):
        rng = np.random.default_rng(42)
        data = rng.random((3, 4, 70)) < 0.5
        grid_masks = [
            [mask_of(np.flatnonzero(data[k, i]).tolist()) for i in range(4)]
            for k in range(3)
        ]
        from_tensor = in_storage(Dataset3D(data), storage).ones_grid()
        from_masks = grid_in_storage(grid_masks, 70, storage)
        assert from_tensor == from_masks == grid_masks
        for heights in (0, 0b1, 0b101, 0b111):
            assert KERNEL.grid_fold_rows(from_tensor, heights, 70) == KERNEL.grid_fold_rows(
                from_masks, heights, 70
            )
