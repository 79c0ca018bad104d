"""Differential verification of the hot-path performance primitives.

Three layers ride the perf overhaul and each must be semantically
invisible:

* :class:`repro.cubeminer.cutter.CutterIndex` must agree with a naive
  linear scan on arbitrary cutter lists, node regions and start offsets;
* the batched kernel primitives (``and_many`` / ``intersect_rows`` /
  ``grid_slice_rows``) must agree with a Python
  ``int`` model on every registered kernel, including empty selections
  and multi-word universes;
* the incremental prefix-folded slice enumeration must reproduce the
  one-shot :func:`iter_representative_slices` stream exactly —
  same subsets in the same order with equal matrices — and
  :meth:`BinaryMatrix.from_packed` must behave like a from-masks
  matrix everywhere (access, equality, hashing, pickling).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import full_mask
from repro.core.kernels import available_kernels, get_kernel
from repro.cubeminer.cutter import Cutter, CutterIndex, build_cutters
from repro.datasets import paper_example, random_tensor
from repro.fcp.matrix import BinaryMatrix
from repro.rsm.slices import (
    iter_representative_slices,
    iter_size_slices,
    representative_slice,
)

KERNELS = list(available_kernels())


def _naive_first_applicable(cutters, heights, rows, columns, start):
    for index in range(start, len(cutters)):
        cutter = cutters[index]
        if (
            heights >> cutter.height & 1
            and rows >> cutter.row & 1
            and columns & cutter.columns
        ):
            return index
    return len(cutters)


# ----------------------------------------------------------------------
# CutterIndex vs naive scan
# ----------------------------------------------------------------------
@st.composite
def cutter_scenarios(draw):
    l = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.sampled_from([4, 70]))
    count = draw(st.integers(min_value=0, max_value=12))
    # Deliberately NOT grouped by height: the index must handle
    # arbitrary order (a height split into several runs).
    cutters = [
        Cutter(
            height=draw(st.integers(0, l - 1)),
            row=draw(st.integers(0, n - 1)),
            columns=draw(st.integers(1, full_mask(m))),
        )
        for _ in range(count)
    ]
    heights = draw(st.integers(0, full_mask(l)))
    rows = draw(st.integers(0, full_mask(n)))
    columns = draw(st.integers(0, full_mask(m)))
    start = draw(st.integers(0, count + 1))
    return cutters, heights, rows, columns, start


@settings(max_examples=150, deadline=None)
@given(cutter_scenarios())
def test_cutter_index_matches_naive_scan(case):
    cutters, heights, rows, columns, start = case
    index = CutterIndex(cutters)
    assert index.first_applicable(heights, rows, columns, start) == (
        _naive_first_applicable(cutters, heights, rows, columns, start)
    )


def test_cutter_index_on_real_cutter_lists():
    dataset = paper_example()
    cutters = build_cutters(dataset)
    index = CutterIndex(cutters)
    l, n, m = dataset.shape
    for heights in range(1 << l):
        expected = _naive_first_applicable(
            cutters, heights, full_mask(n), full_mask(m), 0
        )
        assert index.first_applicable(heights, full_mask(n), full_mask(m), 0) == expected


# ----------------------------------------------------------------------
# Batched kernel primitives vs the python-int model
# ----------------------------------------------------------------------
@st.composite
def mask_pairs(draw):
    n_bits = draw(st.sampled_from([1, 8, 64, 70, 130]))
    size = draw(st.integers(min_value=0, max_value=6))
    universe = full_mask(n_bits)
    a = [draw(st.integers(0, universe)) for _ in range(size)]
    b = [draw(st.integers(0, universe)) for _ in range(size)]
    return n_bits, a, b


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(mask_pairs())
def test_and_many_matches_elementwise_and(kernel, case):
    n_bits, a, b = case
    backend = get_kernel(kernel)
    out = backend.and_many(
        backend.pack_masks(a, n_bits), backend.pack_masks(b, n_bits), n_bits
    )
    assert backend.unpack_masks(out) == [x & y for x, y in zip(a, b)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_and_many_rejects_length_mismatch(kernel):
    backend = get_kernel(kernel)
    with pytest.raises(ValueError):
        backend.and_many(
            backend.pack_masks([1, 2], 8), backend.pack_masks([1], 8), 8
        )


@st.composite
def grid_cases(draw):
    n_bits = draw(st.sampled_from([1, 8, 70]))
    l = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    universe = full_mask(n_bits)
    grid = [[draw(st.integers(0, universe)) for _ in range(n)] for _ in range(l)]
    heights = draw(st.integers(0, full_mask(l)))
    return n_bits, grid, heights


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(grid_cases())
def test_intersect_rows_matches_grid_fold_rows(kernel, case):
    n_bits, grid, heights = case
    backend = get_kernel(kernel)
    handle = backend.pack_grid(grid, n_bits)
    expected = backend.grid_fold_rows(handle, heights, n_bits)
    assert backend.unpack_masks(backend.intersect_rows(handle, heights, n_bits)) == expected


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(grid_cases())
def test_grid_slice_rows_matches_single_height(kernel, case):
    n_bits, grid, _ = case
    backend = get_kernel(kernel)
    handle = backend.pack_grid(grid, n_bits)
    for height, per_height in enumerate(grid):
        sliced = backend.grid_slice_rows(handle, height, n_bits)
        assert backend.unpack_masks(sliced) == list(per_height)


# ----------------------------------------------------------------------
# from_packed matrices and the incremental slice enumeration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
def test_from_packed_behaves_like_from_row_masks(kernel):
    backend = get_kernel(kernel)
    masks = [0b1011, 0b0110, 0b1111, 0b0000]
    plain = BinaryMatrix.from_row_masks(masks, 4, kernel=backend)
    packed = BinaryMatrix.from_packed(
        backend.pack_masks(masks, 4), 4, kernel=backend
    )
    assert packed.shape == plain.shape
    assert packed.row_masks() == masks
    assert packed.zeros_mask(1) == plain.zeros_mask(1)
    assert packed.cell(0, 1) == plain.cell(0, 1)
    assert packed.support_columns(0b101) == plain.support_columns(0b101)
    assert packed.support_rows(0b0011) == plain.support_rows(0b0011)
    assert (packed.to_array() == plain.to_array()).all()
    assert packed == plain
    assert hash(packed) == hash(plain)
    rebuilt = pickle.loads(pickle.dumps(packed))
    assert rebuilt == plain


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "shape,density,seed", [((5, 4, 12), 0.5, 5), ((6, 3, 70), 0.7, 9)]
)
@pytest.mark.parametrize("min_h", [1, 2, 4])
def test_incremental_enumeration_matches_oneshot(kernel, shape, density, seed, min_h):
    dataset = random_tensor(shape, density, seed=seed).with_kernel(kernel)
    incremental = []
    for size in range(min_h, dataset.n_heights + 1):
        incremental.extend(iter_size_slices(dataset, size))
    oneshot = list(iter_representative_slices(dataset, min_h))
    assert [heights for heights, _ in incremental] == [h for h, _ in oneshot]
    for (_, got), (_, want) in zip(incremental, oneshot):
        assert got == want


@pytest.mark.parametrize("kernel", KERNELS)
def test_representative_slice_matches_manual_fold(kernel):
    dataset = paper_example().with_kernel(kernel)
    for heights in range(1, 1 << dataset.n_heights):
        rs = representative_slice(dataset, heights)
        expected = []
        for i in range(dataset.n_rows):
            mask = full_mask(dataset.n_columns)
            for k in range(dataset.n_heights):
                if heights >> k & 1:
                    mask &= dataset.ones_masks()[k][i]
            expected.append(mask)
        assert rs.row_masks() == expected


def test_iter_size_slices_degenerate_sizes():
    dataset = random_tensor((3, 4, 8), 0.5, seed=1)
    assert list(iter_size_slices(dataset, 0)) == []
    assert list(iter_size_slices(dataset, 4)) == []
    singles = list(iter_size_slices(dataset, 3))
    assert len(singles) == 1
    assert singles[0][0] == full_mask(3)
