"""Differential verification of the hot-path performance primitives.

Three layers ride the perf overhaul and each must be semantically
invisible:

* :class:`repro.cubeminer.cutter.CutterIndex` must agree with a naive
  linear scan on arbitrary cutter lists, node regions and start offsets;
* the kernel's batched ``and_many``, and the packed-word row folds the
  out-of-core paths run, must agree with an elementwise ``int`` model
  on masks read from either dataset storage (``tests.conftest.STORAGES``),
  including empty lists and multi-word universes;
* RSM's subset walk :func:`iter_size_slices`, which folds each subset
  from its parent's slice, must give every subset it yields the diced
  slice a fold from scratch gives it, and yield exactly the subsets
  whose slice survives the dice, for the whole tree and for any split
  of it into subtrees, on either storage — and
  a :meth:`BinaryMatrix.from_packed` word array must behave like a from-masks
  matrix everywhere (access, equality, hashing, pickling).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import full_mask, indices
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.kernels import KERNEL
from repro.cubeminer.cutter import Cutter, CutterIndex, build_cutters
from repro.datasets import paper_example, random_tensor
from repro.fcp.matrix import BinaryMatrix
from repro.obs import MiningMetrics
from repro.rsm.slices import (
    count_height_subsets,
    dice_slice,
    enumerate_height_subsets,
    iter_size_slices,
    representative_slice,
    split_subtrees,
)
from tests.conftest import STORAGES, grid_dataset, in_storage, masks_in_storage


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
# The kernel's batched AND and the packed-word folds vs the int model
# ----------------------------------------------------------------------
@st.composite
def mask_pairs(draw):
    n_bits = draw(st.sampled_from([1, 8, 64, 70, 130]))
    size = draw(st.integers(min_value=0, max_value=6))
    universe = full_mask(n_bits)
    a = [draw(st.integers(0, universe)) for _ in range(size)]
    b = [draw(st.integers(0, universe)) for _ in range(size)]
    return n_bits, a, b


@pytest.mark.parametrize("storage", STORAGES)
@settings(max_examples=60, deadline=None)
@given(mask_pairs())
def test_and_many_matches_elementwise_and(storage, case):
    n_bits, a, b = case
    out = KERNEL.and_many(
        masks_in_storage(a, n_bits, storage),
        masks_in_storage(b, n_bits, storage),
        n_bits,
    )
    assert out == [x & y for x, y in zip(a, b)]


@pytest.mark.parametrize("storage", STORAGES)
def test_and_many_rejects_length_mismatch(storage):
    with pytest.raises(ValueError):
        KERNEL.and_many(
            masks_in_storage([1, 2], 8, storage), masks_in_storage([1], 8, storage), 8
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


def _fold_words(words, heights, n_bits):
    """AND the packed rows of ``heights`` the way ``stream_mine`` folds them."""
    members = indices(heights)
    if not members:
        return [full_mask(n_bits)] * words.shape[1]
    acc = np.array(words[members[0]])
    for k in members[1:]:
        np.bitwise_and(acc, words[k], out=acc)
    return BinaryMatrix.from_packed(acc, n_bits).row_masks()


@pytest.mark.parametrize("storage", STORAGES)
@settings(max_examples=60, deadline=None)
@given(grid_cases())
def test_packed_row_fold_matches_representative_slice(storage, case):
    n_bits, grid, heights = case
    dataset = in_storage(grid_dataset(grid, n_bits), storage)
    if heights:
        expected = representative_slice(dataset, heights).row_masks()
    else:
        expected = [full_mask(n_bits)] * len(grid[0])
    assert _fold_words(dataset.packed_grid(), heights, n_bits) == expected


@pytest.mark.parametrize("storage", STORAGES)
@settings(max_examples=40, deadline=None)
@given(grid_cases())
def test_grid_slice_rows_matches_single_height(storage, case):
    n_bits, grid, _ = case
    dataset = in_storage(grid_dataset(grid, n_bits), storage)
    words = dataset.packed_grid()
    for height, per_height in enumerate(grid):
        assert dataset.slice_row_masks(height) == list(per_height)
        sliced = BinaryMatrix.from_packed(words[height], n_bits)
        assert sliced.row_masks() == list(per_height)


# ----------------------------------------------------------------------
# from_packed matrices and the incremental slice enumeration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", STORAGES)
def test_from_packed_behaves_like_from_row_masks(storage):
    masks = [0b1011, 0b0110, 0b1111, 0b0000]
    plain = BinaryMatrix.from_row_masks(masks, 4)
    words = in_storage(grid_dataset([masks], 4), storage).packed_grid()[0]
    packed = BinaryMatrix.from_packed(words, 4)
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


def _surviving_slices(dataset, thresholds, min_size):
    """Every subset of at least ``min_size`` heights whose from-scratch
    slice survives the dice, with its diced slice."""
    survivors = {}
    for heights in enumerate_height_subsets(dataset.n_heights, min_size):
        diced = dice_slice(
            representative_slice(dataset, heights).row_masks(),
            thresholds.min_r,
            thresholds.min_c,
        )
        if diced is not None:
            survivors[heights] = diced
    return survivors


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize(
    "shape,density,seed", [((5, 4, 12), 0.5, 5), ((6, 3, 70), 0.7, 9)]
)
@pytest.mark.parametrize("min_h", [1, 2, 4])
def test_incremental_enumeration_matches_oneshot(storage, shape, density, seed, min_h):
    """RSM's walk, folding each subset from its parent's slice, gives
    every subset it yields the diced slice a fold from scratch gives it,
    in lexicographic member order, and yields every surviving subset."""
    dataset = in_storage(random_tensor(shape, density, seed=seed), storage)
    thresholds = Thresholds(min_h, 2, 3)
    walked = list(iter_size_slices(dataset, thresholds, min_h))
    expected = _surviving_slices(dataset, thresholds, min_h)
    assert [heights for heights, _ in walked] == sorted(expected, key=indices)
    for heights, rs in walked:
        assert rs.row_masks() == expected[heights]


@st.composite
def walk_cases(draw):
    """A dataset, thresholds, a smallest subset size and a task count."""
    l = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.sampled_from([5, 70]))
    cells = draw(st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m))
    data = np.array(cells, dtype=bool).reshape(l, n, m)
    thresholds = Thresholds(
        1, draw(st.integers(min_value=1, max_value=3)), draw(st.integers(1, 3))
    )
    return data, thresholds, draw(st.integers(1, l + 1)), draw(st.integers(1, 9))


@pytest.mark.parametrize("storage", STORAGES)
@settings(max_examples=60, deadline=None)
@given(case=walk_cases())
def test_slice_fold_matches_representative_slice(storage, case):
    """Split into subtrees, the walk still yields each surviving subset
    once with its diced slice, and counts every other subset as skipped."""
    data, thresholds, min_size, n_tasks = case
    dataset = in_storage(Dataset3D(data), storage)
    metrics = MiningMetrics()
    subtrees = split_subtrees(dataset.n_heights, min_size, n_tasks)
    walked = list(
        iter_size_slices(
            dataset, thresholds, min_size, metrics=metrics, subtrees=subtrees
        )
    )
    expected = _surviving_slices(dataset, thresholds, min_size)
    assert sorted(heights for heights, _ in walked) == sorted(expected)
    for heights, rs in walked:
        manual = [full_mask(dataset.n_columns)] * dataset.n_rows
        for k in indices(heights):
            manual = [a & b for a, b in zip(manual, dataset.ones_grid()[k])]
        assert rs.row_masks() == expected[heights]
        assert rs.row_masks() == dice_slice(manual, thresholds.min_r, thresholds.min_c)
    assert len(walked) + metrics.rs_slices_skipped == count_height_subsets(
        dataset.n_heights, min_size
    )


def test_slice_fold_rejects_an_empty_mask():
    dataset = random_tensor((3, 4, 8), 0.5, seed=1)
    with pytest.raises(ValueError, match="at least one height"):
        representative_slice(dataset, 0)


@pytest.mark.parametrize("storage", STORAGES)
def test_representative_slice_matches_manual_fold(storage):
    source = paper_example()
    dataset = in_storage(source, storage)
    for heights in range(1, 1 << dataset.n_heights):
        rs = representative_slice(dataset, heights)
        expected = []
        for i in range(dataset.n_rows):
            mask = full_mask(dataset.n_columns)
            for k in range(dataset.n_heights):
                if heights >> k & 1:
                    mask &= source.ones_masks()[k][i]
            expected.append(mask)
        assert rs.row_masks() == expected
