"""Phase 1 of RSM: representative-slice generation (Section 4.1).

The base dimension (heights, by convention — callers transpose first
for other axes) is enumerated over every subset of size at least
``minH``.  Each subset's member slices are combined cell-wise with AND
into one *representative slice* (RS): an RS cell is 1 only when every
contributing height has a 1 there.  Any 2D FCP of the RS is therefore
simultaneously contained in all contributing heights.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations

from ..core.bitset import mask_of
from ..core.constraints import Thresholds
from ..core.dataset import Dataset3D
from ..core.kernels import KERNEL
from ..fcp.matrix import BinaryMatrix

__all__ = [
    "enumerate_height_subsets",
    "count_height_subsets",
    "min_subset_size",
    "representative_slice",
    "iter_representative_slices",
    "iter_size_slices",
]


def enumerate_height_subsets(n_heights: int, min_h: int) -> Iterator[int]:
    """Yield every height-subset mask with at least ``min_h`` members.

    Subsets are produced smallest-first, each in ascending member
    order, so runs are deterministic.
    """
    if min_h < 1:
        raise ValueError(f"min_h must be >= 1, got {min_h}")
    for size in range(min_h, n_heights + 1):
        for subset in combinations(range(n_heights), size):
            yield mask_of(subset)


def count_height_subsets(n_heights: int, min_h: int) -> int:
    """Number of representative slices RSM will generate.

    This is what makes RSM explode when the enumerated dimension grows
    (Figure 7): the count is ``sum_{s>=minH} C(l, s)``.
    """
    from math import comb

    return sum(comb(n_heights, size) for size in range(min_h, n_heights + 1))


def min_subset_size(thresholds: Thresholds, shape: tuple[int, int, int]) -> int:
    """Smallest height subset RSM enumerates on a tensor of ``shape``.

    ``max(minH, ceil(min_volume / (n * m)))``: a cube with fewer
    heights holds fewer than ``min_volume`` cells even over every row
    and column.  Slices without cells give ``l + 1`` (no subset).
    """
    l, n, m = shape
    if n * m == 0:
        return l + 1
    return max(thresholds.min_h, -(-thresholds.min_volume // (n * m)))


def representative_slice(dataset: Dataset3D, heights: int) -> BinaryMatrix:
    """AND the height slices of ``heights`` into one representative slice.

    One :meth:`~repro.core.kernels.python_int.PythonIntKernel.grid_fold_rows`
    over the selected slices of the dataset's mask grid.
    """
    if heights == 0:
        raise ValueError("a representative slice needs at least one height")
    m = dataset.n_columns
    return BinaryMatrix(KERNEL.grid_fold_rows(dataset.ones_grid(), heights, m), m)


def iter_representative_slices(
    dataset: Dataset3D, min_h: int
) -> Iterator[tuple[int, BinaryMatrix]]:
    """Yield ``(heights_mask, representative_slice)`` for every subset."""
    for heights in enumerate_height_subsets(dataset.n_heights, min_h):
        yield heights, representative_slice(dataset, heights)


def iter_size_slices(
    dataset: Dataset3D, size: int
) -> Iterator[tuple[int, BinaryMatrix]]:
    """Yield every size-``size`` subset with its representative slice.

    Subsets come in the same ascending-member lexicographic order as
    ``itertools.combinations``, so interleaving the per-size calls
    reproduces :func:`iter_representative_slices` exactly.  Unlike the
    one-shot fold, consecutive subsets share their partial AND results:
    advancing the combination at position ``p`` reuses the fold of the
    first ``p`` members and extends it with one
    :meth:`~repro.core.kernels.python_int.PythonIntKernel.and_many` per changed position —
    amortized ~1 batched AND per subset instead of ``size - 1``.
    """
    l = dataset.n_heights
    if size < 1 or size > l:
        return
    grid = dataset.ones_grid()
    m = dataset.n_columns

    combo = list(range(size))
    folds: list = [None] * size  # folds[d] = AND of slices combo[0..d]
    rebuild_from = 0
    while True:
        for d in range(rebuild_from, size):
            member = grid[combo[d]]
            folds[d] = member if d == 0 else KERNEL.and_many(folds[d - 1], member, m)
        yield mask_of(combo), BinaryMatrix(folds[size - 1], m)
        position = size - 1
        while position >= 0 and combo[position] == l - size + position:
            position -= 1
        if position < 0:
            return
        combo[position] += 1
        for q in range(position + 1, size):
            combo[q] = combo[q - 1] + 1
        rebuild_from = position
