"""Phase 1 of RSM: representative-slice generation (Section 4.1).

The base dimension (heights, by convention — callers transpose first
for other axes) is enumerated over every subset of size at least
``minH``.  Each subset's member slices are combined cell-wise with AND
into one *representative slice* (RS): an RS cell is 1 only when every
contributing height has a 1 there.  Any 2D FCP of the RS is therefore
simultaneously contained in all contributing heights.

Phase 1 makes two decisions, each with one implementation here that
every RSM driver uses: *which* subsets, in which order
(:func:`enumerate_height_subsets`, size-major and lexicographic,
starting at :func:`min_subset_size`), and *how* a slice is folded
(:func:`iter_size_slices`, which shares AND prefixes between
consecutive subsets).  Only the out-of-core miner
(:mod:`repro.stream.outofcore`) folds packed words instead, chunk by
chunk of rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations

from ..core.bitset import iter_bits, mask_of
from ..core.constraints import Thresholds
from ..core.dataset import Dataset3D
from ..core.kernels import KERNEL
from ..fcp.matrix import BinaryMatrix

__all__ = [
    "enumerate_height_subsets",
    "count_height_subsets",
    "min_subset_size",
    "representative_slice",
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

    The one-subset case of :func:`iter_size_slices`: a fold from scratch.
    """
    ((_, rs),) = iter_size_slices(dataset, (heights,))
    return rs


def iter_size_slices(
    dataset: Dataset3D, height_masks: Iterable[int]
) -> Iterator[tuple[int, BinaryMatrix]]:
    """Yield ``(heights, representative_slice)`` for each of ``height_masks``.

    RSM's one int-grid slice fold.  A subset reuses the AND of the
    members it shares with the previous subset as a prefix, in
    ascending member order, and extends it with one
    :meth:`~repro.core.kernels.python_int.PythonIntKernel.and_many` per
    further member.  Over the size-major lexicographic order of
    :func:`enumerate_height_subsets` that is about one ``and_many`` per
    subset instead of ``size - 1``.  Any sequence of non-empty masks
    folds correctly; an empty mask raises ``ValueError``.
    """
    grid = dataset.ones_grid()
    m = dataset.n_columns
    previous = 0
    folds: list[list[int]] = []  # folds[d] = AND of the first d + 1 members
    for heights in height_masks:
        if heights <= 0:
            raise ValueError("a representative slice needs at least one height")
        # Members below the lowest bit where the two masks differ are
        # the shared prefix (all of them for a repeated mask).
        below = ((heights ^ previous) & -(heights ^ previous)) - 1
        del folds[(heights & below).bit_count():]
        for k in iter_bits(heights & ~below):
            folds.append(KERNEL.and_many(folds[-1], grid[k], m) if folds else grid[k])
        previous = heights
        yield heights, BinaryMatrix(folds[-1], m)
