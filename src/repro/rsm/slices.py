"""Phase 1 of RSM: representative-slice generation (Section 4.1).

The base dimension (heights, by convention — callers transpose first
for other axes) is enumerated over subsets of at least ``minH``
members.  Each subset's member slices are combined cell-wise with AND
into one *representative slice* (RS): an RS cell is 1 only when every
contributing height has a 1 there.  Any 2D FCP of the RS is therefore
simultaneously contained in all contributing heights.

The paper mines the RS of every such subset.  RSM here walks the
subset tree depth first instead (:func:`walk_subsets`), taking members
in ascending order, and cuts a node with its whole subtree when its RS
cannot hold a ``minR x minC`` all-ones rectangle
(:func:`dice_slice`, a 2D diamond dice).  An RS only loses ones
as members join, so the test is anti-monotone: no cut subset could
have yielded a pattern, and the cube lists equal the full
enumeration's.  Each node's RS is its parent's ANDed with one more
slice, so the walk shares AND prefixes along every branch.

Every RSM driver takes this one walk: the in-memory drivers through
:func:`iter_size_slices` (the int-grid fold), the out-of-core miner
(:mod:`repro.stream.outofcore`) with its own chunked word fold.
:func:`enumerate_height_subsets` keeps the paper's full size-major
enumeration, which ``trace_rsm`` shows as Table 2.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import combinations

from ..core.bitset import iter_bits, mask_of
from ..core.constraints import Thresholds
from ..core.dataset import Dataset3D
from ..core.kernels import KERNEL
from ..fcp.matrix import BinaryMatrix
from ..obs.metrics import MiningMetrics

__all__ = [
    "enumerate_height_subsets",
    "count_height_subsets",
    "min_subset_size",
    "representative_slice",
    "dice_slice",
    "walk_subsets",
    "split_subtrees",
    "iter_size_slices",
    "may_hold_cube",
    "WHOLE_TREE",
]

#: A subtree ``(heights, lo)`` holds ``heights`` plus any subset of the
#: members ``lo .. l - 1``; ``(0, 0)`` is the whole subset tree.
WHOLE_TREE = ((0, 0),)


def enumerate_height_subsets(n_heights: int, min_h: int) -> Iterator[int]:
    """Yield every height-subset mask with at least ``min_h`` members.

    The paper's full enumeration: subsets are produced smallest-first,
    each in ascending member order, so runs are deterministic.
    """
    if min_h < 1:
        raise ValueError(f"min_h must be >= 1, got {min_h}")
    for size in range(min_h, n_heights + 1):
        for subset in combinations(range(n_heights), size):
            yield mask_of(subset)


def count_height_subsets(n_heights: int, min_h: int) -> int:
    """Number of subsets with at least ``min_h`` of ``n_heights`` members.

    The paper's RSM mines one representative slice per such subset,
    which is what makes it explode when the enumerated dimension grows
    (Figure 7): the count is ``sum_{s>=minH} C(l, s)``.
    """
    from math import comb

    return sum(comb(n_heights, size) for size in range(max(min_h, 0), n_heights + 1))


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


def _fold_from_scratch(grid: list[list[int]], heights: int, n_bits: int) -> list[int]:
    members = iter_bits(heights)
    rows = grid[next(members)]
    for k in members:
        rows = KERNEL.and_many(rows, grid[k], n_bits)
    return rows


def representative_slice(dataset: Dataset3D, heights: int) -> BinaryMatrix:
    """AND the height slices of ``heights`` into one representative slice,
    folding from scratch."""
    if heights <= 0:
        raise ValueError("a representative slice needs at least one height")
    m = dataset.n_columns
    return BinaryMatrix(_fold_from_scratch(dataset.ones_grid(), heights, m), m)


def dice_slice(rows: list[int], min_r: int, min_c: int) -> list[int] | None:
    """The 2D diamond dice of a slice, or ``None`` when it is empty.

    ``rows`` are column masks.  The dice keeps the rows with at least
    ``min_c`` ones, then the columns that are 1 in at least ``min_r``
    of those rows, and repeats until nothing changes; it returns the
    rows masked to the kept columns, with every dropped row 0.  Every
    all-ones rectangle of at least ``min_r`` rows and ``min_c``
    columns survives it, so ``None`` proves the slice (and any slice
    with fewer ones) holds none.  Each closed pattern of the slice with
    those supports is a closed pattern of the diced slice and back, so
    a 2D miner finds the same patterns in either.  "In at least
    ``min_r`` rows" is counted with bit-sliced saturating counters:
    ``counts[j]`` holds the columns seen in more than ``j`` rows.
    """
    columns = -1
    while True:
        rows = [
            row if row.bit_count() >= min_c else 0
            for row in (row & columns for row in rows)
        ]
        counts = [0] * min_r
        for row in rows:
            if row:
                for j in range(min_r - 1, 0, -1):
                    counts[j] |= counts[j - 1] & row
                counts[0] |= row
        kept = counts[-1]
        if kept == columns:
            return rows
        if kept.bit_count() < min_c:
            return None
        columns = kept


def walk_subsets(
    fold: Callable[[int, "list[int] | None"], list[int]],
    n_heights: int,
    min_size: int,
    thresholds: Thresholds,
    *,
    metrics: MiningMetrics | None = None,
    subtrees: Iterable[tuple[int, int]] = WHOLE_TREE,
    from_scratch: bool = False,
) -> Iterator[tuple[int, list[int]]]:
    """Walk the subset tree depth first; yield ``(heights, diced_rs_rows)``.

    RSM's one subset walk.  ``fold(heights, prefix)`` returns the RS
    rows of ``heights``, where ``prefix`` is the RS of ``heights``
    without its top member, or ``None`` when the walk has none to share.
    Each of ``subtrees`` (see :data:`WHOLE_TREE`) is walked in ascending
    member order, so the whole tree comes out in lexicographic order of
    the sorted members.
    A node whose RS has an empty :func:`dice_slice` (``minR`` rows by
    ``minC`` columns) is cut with its subtree, and the subsets of at
    least ``min_size`` members inside it are added to
    ``metrics.rs_slices_skipped``; a node that cannot reach
    ``min_size`` members is dropped unfolded.  Every surviving node of
    at least ``min_size`` members is yielded, so the yielded plus the
    skipped subsets are exactly ``count_height_subsets(l, min_size)``.
    A child folds from its parent's RS.  With ``from_scratch`` ``fold``
    always gets ``None``, the walk holds no RS between nodes, and a node
    below ``min_size`` is walked unfolded: its fold would cost as much
    as any other and serve only its own cut test.  The mined and skipped
    subsets are the same either way.
    """
    min_r, min_c = thresholds.min_r, thresholds.min_c
    for root, first in subtrees:
        stack: list[tuple[int, int, list[int] | None]] = [(root, first, None)]
        while stack:
            heights, lo, prefix = stack.pop()
            size = heights.bit_count()
            free = n_heights - lo
            if size + free < min_size:
                continue
            rows: list[int] | None = None
            if heights and (size >= min_size or not from_scratch):
                rows = fold(heights, prefix)
                diced = dice_slice(rows, min_r, min_c)
                if diced is None:
                    if metrics is not None:
                        metrics.rs_slices_skipped += count_height_subsets(
                            free, min_size - size
                        )
                    continue
                if size >= min_size:
                    yield heights, diced
            if from_scratch:
                rows = None
            stack.extend(
                (heights | 1 << k, k + 1, rows)
                for k in range(n_heights - 1, lo - 1, -1)
            )


def split_subtrees(
    n_heights: int, min_size: int, n_tasks: int
) -> list[tuple[int, int]]:
    """Cut the subset tree into at least ``n_tasks`` subtrees.

    Splitting ``(heights, lo)`` on member ``lo`` gives the subtrees with
    and without it, ``(heights | 1 << lo, lo + 1)`` and
    ``(heights, lo + 1)``.  Every subtree is split on the same member
    until there are enough (or every subtree is a single node).  The
    parts are disjoint, and together they hold every subset of at least
    ``min_size`` members; parts without one are dropped.
    """
    parts = [(0, 0)] if n_heights >= min_size else []
    lo = 0
    while 0 < len(parts) < n_tasks and lo < n_heights:
        parts = [
            (heights, lo + 1)
            for root, _ in parts
            for heights in (root | 1 << lo, root)
            if heights.bit_count() + n_heights - lo - 1 >= min_size
        ]
        lo += 1
    return parts


def _grid_fold(
    grid: list[list[int]], n_bits: int
) -> Callable[[int, "list[int] | None"], list[int]]:
    """:func:`walk_subsets`' fold over an int mask grid: one
    ``and_many`` from the parent's slice, or a fold from scratch."""

    def fold(heights: int, prefix: list[int] | None) -> list[int]:
        if prefix is None:
            return _fold_from_scratch(grid, heights, n_bits)
        return KERNEL.and_many(prefix, grid[heights.bit_length() - 1], n_bits)

    return fold


def iter_size_slices(
    dataset: Dataset3D,
    thresholds: Thresholds,
    min_size: int,
    *,
    metrics: MiningMetrics | None = None,
    subtrees: Iterable[tuple[int, int]] = WHOLE_TREE,
) -> Iterator[tuple[int, BinaryMatrix]]:
    """Yield ``(heights, diced_slice)`` for each subset RSM mines.

    :func:`walk_subsets` over the dataset's int mask grid, each
    representative slice diced by :func:`dice_slice`: a child's RS
    is one :meth:`~repro.core.kernels.python_int.PythonIntKernel.and_many`
    of its parent's RS with its new member's slice, and a subtree's root
    folds from scratch.
    """
    m = dataset.n_columns
    for heights, rows in walk_subsets(
        _grid_fold(dataset.ones_grid(), m),
        dataset.n_heights,
        min_size,
        thresholds,
        metrics=metrics,
        subtrees=subtrees,
    ):
        yield heights, BinaryMatrix(rows, m)


def may_hold_cube(dataset: Dataset3D, thresholds: Thresholds, heights: int) -> bool:
    """Whether a cube meeting ``thresholds`` may have a height in ``heights``.

    Walks only the subsets that include a height of ``heights`` (those
    heights taken first, so each such subset sits in the subtree of its
    first one) and stops at the first that the walk would mine.
    ``False`` is a proof: such a cube's height set is a subset of at
    least :func:`min_subset_size` members whose slice holds its rows x
    columns, so the walk cannot cut it.  ``True`` is not: a dice can
    keep a slice that holds no rectangle.
    """
    l = dataset.n_heights
    grid = dataset.ones_grid()
    order = sorted(range(l), key=lambda k: not heights >> k & 1)
    first = [(1 << i, i + 1) for i in range(heights.bit_count())]
    walk = walk_subsets(
        _grid_fold([grid[k] for k in order], dataset.n_columns),
        l,
        min_subset_size(thresholds, dataset.shape),
        thresholds,
        subtrees=first,
    )
    return next(walk, None) is not None
