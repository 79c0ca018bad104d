"""Cutters: the partitioned zero-cells that drive CubeMiner.

Section 5.1 of the paper groups the zero cells of the tensor row by row:
for every (height ``k``, row ``i``) pair that holds at least one zero, a
*cutter* ``(W, X, Y)`` is formed with left atom ``W = {h_k}``, middle
atom ``X = {r_i}``, and right atom ``Y`` the set of zero columns in that
row.  ``Z`` therefore has at most ``l * n`` cutters.

Cutter order matters only for performance, never for the result set.
The paper sorts by left atom then middle atom, and Section 7.1.1 shows
that putting zero-heavy height slices first ("zero-decreasing order")
prunes the search space earliest.  :func:`build_cutters` implements all
three orders studied in Figure 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.bitset import bit_count, full_mask, indices
from ..core.cube import Cube
from ..core.dataset import Dataset3D

__all__ = [
    "Cutter",
    "CutterIndex",
    "HeightOrder",
    "height_permutation",
    "build_cutters",
]


@dataclass(frozen=True, slots=True)
class Cutter:
    """One element of Z: a (height, row) pair and its zero-column mask."""

    height: int
    row: int
    columns: int

    @property
    def left_mask(self) -> int:
        """The left atom W as a height bitmask."""
        return 1 << self.height

    @property
    def middle_mask(self) -> int:
        """The middle atom X as a row bitmask."""
        return 1 << self.row

    def format(self, dataset: Dataset3D | None = None) -> str:
        """Render as in Table 3, e.g. ``h1, r2, c4c5``."""
        cols = indices(self.columns)
        if dataset is not None:
            h = dataset.height_labels[self.height]
            r = dataset.row_labels[self.row]
            c = "".join(dataset.column_labels[j] for j in cols)
        else:
            h = f"h{self.height + 1}"
            r = f"r{self.row + 1}"
            c = "".join(f"c{j + 1}" for j in cols)
        return f"{h}, {r}, {c}"

    def __str__(self) -> str:
        return self.format()


class HeightOrder(enum.Enum):
    """Height-slice orderings studied in Figure 2 (Section 7.1.1)."""

    ORIGINAL = "original"
    ZERO_DECREASING = "zero-decreasing"
    ZERO_INCREASING = "zero-increasing"


def height_permutation(
    dataset: Dataset3D, order: HeightOrder, region: Cube | None = None
) -> list[int]:
    """Return the height indices in the order their cutters should apply.

    Zero-decreasing places slices with *more* zeros first (the paper's
    winning heuristic); ties keep the original relative order so runs
    are deterministic.  With a ``region`` only its heights are ordered,
    by the zeros inside its rows and columns.
    """
    region = _whole(dataset) if region is None else region
    heights = list(indices(region.heights))
    if order is HeightOrder.ORIGINAL:
        return heights
    rows = indices(region.rows)
    zero_counts = {
        k: sum(bit_count(dataset.zeros_mask(k, i) & region.columns) for i in rows)
        for k in heights
    }
    reverse = order is HeightOrder.ZERO_DECREASING
    return sorted(heights, key=lambda k: (-zero_counts[k] if reverse else zero_counts[k], k))


def build_cutters(
    dataset: Dataset3D,
    order: HeightOrder = HeightOrder.ORIGINAL,
    region: Cube | None = None,
) -> list[Cutter]:
    """Compute the cutter set Z in the requested height order.

    Within one height slice, cutters follow ascending row index (the
    paper's "ascending order of left atom first and middle atom second").
    With a ``region`` (CubeMiner's diced root) Z holds only the region's
    (height, row) pairs and their zeros inside its columns: a zero
    outside the region never intersects a node of its tree.
    """
    region = _whole(dataset) if region is None else region
    rows = indices(region.rows)
    cutters: list[Cutter] = []
    for k in height_permutation(dataset, order, region):
        for i in rows:
            zeros = dataset.zeros_mask(k, i) & region.columns
            if zeros:
                cutters.append(Cutter(height=k, row=i, columns=zeros))
    return cutters


def _whole(dataset: Dataset3D) -> Cube:
    return Cube(
        full_mask(dataset.n_heights),
        full_mask(dataset.n_rows),
        full_mask(dataset.n_columns),
    )


def total_zero_cells(cutters: list[Cutter]) -> int:
    """Sum of zero cells covered by the cutter set (sanity-check helper)."""
    return sum(bit_count(cutter.columns) for cutter in cutters)


class CutterIndex:
    """Grouped index over a cutter list for the per-node applicability scan.

    :func:`build_cutters` emits Z sorted by the height permutation and,
    within one height, by ascending row — so each height's cutters form
    one contiguous run of the list.  The index records those runs once
    (start offsets, the run's height, and the bitmask of its rows), and
    :meth:`first_applicable` walks runs instead of individual cutters: a
    run whose height left the node, or none of whose rows remain in the
    node, is skipped with two bit tests regardless of how many cutters
    it holds.  Within a surviving run only the row and column atoms need
    testing (the height is shared).

    Arbitrary cutter lists (tests pin hand-built Z's) are handled too:
    runs are detected as maximal stretches of equal height, so a height
    split across several stretches simply produces several groups.
    """

    __slots__ = (
        "n_cutters",
        "_rows",
        "_columns",
        "_bounds",
        "_group_heights",
        "_group_rowmasks",
        "_group_of",
    )

    def __init__(self, cutters: list[Cutter]) -> None:
        self.n_cutters = len(cutters)
        self._rows = tuple(cutter.row for cutter in cutters)
        self._columns = tuple(cutter.columns for cutter in cutters)
        bounds: list[int] = []
        group_heights: list[int] = []
        group_rowmasks: list[int] = []
        group_of: list[int] = []
        for index, cutter in enumerate(cutters):
            if not group_heights or cutter.height != group_heights[-1]:
                bounds.append(index)
                group_heights.append(cutter.height)
                group_rowmasks.append(0)
            group_rowmasks[-1] |= 1 << cutter.row
            group_of.append(len(group_heights) - 1)
        bounds.append(self.n_cutters)
        group_of.append(len(group_heights))  # sentinel for start == n_cutters
        self._bounds = tuple(bounds)
        self._group_heights = tuple(group_heights)
        self._group_rowmasks = tuple(group_rowmasks)
        self._group_of = tuple(group_of)

    def first_applicable(
        self, heights: int, rows: int, columns: int, start: int
    ) -> int:
        """First index >= ``start`` whose cutter intersects the node, or
        ``n_cutters`` when none does (Algorithm 2, line 6)."""
        n_cutters = self.n_cutters
        if start >= n_cutters:
            return n_cutters
        cutter_rows = self._rows
        cutter_columns = self._columns
        bounds = self._bounds
        group_heights = self._group_heights
        group_rowmasks = self._group_rowmasks
        n_groups = len(group_heights)
        group = self._group_of[start]
        low = start
        while group < n_groups:
            high = bounds[group + 1]
            if heights >> group_heights[group] & 1 and rows & group_rowmasks[group]:
                for index in range(low, high):
                    if rows >> cutter_rows[index] & 1 and columns & cutter_columns[index]:
                        return index
            low = high
            group += 1
        return n_cutters
