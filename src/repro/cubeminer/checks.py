"""Closure checks for CubeMiner nodes (Lemmas 4 and 5).

Both checks ask the same question from two angles: does there exist an
element *outside* the node that the node's cells do not rule out?  If a
height ``h`` outside ``H'`` has no zero inside ``R' x C'``, then
``(H' + h, R', C')`` is a strictly larger complete cube and the node can
never become height-closed (Lemma 4).  Symmetrically for an absent row
(Lemma 5).

"``h`` has no zero inside ``R' x C'``" is exactly "``h`` supports
``R' x C'``", so both lemmas are one kernel support sweep restricted to
the elements outside the node: the node is closed iff no outside
candidate supports it.

CubeMiner runs both checks once per leaf of its tree, where a node that
survived every cutter is an all-ones frequent cube: the leaf is an FCC
iff both hold.  :func:`~repro.cubeminer.trace.trace_tree` runs them on
sons to draw the paper's Figure 1, which prunes by them inside the tree.
"""

from __future__ import annotations

from ..core.bitset import full_mask
from ..core.dataset import Dataset3D
from ..core.kernels import KERNEL

__all__ = ["height_set_closed", "row_set_closed"]


def height_set_closed(
    dataset: Dataset3D, heights: int, rows: int, columns: int
) -> bool:
    """Lemma 4 (Hcheck): False when some absent height covers R' x C'."""
    outside = full_mask(dataset.n_heights) & ~heights
    return (
        KERNEL.grid_supporting_heights(
            dataset.ones_grid(), rows, columns, candidates=outside
        )
        == 0
    )


def row_set_closed(
    dataset: Dataset3D, heights: int, rows: int, columns: int
) -> bool:
    """Lemma 5 (Rcheck): False when some absent row covers H' x C'."""
    outside = full_mask(dataset.n_rows) & ~rows
    return (
        KERNEL.grid_supporting_rows(
            dataset.ones_grid(), heights, columns, candidates=outside
        )
        == 0
    )
