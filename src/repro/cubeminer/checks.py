"""Closure checks for CubeMiner nodes (Lemmas 4 and 5).

Both checks ask the same question from two angles: does there exist an
element *outside* the node that the node's cells do not rule out?  If a
height ``h`` outside ``H'`` has no zero inside ``R' x C'``, then
``(H' + h, R', C')`` is a strictly larger complete cube and the node can
never become height-closed — prune it (Lemma 4).  Symmetrically for an
absent row (Lemma 5).

"``h`` has no zero inside ``R' x C'``" is exactly "``h`` supports
``R' x C'``", so both lemmas are one kernel support sweep restricted to
the elements outside the node: the node is closed iff no outside
candidate supports it.

With a :class:`~repro.core.closure.ClosureCache` the sweep is replaced
by one test against the cache's packed zero layout
(:class:`~repro.core.closure.PackedAxis`): one table lookup and OR
per four opposite elements, with no loop over the outside elements.
CubeMiner's engine calls the same
:meth:`~repro.core.closure.PackedAxis.closed` on the ``crep`` each
node carries instead of rebuilding it.  The answers are identical
either way — the differential suite pins the two paths against each
other.
"""

from __future__ import annotations

from ..core.bitset import full_mask
from ..core.closure import ClosureCache
from ..core.dataset import Dataset3D

__all__ = ["height_set_closed", "row_set_closed"]


def height_set_closed(
    dataset: Dataset3D,
    heights: int,
    rows: int,
    columns: int,
    *,
    cache: ClosureCache | None = None,
) -> bool:
    """Lemma 4 (Hcheck): False when some absent height covers R' x C'."""
    if cache is not None:
        return cache.height_set_closed(dataset, heights, rows, columns)
    outside = full_mask(dataset.n_heights) & ~heights
    return (
        dataset.kernel.grid_supporting_heights(
            dataset.ones_grid(), rows, columns, candidates=outside
        )
        == 0
    )


def row_set_closed(
    dataset: Dataset3D,
    heights: int,
    rows: int,
    columns: int,
    *,
    cache: ClosureCache | None = None,
) -> bool:
    """Lemma 5 (Rcheck): False when some absent row covers H' x C'."""
    if cache is not None:
        return cache.row_set_closed(dataset, heights, rows, columns)
    outside = full_mask(dataset.n_rows) & ~rows
    return (
        dataset.kernel.grid_supporting_rows(
            dataset.ones_grid(), heights, columns, candidates=outside
        )
        == 0
    )
