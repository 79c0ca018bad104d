"""Closure operators on 3D binary datasets: the one home of closedness.

These implement the paper's support-set operators (Definition 3.1):

* ``H(R' x C')`` — the maximal set of heights simultaneously containing
  the rows ``R'`` and columns ``C'`` (:func:`height_support`),
* ``R(H' x C')`` — :func:`row_support`,
* ``C(H' x R')`` — :func:`column_support`,

the closed-cube predicate of Definition 3.2 (:func:`is_closed_cube`)
and a ``close`` operator that grows a complete seed to a closed cube.

Lemmas 1, 4 and 5 all ask one question: does an element *outside* a
complete cube cover it?  If a height ``h`` outside ``H'`` has no zero
inside ``R' x C'``, then ``(H' + h, R', C')`` is a strictly larger
complete cube and ``H'`` is not closed; symmetrically for an absent
row.  :func:`height_set_closed` and :func:`row_set_closed` answer it
with one kernel support sweep restricted to the outside candidates.
CubeMiner runs both once per leaf of its tree, RSM's post-prune
(Lemma 1) runs the height one on every 2D pattern, and
:func:`is_closed_cube` — which ``stream.maintain()``'s merge applies —
is the column fold plus the two of them.

All set arguments and return values are integer bitmasks
(see :mod:`repro.core.bitset`); the batch work runs on the compute
kernel (:data:`repro.core.kernels.KERNEL`).
"""

from __future__ import annotations

from .bitset import full_mask, is_subset
from .cube import Cube
from .dataset import Dataset3D
from .kernels import KERNEL

__all__ = [
    "column_support",
    "row_support",
    "height_support",
    "is_all_ones",
    "height_set_closed",
    "row_set_closed",
    "is_closed_cube",
    "close",
]


def column_support(dataset: Dataset3D, heights: int, rows: int) -> int:
    """Return ``C(R' x H')``: columns that are 1 on every (height, row) pair.

    For empty ``heights`` or ``rows`` the intersection runs over an empty
    family and therefore returns the full column universe; callers that
    need a different convention must special-case empty inputs.
    """
    return KERNEL.grid_fold_and(
        dataset.ones_grid(), heights, rows, dataset.n_columns
    )


def height_support(dataset: Dataset3D, rows: int, columns: int) -> int:
    """Return ``H(R' x C')``: heights whose slices are all-ones on R' x C'."""
    return KERNEL.grid_supporting_heights(dataset.ones_grid(), rows, columns)


def row_support(dataset: Dataset3D, heights: int, columns: int) -> int:
    """Return ``R(H' x C')``: rows that are all-ones on H' x C'."""
    return KERNEL.grid_supporting_rows(dataset.ones_grid(), heights, columns)


def is_all_ones(dataset: Dataset3D, cube: Cube) -> bool:
    """True when every cell covered by ``cube`` holds 1 (a *complete* cube)."""
    return is_subset(cube.columns, column_support(dataset, cube.heights, cube.rows))


def height_set_closed(
    dataset: Dataset3D, heights: int, rows: int, columns: int
) -> bool:
    """Lemmas 1 and 4: False when some absent height covers R' x C'.

    For a complete cube this is ``heights == H(R' x C')``.
    """
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
    """Lemma 5: False when some absent row covers H' x C'.

    For a complete cube this is ``rows == R(H' x C')``.
    """
    outside = full_mask(dataset.n_rows) & ~rows
    return (
        KERNEL.grid_supporting_rows(
            dataset.ones_grid(), heights, columns, candidates=outside
        )
        == 0
    )


def is_closed_cube(dataset: Dataset3D, cube: Cube) -> bool:
    """Definition 3.2: the cube is complete and maximal in all three axes.

    Three sweeps.  ``C' == C(H' x R')`` says both that the cube is
    complete (``C' ⊆ C(H' x R')``) and that its columns are closed; on
    a complete cube ``H' ⊆ H(R' x C')`` and ``R' ⊆ R(H' x C')`` always
    hold, so the other two axes are closed iff no outside candidate
    covers the cube (:func:`height_set_closed`, :func:`row_set_closed`).

    Empty cubes are never closed here: the paper's support thresholds are
    at least 1 in any meaningful configuration, and treating the empty
    cube as closed would only complicate every caller.
    """
    if cube.is_empty():
        return False
    heights, rows, columns = cube.heights, cube.rows, cube.columns
    return (
        columns == column_support(dataset, heights, rows)
        and height_set_closed(dataset, heights, rows, columns)
        and row_set_closed(dataset, heights, rows, columns)
    )


def close(dataset: Dataset3D, cube: Cube) -> Cube:
    """The closed cube the complete seed ``cube`` grows to, in one pass.

    ``H1 = H(R0 x C0)``, ``R1 = R(H1 x C0)``, ``C1 = C(H1 x R1)``, and
    ``(H1, R1, C1)`` is closed.  By construction ``H1 x R1 x C1`` is
    all-ones and contains the seed (the seed is complete, so each
    operator only adds).  The operators are antitone, so
    ``H(R1 x C1) ⊆ H(R0 x C0) = H1`` and ``R(H1 x C1) ⊆ R(H1 x C0) = R1``;
    completeness gives the reverse inclusions, and ``C1`` is closed by
    definition.  A second pass would return the same three sets.
    """
    if cube.is_empty():
        raise ValueError("cannot close an empty cube")
    if not is_all_ones(dataset, cube):
        raise ValueError("cannot close a cube that covers zero cells")
    heights = height_support(dataset, cube.rows, cube.columns)
    rows = row_support(dataset, heights, cube.columns)
    return Cube(heights, rows, column_support(dataset, heights, rows))
