"""The compute kernel: batch bitset operations over Python int masks.

Every bulk set operation of the miners goes through the methods of the
one :data:`~repro.core.kernels.KERNEL` instance: AND folds (the
closure operator ``C(H' x R')``, representative-slice folding, 2D
column supports) and support sweeps (``H(R' x C')``, ``R(H' x C')``,
2D row supports).  A *grid* is a dataset's ``l x n`` list of
per-(height, row) column masks (:meth:`repro.core.dataset.Dataset3D.ones_grid`).

Empty-selection conventions match the closure operators' intersection
semantics: an AND fold over an empty family is the full universe and a
support query with an empty opposing set returns every candidate.
"""

from __future__ import annotations

from ..bitset import full_mask, is_subset, iter_bits

__all__ = ["PythonIntKernel"]


class PythonIntKernel:
    """Batch operations as early-terminating loops over int masks."""

    name = "python-int"

    # ------------------------------------------------------------------
    # Mask lists (2D matrices)
    # ------------------------------------------------------------------
    def fold_and(self, masks: list[int], n_bits: int, select: int | None = None) -> int:
        """AND of ``masks[i]`` for every ``i`` in ``select`` (``None``: all)."""
        acc = full_mask(n_bits)
        if select is None:
            for mask in masks:
                acc &= mask
                if acc == 0:
                    return 0
            return acc
        for i in iter_bits(select):
            acc &= masks[i]
            if acc == 0:
                return 0
        return acc

    def supersets_of(self, masks: list[int], sub: int) -> int:
        """Index bitmask of the masks that contain ``sub``."""
        result = 0
        for i, mask in enumerate(masks):
            if sub & ~mask == 0:
                result |= 1 << i
        return result

    def and_many(self, masks_a: list[int], masks_b: list[int], n_bits: int) -> list[int]:
        """Elementwise AND of two equal-length mask lists."""
        if len(masks_a) != len(masks_b):
            raise ValueError(
                f"and_many needs equal-length mask lists, "
                f"got {len(masks_a)} and {len(masks_b)}"
            )
        return [a & b for a, b in zip(masks_a, masks_b)]

    # ------------------------------------------------------------------
    # Grids (l heights x n rows of column masks)
    # ------------------------------------------------------------------
    def grid_fold_and(self, grid: list[list[int]], heights: int, rows: int, n_bits: int) -> int:
        """AND of ``grid[k][i]`` over ``k in heights, i in rows``: ``C(H' x R')``."""
        acc = full_mask(n_bits)
        for k in iter_bits(heights):
            per_height = grid[k]
            for i in iter_bits(rows):
                acc &= per_height[i]
                if acc == 0:
                    return 0
        return acc

    def grid_fold_rows(self, grid: list[list[int]], heights: int, n_bits: int) -> list[int]:
        """Per-row AND over ``heights``: the representative slice's row masks."""
        member_iter = iter_bits(heights)
        first = next(member_iter, None)
        if first is None:
            n_rows = len(grid[0]) if grid else 0
            return [full_mask(n_bits)] * n_rows
        masks = list(grid[first])
        for k in member_iter:
            per_height = grid[k]
            for i, mask in enumerate(per_height):
                masks[i] &= mask
        return masks

    def grid_supporting_heights(
        self,
        grid: list[list[int]],
        rows: int,
        columns: int,
        candidates: int | None = None,
    ) -> int:
        """Heights (among ``candidates``) containing ``columns`` on every row
        of ``rows``: ``H(R' x C')``."""
        height_iter = (
            range(len(grid)) if candidates is None else iter_bits(candidates)
        )
        result = 0
        for k in height_iter:
            per_height = grid[k]
            for i in iter_bits(rows):
                if not is_subset(columns, per_height[i]):
                    break
            else:
                result |= 1 << k
        return result

    def grid_supporting_rows(
        self,
        grid: list[list[int]],
        heights: int,
        columns: int,
        candidates: int | None = None,
    ) -> int:
        """Rows (among ``candidates``) containing ``columns`` on every height
        of ``heights``: ``R(H' x C')``."""
        n_rows = len(grid[0]) if grid else 0
        row_iter = range(n_rows) if candidates is None else iter_bits(candidates)
        result = 0
        for i in row_iter:
            for k in iter_bits(heights):
                if not is_subset(columns, grid[k][i]):
                    break
            else:
                result |= 1 << i
        return result
