"""The default kernel: arbitrary-precision Python ints.

This backend wraps the free functions of :mod:`repro.core.bitset`
unchanged — handles are plain lists of ints and every batch operation
is the same early-terminating loop the miners ran before the kernel
layer existed, so it is the behavioural and performance baseline that
the differential suite pins every other backend against.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..bitset import bit_count, full_mask, is_subset, iter_bits
from .base import Kernel

__all__ = ["PythonIntKernel"]


class PythonIntKernel(Kernel):
    """Batch operations as loops over int masks (the historical code)."""

    name = "python-int"

    # ------------------------------------------------------------------
    # Mask arrays
    # ------------------------------------------------------------------
    def pack_masks(self, masks: Sequence[int], n_bits: int) -> list[int]:
        return list(masks)

    def unpack_masks(self, handle: list[int]) -> list[int]:
        return list(handle)

    def fold_and(self, handle: list[int], n_bits: int, select: int | None = None) -> int:
        acc = full_mask(n_bits)
        if select is None:
            for mask in handle:
                acc &= mask
                if acc == 0:
                    return 0
            return acc
        for i in iter_bits(select):
            acc &= handle[i]
            if acc == 0:
                return 0
        return acc

    def popcounts(self, handle: list[int]) -> list[int]:
        return [bit_count(mask) for mask in handle]

    def supersets_of(self, handle: list[int], sub: int) -> int:
        result = 0
        for i, mask in enumerate(handle):
            if sub & ~mask == 0:
                result |= 1 << i
        return result

    # ------------------------------------------------------------------
    # Batched primitives
    # ------------------------------------------------------------------
    def and_many(self, handle_a: list[int], handle_b: list[int], n_bits: int) -> list[int]:
        if len(handle_a) != len(handle_b):
            raise ValueError(
                f"and_many needs equal-length mask arrays, "
                f"got {len(handle_a)} and {len(handle_b)}"
            )
        return [a & b for a, b in zip(handle_a, handle_b)]

    def intersect_rows(self, grid: list[list[int]], heights: int, n_bits: int) -> list[int]:
        # grid_fold_rows already returns a fresh int list — the handle.
        return self.grid_fold_rows(grid, heights, n_bits)

    def grid_slice_rows(self, grid: list[list[int]], height: int, n_bits: int) -> list[int]:
        return list(grid[height])

    # ------------------------------------------------------------------
    # Grids
    # ------------------------------------------------------------------
    def pack_grid(self, masks: Sequence[Sequence[int]], n_bits: int) -> list[list[int]]:
        return [list(per_height) for per_height in masks]

    def grid_fold_and(self, grid: list[list[int]], heights: int, rows: int, n_bits: int) -> int:
        acc = full_mask(n_bits)
        for k in iter_bits(heights):
            per_height = grid[k]
            for i in iter_bits(rows):
                acc &= per_height[i]
                if acc == 0:
                    return 0
        return acc

    def grid_fold_rows(self, grid: list[list[int]], heights: int, n_bits: int) -> list[int]:
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
