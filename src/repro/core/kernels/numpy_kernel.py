"""Packed-uint64 kernel vectorized with numpy.

Masks are stored as little-endian ``uint64`` word arrays (word ``w``
holds bits ``64w .. 64w+63``), so a batch operation over many masks is
a handful of whole-array bitwise ops instead of a Python-level loop:

* mask arrays pack to ``(k, words)`` matrices,
* dataset grids pack to ``(l, n, words)`` tensors (built straight from
  the bool tensor via ``np.packbits``),
* subset tests are ``(sub & ~A) == 0`` reductions,
* AND folds are ``np.bitwise_and.reduce``,
* popcounts use ``np.bitwise_count``.

Conversion to and from the miners' Python-int masks happens only at the
interface boundary (``int.to_bytes`` / ``int.from_bytes`` round-trips
through the same little-endian layout).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..bitset import full_mask
from .base import Kernel, PackedBufferError, words_from_tensor, words_per_row

__all__ = ["NumpyKernel"]

_WORD_DTYPE = np.dtype("<u8")


def _n_words(n_bits: int) -> int:
    return words_per_row(n_bits)


def _pack_int(mask: int, words: int) -> np.ndarray:
    """One int mask -> a ``(words,)`` uint64 array."""
    return np.frombuffer(mask.to_bytes(words * 8, "little"), dtype=_WORD_DTYPE)


def _unpack_int(words_arr: np.ndarray) -> int:
    """A ``(words,)`` uint64 array -> the int mask it encodes."""
    return int.from_bytes(np.ascontiguousarray(words_arr, dtype=_WORD_DTYPE).tobytes(), "little")


def _select_bools(select: int, count: int) -> np.ndarray:
    """An index bitmask -> a ``(count,)`` bool selector array."""
    words = _n_words(count)
    raw = np.frombuffer(select.to_bytes(words * 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=count).astype(bool)


def _mask_from_bools(flags: np.ndarray) -> int:
    """A bool array -> the index bitmask of its True positions."""
    if flags.size == 0:
        return 0
    return int.from_bytes(
        np.packbits(flags, bitorder="little").tobytes(), "little"
    )


class NumpyKernel(Kernel):
    """Vectorized batch operations on packed uint64 word arrays."""

    name = "numpy"
    words_native = True

    # ------------------------------------------------------------------
    # Mask arrays
    # ------------------------------------------------------------------
    def pack_masks(self, masks: Sequence[int], n_bits: int) -> np.ndarray:
        words = _n_words(n_bits)
        packed = np.empty((len(masks), words), dtype=_WORD_DTYPE)
        for i, mask in enumerate(masks):
            packed[i] = _pack_int(mask, words)
        return packed

    def unpack_masks(self, handle: np.ndarray) -> list[int]:
        return [_unpack_int(row) for row in handle]

    def fold_and(self, handle: np.ndarray, n_bits: int, select: int | None = None) -> int:
        rows = handle if select is None else handle[_select_bools(select, len(handle))]
        if rows.shape[0] == 0:
            return full_mask(n_bits)
        return _unpack_int(np.bitwise_and.reduce(rows, axis=0))

    def popcounts(self, handle: np.ndarray) -> list[int]:
        if handle.size == 0:
            return [0] * len(handle)
        return np.bitwise_count(handle).sum(axis=1, dtype=np.int64).tolist()

    def supersets_of(self, handle: np.ndarray, sub: int) -> int:
        sub_words = _pack_int(sub, handle.shape[1])
        ok = ((sub_words & ~handle) == 0).all(axis=1)
        return _mask_from_bools(ok)

    def check_packed(self, handle: np.ndarray, n_bits: int) -> int:
        arr = np.asarray(handle)
        if arr.ndim != 2 or arr.dtype != _WORD_DTYPE:
            raise PackedBufferError(
                f"numpy handle must be a rank-2 {_WORD_DTYPE} array, got "
                f"rank {arr.ndim} {arr.dtype}"
            )
        words = _n_words(n_bits)
        if arr.shape[1] != words:
            raise PackedBufferError(
                f"handle holds {arr.shape[1]} words per row, expected "
                f"{words} for a {n_bits}-bit universe"
            )
        tail_bits = n_bits % 64
        if arr.size and tail_bits:
            allowed = np.uint64((1 << tail_bits) - 1)
            if (arr[:, -1] & ~allowed).any():
                raise PackedBufferError(
                    f"handle carries stray bits beyond the {n_bits}-bit universe"
                )
        return int(arr.shape[0])

    # ------------------------------------------------------------------
    # Batched primitives
    # ------------------------------------------------------------------
    def and_many(self, handle_a: np.ndarray, handle_b: np.ndarray, n_bits: int) -> np.ndarray:
        if handle_a.shape != handle_b.shape:
            raise ValueError(
                f"and_many needs equal-shape mask arrays, "
                f"got {handle_a.shape} and {handle_b.shape}"
            )
        return handle_a & handle_b

    def intersect_rows(self, grid: np.ndarray, heights: int, n_bits: int) -> np.ndarray:
        l, n, words = grid.shape
        if heights == 0:
            full = np.empty((n, words), dtype=_WORD_DTYPE)
            full[:] = _pack_int(full_mask(n_bits), words)
            return full
        return np.bitwise_and.reduce(grid[_select_bools(heights, l)], axis=0)

    def grid_slice_rows(self, grid: np.ndarray, height: int, n_bits: int) -> np.ndarray:
        return grid[height]

    # ------------------------------------------------------------------
    # Grids
    # ------------------------------------------------------------------
    def pack_grid(self, masks: Sequence[Sequence[int]], n_bits: int) -> np.ndarray:
        words = _n_words(n_bits)
        l = len(masks)
        n = len(masks[0]) if l else 0
        packed = np.empty((l, n, words), dtype=_WORD_DTYPE)
        for k, per_height in enumerate(masks):
            for i, mask in enumerate(per_height):
                packed[k, i] = _pack_int(mask, words)
        return packed

    def pack_grid_from_tensor(self, data: np.ndarray) -> np.ndarray:
        return words_from_tensor(data)

    def grid_fold_and(self, grid: np.ndarray, heights: int, rows: int, n_bits: int) -> int:
        if heights == 0 or rows == 0:
            return full_mask(n_bits)
        l, n, words = grid.shape
        sel = grid[np.ix_(_select_bools(heights, l), _select_bools(rows, n))]
        return _unpack_int(np.bitwise_and.reduce(sel.reshape(-1, words), axis=0))

    def grid_fold_rows(self, grid: np.ndarray, heights: int, n_bits: int) -> list[int]:
        l, n, words = grid.shape
        if heights == 0:
            return [full_mask(n_bits)] * n
        folded = np.bitwise_and.reduce(grid[_select_bools(heights, l)], axis=0)
        return [_unpack_int(folded[i]) for i in range(n)]

    def grid_supporting_heights(
        self, grid: np.ndarray, rows: int, columns: int, candidates: int | None = None
    ) -> int:
        l, n, words = grid.shape
        if candidates is None:
            candidates = full_mask(l)
        if candidates == 0:
            return 0
        if rows == 0:
            return candidates
        cand = _select_bools(candidates, l)
        sub = grid[np.ix_(cand, _select_bools(rows, n))]
        col_words = _pack_int(columns, words)
        ok = ((col_words & ~sub) == 0).all(axis=(1, 2))
        supported = np.zeros(l, dtype=bool)
        supported[cand] = ok
        return _mask_from_bools(supported)

    def grid_supporting_rows(
        self, grid: np.ndarray, heights: int, columns: int, candidates: int | None = None
    ) -> int:
        l, n, words = grid.shape
        if candidates is None:
            candidates = full_mask(n)
        if candidates == 0:
            return 0
        if heights == 0:
            return candidates
        cand = _select_bools(candidates, n)
        sub = grid[np.ix_(_select_bools(heights, l), cand)]
        col_words = _pack_int(columns, words)
        ok = ((col_words & ~sub) == 0).all(axis=(0, 2))
        supported = np.zeros(n, dtype=bool)
        supported[cand] = ok
        return _mask_from_bools(supported)
