"""Native C kernel on the packed-uint64 layout.

:class:`NativeKernel` shares the :class:`~repro.core.kernels.numpy_kernel.NumpyKernel`
handle formats bit for bit — mask arrays are ``(k, words)`` and grids
``(l, n, words)`` little-endian uint64 arrays — so packing, pickling,
shared-memory attachment and memory-mapped stores all reuse the numpy
plumbing unchanged (``words_native`` stays true: an shm or mmap word
buffer *is* the handle, zero-copy).  What changes is who does the batch
work: every fold, support scan and popcount dispatches to the
``_native`` C extension, which walks the buffers directly — no selector
unpacking, no gather copies, early exits on zero accumulators and
failed subset tests.

The extension is optional.  ``setup.py`` builds it when a C compiler is
present (``-O3``; ``__builtin_popcountll`` and optional AVX2 paths are
resolved at compile time — see ``_native.c``); when the import probe
fails, :func:`native_available` turns false, the registry leaves the
``native`` name unregistered, and kernel resolution degrades to
``numpy`` (see :mod:`repro.core.kernels`).  Instantiating
:class:`NativeKernel` without the extension raises
:class:`~repro.core.kernels.base.KernelUnavailableError`.
"""

from __future__ import annotations

import numpy as np

from ..bitset import full_mask
from .base import KernelUnavailableError, words_per_row
from .numpy_kernel import NumpyKernel, _pack_int, _unpack_int

__all__ = [
    "NativeKernel",
    "native_available",
    "native_import_error",
    "native_features",
]

try:
    from . import _native
except ImportError as exc:  # extension not built on this interpreter
    _native = None  # type: ignore[assignment]
    _IMPORT_ERROR: str | None = str(exc)
else:
    _IMPORT_ERROR = None

_WORD_DTYPE = np.dtype("<u8")


def native_available() -> bool:
    """True when the ``_native`` C extension imported successfully."""
    return _native is not None


def native_import_error() -> str | None:
    """The import failure that disabled the native backend, if any."""
    return None if _native is not None else _IMPORT_ERROR


def native_features() -> dict:
    """Compile-time feature flags of the built extension.

    ``{"popcount": ..., "simd": ..., "big_endian": ...}``; raises
    :class:`KernelUnavailableError` when the extension is not built.
    """
    if _native is None:
        raise KernelUnavailableError("native", _IMPORT_ERROR or "not built")
    return _native.features()


def _contiguous(arr: np.ndarray) -> np.ndarray:
    """The array itself, or a C-contiguous copy when it is a strided view."""
    if arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr)


def _select_bytes(select: int, count: int) -> bytes:
    """An index bitmask as a packed little-endian word buffer."""
    return select.to_bytes(words_per_row(count) * 8, "little")


class NativeKernel(NumpyKernel):
    """Batch bitset operations executed by the ``_native`` C extension.

    Subclasses :class:`NumpyKernel` for the representation layer
    (packing, validation, zero-copy adoption of packed word buffers)
    and overrides every batch operation with a C call.
    """

    name = "native"
    words_native = True

    def __init__(self) -> None:
        if _native is None:
            raise KernelUnavailableError("native", _IMPORT_ERROR or "not built")

    # ------------------------------------------------------------------
    # Mask arrays
    # ------------------------------------------------------------------
    def fold_and(self, handle: np.ndarray, n_bits: int, select: int | None = None) -> int:
        k, words = handle.shape
        if k == 0 or select == 0:
            return full_mask(n_bits)
        out = np.empty(words, dtype=_WORD_DTYPE)
        _native.fold_and(
            _contiguous(handle), k, words,
            None if select is None else _select_bytes(select, k), out,
        )
        return _unpack_int(out)

    def popcounts(self, handle: np.ndarray) -> list[int]:
        k, words = handle.shape
        return _native.popcounts(_contiguous(handle), k, words)

    def supersets_of(self, handle: np.ndarray, sub: int) -> int:
        k, words = handle.shape
        if k == 0:
            return 0
        out = np.empty(words_per_row(k), dtype=_WORD_DTYPE)
        _native.supersets_of(
            _contiguous(handle), k, words, _pack_int(sub, words), out
        )
        return _unpack_int(out)

    # ------------------------------------------------------------------
    # Batched primitives
    # ------------------------------------------------------------------
    def and_many(self, handle_a: np.ndarray, handle_b: np.ndarray, n_bits: int) -> np.ndarray:
        if handle_a.shape != handle_b.shape:
            raise ValueError(
                f"and_many needs equal-shape mask arrays, "
                f"got {handle_a.shape} and {handle_b.shape}"
            )
        out = np.empty(handle_a.shape, dtype=_WORD_DTYPE)
        _native.and_many(
            _contiguous(handle_a), _contiguous(handle_b), out, handle_a.size
        )
        return out

    def intersect_rows(self, grid: np.ndarray, heights: int, n_bits: int) -> np.ndarray:
        l, n, words = grid.shape
        out = np.empty((n, words), dtype=_WORD_DTYPE)
        if heights == 0:
            out[:] = _pack_int(full_mask(n_bits), words)
            return out
        _native.grid_fold_rows(
            _contiguous(grid), l, n, words, _select_bytes(heights, l), out
        )
        return out

    # ------------------------------------------------------------------
    # Grids
    # ------------------------------------------------------------------
    def grid_fold_and(self, grid: np.ndarray, heights: int, rows: int, n_bits: int) -> int:
        if heights == 0 or rows == 0:
            return full_mask(n_bits)
        l, n, words = grid.shape
        out = np.empty(words, dtype=_WORD_DTYPE)
        out[:] = _pack_int(full_mask(n_bits), words)
        _native.grid_fold_and(
            _contiguous(grid), l, n, words,
            _select_bytes(heights, l), _select_bytes(rows, n), out,
        )
        return _unpack_int(out)

    def grid_fold_rows(self, grid: np.ndarray, heights: int, n_bits: int) -> list[int]:
        folded = self.intersect_rows(grid, heights, n_bits)
        return [_unpack_int(folded[i]) for i in range(folded.shape[0])]

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
        out = np.empty(words_per_row(l), dtype=_WORD_DTYPE)
        _native.grid_supporting_heights(
            _contiguous(grid), l, n, words,
            _select_bytes(rows, n), _pack_int(columns, words),
            _select_bytes(candidates, l), out,
        )
        return _unpack_int(out)

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
        out = np.empty(words_per_row(n), dtype=_WORD_DTYPE)
        _native.grid_supporting_rows(
            _contiguous(grid), l, n, words,
            _select_bytes(heights, l), _pack_int(columns, words),
            _select_bytes(candidates, n), out,
        )
        return _unpack_int(out)
