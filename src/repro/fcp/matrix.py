"""2D binary matrices for the frequent-closed-pattern substrate.

RSM's phase 2 runs a 2D FCP miner on each *representative slice* — an
``n x m`` boolean matrix obtained by ANDing height slices together.  To
avoid round-tripping through numpy in that hot path, a
:class:`BinaryMatrix` stores one column-bitmask per row and can be built
directly from masks (:meth:`BinaryMatrix.from_row_masks`) or from any
array-like (:meth:`BinaryMatrix.from_array`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.bitset import bit_count, full_mask, indices
from ..core.kernels import KERNEL, PackedBufferError, check_words, masks_from_words

__all__ = ["BinaryMatrix", "PackedBufferError"]


class BinaryMatrix:
    """An ``n x m`` boolean matrix stored as per-row column bitmasks.

    The batch support operations run on the compute kernel
    (:data:`repro.core.kernels.KERNEL`).
    """

    __slots__ = ("_row_masks", "_n_columns")

    def __init__(self, row_masks: Sequence[int], n_columns: int) -> None:
        universe = full_mask(n_columns)
        masks = list(row_masks)
        for i, mask in enumerate(masks):
            if mask < 0 or mask & ~universe:
                raise ValueError(
                    f"row {i} mask {mask:#x} has bits outside {n_columns} columns"
                )
        self._row_masks = masks
        self._n_columns = n_columns

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_row_masks(cls, row_masks: Sequence[int], n_columns: int) -> "BinaryMatrix":
        """Build from per-row column bitmasks (no copy semantics promised)."""
        return cls(row_masks, n_columns)

    @classmethod
    def from_packed(cls, words: np.ndarray, n_columns: int) -> "BinaryMatrix":
        """Build from an ``(n, words)`` packed little-endian uint64 array.

        The out-of-core constructor for representative slices folded
        off a word grid (:func:`repro.stream.outofcore.stream_mine`).
        The array's geometry is validated against ``n_columns`` — dtype,
        rank, word count and stray tail bits — so a malformed buffer
        (e.g. a corrupted shared-memory segment or mapped file) raises
        :class:`~repro.core.kernels.PackedBufferError` instead of
        silently yielding garbage patterns.
        """
        arr = np.asarray(words)
        check_words(arr, n_columns, 2)
        matrix = cls.__new__(cls)
        matrix._row_masks = masks_from_words(arr)
        matrix._n_columns = n_columns
        return matrix

    @classmethod
    def from_array(cls, array) -> "BinaryMatrix":
        """Build from a rank-2 array-like of 0/1 or bool values."""
        data = np.asarray(array)
        if data.ndim != 2:
            raise ValueError(f"expected a rank-2 matrix, got rank {data.ndim}")
        packed = np.packbits(data.astype(bool), axis=-1, bitorder="little")
        return cls(masks_from_words(packed), data.shape[1])

    # ------------------------------------------------------------------
    # Shape / access
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self._row_masks)

    @property
    def n_columns(self) -> int:
        return self._n_columns

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._row_masks), self._n_columns)

    def row_mask(self, i: int) -> int:
        """Column bitmask of the one-cells in row ``i``."""
        return self._row_masks[i]

    def row_masks(self) -> list[int]:
        """All row masks (a fresh list; the matrix stays immutable)."""
        return list(self._row_masks)

    def zeros_mask(self, i: int) -> int:
        """Column bitmask of the zero-cells in row ``i``."""
        return full_mask(self._n_columns) & ~self._row_masks[i]

    def cell(self, i: int, j: int) -> bool:
        return bool(self._row_masks[i] >> j & 1)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def density(self) -> float:
        total = self.n_rows * self._n_columns
        if total == 0:
            return 0.0
        return sum(bit_count(mask) for mask in self._row_masks) / total

    def support_columns(self, rows: int) -> int:
        """Columns that are 1 on every row of the ``rows`` bitmask."""
        return KERNEL.fold_and(self._row_masks, self._n_columns, select=rows)

    def support_rows(self, columns: int) -> int:
        """Rows whose mask contains every column of ``columns``."""
        return KERNEL.supersets_of(self._row_masks, columns)

    def to_array(self) -> np.ndarray:
        """Expand back to a boolean numpy array."""
        out = np.zeros(self.shape, dtype=bool)
        for i, mask in enumerate(self._row_masks):
            for j in indices(mask):
                out[i, j] = True
        return out

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"row_masks": self._row_masks, "n_columns": self._n_columns}

    def __setstate__(self, state: dict) -> None:
        # Pickles of older versions also carry a "kernel" name; it is ignored.
        self._row_masks = state["row_masks"]
        self._n_columns = state["n_columns"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (
            self._n_columns == other._n_columns
            and self._row_masks == other._row_masks
        )

    def __hash__(self) -> int:
        return hash((self._n_columns, tuple(self._row_masks)))

    def __repr__(self) -> str:
        return f"BinaryMatrix(shape={self.shape}, density={self.density:.3f})"
