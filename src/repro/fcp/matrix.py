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

from ..core.bitset import full_mask, indices
from ..core.kernels import Kernel, PackedBufferError, resolve_kernel

__all__ = ["BinaryMatrix", "PackedBufferError"]


class BinaryMatrix:
    """An ``n x m`` boolean matrix stored as per-row column bitmasks.

    The batch support operations run on a kernel backend
    (:mod:`repro.core.kernels`); representative slices inherit their
    dataset's kernel.  The kernel never affects values, so equality and
    hashing ignore it.
    """

    __slots__ = ("_row_masks", "_n_rows", "_n_columns", "_kernel_spec", "_kernel", "_packed_rows")

    def __init__(
        self,
        row_masks: Sequence[int],
        n_columns: int,
        *,
        kernel: str | Kernel | None = None,
    ) -> None:
        universe = full_mask(n_columns)
        masks = list(row_masks)
        for i, mask in enumerate(masks):
            if mask < 0 or mask & ~universe:
                raise ValueError(
                    f"row {i} mask {mask:#x} has bits outside {n_columns} columns"
                )
        self._row_masks: list[int] | None = masks
        self._n_rows = len(masks)
        self._n_columns = n_columns
        self._kernel_spec = kernel
        self._kernel: Kernel | None = None
        self._packed_rows = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_row_masks(
        cls,
        row_masks: Sequence[int],
        n_columns: int,
        *,
        kernel: str | Kernel | None = None,
    ) -> "BinaryMatrix":
        """Build from per-row column bitmasks (no copy semantics promised)."""
        return cls(row_masks, n_columns, kernel=kernel)

    @classmethod
    def from_packed(
        cls,
        handle,
        n_columns: int,
        *,
        kernel: str | Kernel,
    ) -> "BinaryMatrix":
        """Build from a kernel-native mask-array handle without unpacking.

        The hot-path constructor for representative slices: the handle
        (e.g. :meth:`repro.core.kernels.Kernel.intersect_rows` output)
        becomes the matrix's ``packed_rows()`` directly, and the plain
        int row masks materialize lazily only if a caller needs them.
        The handle's geometry is validated against ``n_columns`` through
        :meth:`repro.core.kernels.Kernel.check_packed` — a cheap shape /
        stray-bit check, not a per-row unpack — so a malformed buffer
        (e.g. a corrupted shared-memory segment) raises
        :class:`~repro.core.kernels.PackedBufferError` instead of
        silently yielding garbage patterns.
        """
        resolved = resolve_kernel(kernel)
        matrix = cls.__new__(cls)
        matrix._row_masks = None
        matrix._n_rows = resolved.check_packed(handle, n_columns)
        matrix._n_columns = n_columns
        matrix._kernel_spec = kernel
        matrix._kernel = resolved
        matrix._packed_rows = handle
        return matrix

    @classmethod
    def from_array(cls, array, *, kernel: str | Kernel | None = None) -> "BinaryMatrix":
        """Build from a rank-2 array-like of 0/1 or bool values."""
        data = np.asarray(array)
        if data.ndim != 2:
            raise ValueError(f"expected a rank-2 matrix, got rank {data.ndim}")
        data = data.astype(bool)
        n, m = data.shape
        masks = []
        for i in range(n):
            packed = np.packbits(data[i], bitorder="little").tobytes()
            masks.append(int.from_bytes(packed, "little"))
        return cls(masks, m, kernel=kernel)

    # ------------------------------------------------------------------
    # Kernel backend
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> Kernel:
        """The bitset backend serving this matrix (resolved lazily)."""
        if self._kernel is None:
            self._kernel = resolve_kernel(self._kernel_spec)
        return self._kernel

    def packed_rows(self):
        """Kernel-native handle over the row masks (built once)."""
        if self._packed_rows is None:
            self._packed_rows = self.kernel.pack_masks(
                self._row_masks, self._n_columns
            )
        return self._packed_rows

    def _masks(self) -> list[int]:
        """The int row masks, materialized from the handle if needed."""
        if self._row_masks is None:
            self._row_masks = self.kernel.unpack_masks(self._packed_rows)
        return self._row_masks

    # ------------------------------------------------------------------
    # Shape / access
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return self._n_columns

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n_rows, self._n_columns)

    def row_mask(self, i: int) -> int:
        """Column bitmask of the one-cells in row ``i``."""
        return self._masks()[i]

    def row_masks(self) -> list[int]:
        """All row masks (a fresh list; the matrix stays immutable)."""
        return list(self._masks())

    def zeros_mask(self, i: int) -> int:
        """Column bitmask of the zero-cells in row ``i``."""
        return full_mask(self._n_columns) & ~self._masks()[i]

    def cell(self, i: int, j: int) -> bool:
        return bool(self._masks()[i] >> j & 1)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def density(self) -> float:
        total = self.n_rows * self._n_columns
        if total == 0:
            return 0.0
        return sum(self.kernel.popcounts(self.packed_rows())) / total

    def support_columns(self, rows: int) -> int:
        """Columns that are 1 on every row of the ``rows`` bitmask."""
        return self.kernel.fold_and(
            self.packed_rows(), self._n_columns, select=rows
        )

    def support_rows(self, columns: int) -> int:
        """Rows whose mask contains every column of ``columns``."""
        return self.kernel.supersets_of(self.packed_rows(), columns)

    def to_array(self) -> np.ndarray:
        """Expand back to a boolean numpy array."""
        out = np.zeros(self.shape, dtype=bool)
        for i, mask in enumerate(self._masks()):
            for j in indices(mask):
                out[i, j] = True
        return out

    # ------------------------------------------------------------------
    # Pickling (drop kernel-native caches; keep the kernel by name)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        spec = self._kernel_spec
        return {
            "row_masks": self._masks(),
            "n_columns": self._n_columns,
            "kernel": spec.name if isinstance(spec, Kernel) else spec,
        }

    def __setstate__(self, state: dict) -> None:
        self._row_masks = state["row_masks"]
        self._n_rows = len(state["row_masks"])
        self._n_columns = state["n_columns"]
        self._kernel_spec = state.get("kernel")
        self._kernel = None
        self._packed_rows = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return (
            self._n_columns == other._n_columns
            and self._masks() == other._masks()
        )

    def __hash__(self) -> int:
        return hash((self._n_columns, tuple(self._masks())))

    def __repr__(self) -> str:
        return f"BinaryMatrix(shape={self.shape}, density={self.density:.3f})"
