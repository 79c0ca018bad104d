"""The kernel backend contract.

A *kernel* supplies the batch bitset operations that dominate mining:
AND folds over many masks, popcounts over a mask list, subset tests
against a mask array, and representative-slice folding and support
scans over a dataset's (height, row) mask grid.  The miners keep
exchanging plain Python ``int`` bitmasks (see :mod:`repro.core.bitset`);
a kernel is free to use any internal representation — it converts at
the boundary via *handles*:

* a **mask-array handle** (:meth:`Kernel.pack_masks`) stands for a
  sequence of masks over one bit universe, e.g. the row masks of a
  :class:`~repro.fcp.matrix.BinaryMatrix`;
* a **grid handle** (:meth:`Kernel.pack_grid`) stands for the ``l x n``
  grid of per-(height, row) column masks of a
  :class:`~repro.core.dataset.Dataset3D`.

Handles are immutable once built and are cached by their owners
(dataset, matrix, miner run), so packing cost is paid once per object,
not per operation.  Handles never travel between kernels or processes:
pickled owners drop them and repack lazily on the other side.

Empty-selection conventions match the closure operators' intersection
semantics: an AND-fold over an empty family is the full universe and
a support query with an empty opposing set returns every candidate.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import Any, ClassVar

import numpy as np

__all__ = [
    "Kernel",
    "PackedBufferError",
    "KernelUnavailableError",
    "words_per_row",
    "words_from_tensor",
    "tensor_from_words",
    "release_mapped_pages",
]

#: Canonical packed-word dtype shared by every words-native structure:
#: little-endian uint64, word ``w`` holding bits ``64w .. 64w+63``.
WORD_DTYPE = np.dtype("<u8")


class PackedBufferError(ValueError):
    """A packed mask/grid buffer does not match its declared geometry.

    Raised when caller-supplied shape metadata disagrees with the actual
    buffer (wrong dtype, word count, row count, or stray bits beyond the
    declared universe) — e.g. a corrupted or mislabeled shared-memory
    segment.  Subclasses :class:`ValueError` so untyped callers keep
    working.
    """


class KernelUnavailableError(ValueError):
    """A known kernel backend cannot run on this interpreter.

    Raised when a backend's name is recognised but its implementation
    is missing — e.g. ``native`` requested while the C extension was
    never compiled.  Distinct from the plain :class:`ValueError` of an
    *unknown* name so callers can tell "typo" from "not built here";
    subclasses :class:`ValueError` so untyped callers keep working.
    """

    def __init__(self, kernel: str, reason: str) -> None:
        super().__init__(
            f"kernel {kernel!r} is unavailable on this interpreter: {reason}"
        )
        self.kernel = kernel
        self.reason = reason


def words_per_row(n_bits: int) -> int:
    """Number of 64-bit words needed for an ``n_bits`` universe."""
    return (n_bits + 63) // 64


def words_from_tensor(data: np.ndarray) -> np.ndarray:
    """Pack an ``(l, n, m)`` bool tensor into ``(l, n, words)`` uint64 words.

    The layout is the library-wide little-endian convention: bit ``j``
    of row ``(k, i)`` lives in word ``j // 64`` at bit ``j % 64``.  This
    is the canonical byte-for-byte representation published through
    shared memory, independent of the kernel that will consume it.
    """
    l, n, m = data.shape
    words = words_per_row(m)
    bits = np.packbits(data, axis=-1, bitorder="little")
    padded = np.zeros((l, n, words * 8), dtype=np.uint8)
    padded[:, :, : bits.shape[2]] = bits
    return padded.view(WORD_DTYPE)


def tensor_from_words(words_arr: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Unpack ``(l, n, words)`` uint64 words back into an ``(l, n, m)`` bool
    tensor (inverse of :func:`words_from_tensor`)."""
    l, n, m = shape
    if m == 0 or l == 0 or n == 0:
        return np.zeros(shape, dtype=bool)
    raw = np.ascontiguousarray(words_arr, dtype=WORD_DTYPE).view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, bitorder="little", count=m)
    return bits.astype(bool)


def release_mapped_pages(array: np.ndarray) -> bool:
    """Drop the resident pages of a memory-mapped array (best effort).

    Walks ``array``'s base chain to the underlying :class:`numpy.memmap`
    (views created by slicing or ``setflags`` keep the mapping as their
    base) and advises the kernel the pages are no longer needed.  The
    data stays valid — the next access simply faults back in from disk —
    so out-of-core scans can touch an arbitrarily large mapping while
    keeping their resident set bounded to the pages between two release
    calls.  Returns ``False`` (and changes nothing) when ``array`` is
    not file-backed or the platform lacks ``madvise``.
    """
    import mmap as _mmap

    node = array
    while node is not None:
        mapping = getattr(node, "_mmap", None)
        if mapping is not None:
            try:
                mapping.madvise(_mmap.MADV_DONTNEED)
            except (AttributeError, ValueError, OSError):
                return False
            return True
        node = getattr(node, "base", None)
    return False


class Kernel(ABC):
    """Interchangeable batch-bitset backend.

    All masks crossing the interface are non-negative Python ints with
    bit ``i`` set when index ``i`` belongs to the set.  Subclasses must
    be stateless (one shared instance serves every caller) and define a
    unique class-level ``name`` used by the registry.
    """

    name: ClassVar[str]

    #: True when this kernel's mask-array and grid handles natively *are*
    #: the little-endian packed-uint64 word arrays of
    #: :func:`words_from_tensor` — such a kernel can adopt a
    #: shared-memory word buffer as a handle without copying.
    words_native: ClassVar[bool] = False

    # ------------------------------------------------------------------
    # Mask arrays (1D)
    # ------------------------------------------------------------------
    @abstractmethod
    def pack_masks(self, masks: Sequence[int], n_bits: int) -> Any:
        """Build a handle for ``masks``, each over a ``n_bits`` universe."""

    @abstractmethod
    def unpack_masks(self, handle: Any) -> list[int]:
        """Recover the packed masks as plain ints (inverse of pack)."""

    @abstractmethod
    def fold_and(self, handle: Any, n_bits: int, select: int | None = None) -> int:
        """AND of ``masks[i]`` for every ``i`` in ``select``.

        ``select`` is a row-index bitmask (``None`` selects all); an
        empty selection returns the full ``n_bits`` universe.
        """

    @abstractmethod
    def popcounts(self, handle: Any) -> list[int]:
        """Per-mask set sizes, in pack order."""

    @abstractmethod
    def supersets_of(self, handle: Any, sub: int) -> int:
        """Index bitmask of the packed masks that contain ``sub``."""

    def check_packed(self, handle: Any, n_bits: int) -> int:
        """Validate a mask-array handle against its declared universe.

        Returns the row count on success; raises
        :class:`PackedBufferError` when the handle's geometry disagrees
        with ``n_bits`` or any mask carries bits outside the universe.
        Guards handles arriving from untrusted buffers (checkpoint
        journals, shared-memory segments) before they become a
        :class:`~repro.fcp.matrix.BinaryMatrix`.  The generic path
        validates the plain-int masks; words-native backends check the
        word geometry directly without unpacking.
        """
        masks = handle if isinstance(handle, list) else self.unpack_masks(handle)
        for i, mask in enumerate(masks):
            if not isinstance(mask, int):
                raise PackedBufferError(
                    f"row {i} of a {self.name} handle is {type(mask).__name__}, "
                    "expected int"
                )
            if mask < 0 or mask >> n_bits:
                raise PackedBufferError(
                    f"row {i} mask has bits outside the {n_bits}-bit universe"
                )
        return len(masks)

    # ------------------------------------------------------------------
    # Batched primitives (concrete defaults; subclasses may vectorize)
    # ------------------------------------------------------------------
    def and_many(self, handle_a: Any, handle_b: Any, n_bits: int) -> Any:
        """Elementwise AND of two equal-length mask arrays, as a handle.

        The workhorse of incremental representative-slice folding: one
        call extends a partial fold by one height slice without
        unpacking to Python ints.  The generic path does round-trip;
        both shipped backends override it.
        """
        masks_a = self.unpack_masks(handle_a)
        masks_b = self.unpack_masks(handle_b)
        if len(masks_a) != len(masks_b):
            raise ValueError(
                f"and_many needs equal-length mask arrays, "
                f"got {len(masks_a)} and {len(masks_b)}"
            )
        return self.pack_masks(
            [a & b for a, b in zip(masks_a, masks_b)], n_bits
        )

    def intersect_rows(self, grid: Any, heights: int, n_bits: int) -> Any:
        """Per-row AND over the selected heights, as a mask-array handle.

        The handle-returning sibling of :meth:`grid_fold_rows`: RSM's
        representative-slice construction feeds the result straight
        into a :class:`~repro.fcp.matrix.BinaryMatrix` without an
        int round-trip on backends whose handles are not int lists.
        An empty selection yields full-universe masks.
        """
        return self.pack_masks(
            self.grid_fold_rows(grid, heights, n_bits), n_bits
        )

    def grid_slice_rows(self, grid: Any, height: int, n_bits: int) -> Any:
        """One height slice of the grid as a mask-array handle.

        Seeds the incremental fold of :meth:`intersect_rows` /
        :meth:`and_many` chains.  The generic path goes through
        :meth:`grid_fold_rows` with a singleton selection.
        """
        return self.pack_masks(
            self.grid_fold_rows(grid, 1 << height, n_bits), n_bits
        )

    # ------------------------------------------------------------------
    # Dataset grids (l heights x n rows of column masks)
    # ------------------------------------------------------------------
    @abstractmethod
    def pack_grid(self, masks: Sequence[Sequence[int]], n_bits: int) -> Any:
        """Build a grid handle from ``masks[k][i]`` column bitmasks."""

    def pack_grid_from_tensor(self, data: np.ndarray) -> Any:
        """Build a grid handle straight from an ``(l, n, m)`` bool tensor.

        The generic path packs each row through numpy and defers to
        :meth:`pack_grid`; subclasses may shortcut it.
        """
        l, n, m = data.shape
        grid: list[list[int]] = []
        for k in range(l):
            row_masks = []
            for i in range(n):
                packed = np.packbits(data[k, i], bitorder="little").tobytes()
                row_masks.append(int.from_bytes(packed, "little"))
            grid.append(row_masks)
        return self.pack_grid(grid, m)

    @abstractmethod
    def grid_fold_and(self, grid: Any, heights: int, rows: int, n_bits: int) -> int:
        """AND of ``grid[k][i]`` over ``k in heights, i in rows``.

        The paper's ``C(H' x R')`` operator; an empty height or row
        selection returns the full column universe.
        """

    @abstractmethod
    def grid_fold_rows(self, grid: Any, heights: int, n_bits: int) -> list[int]:
        """Representative-slice folding: per-row AND over ``heights``.

        Returns one column mask per grid row — the row masks of the
        representative slice of the selected height subset.  An empty
        selection yields full-universe masks (empty intersection).
        """

    @abstractmethod
    def grid_supporting_heights(
        self, grid: Any, rows: int, columns: int, candidates: int | None = None
    ) -> int:
        """Heights whose slices contain ``columns`` on every row of ``rows``.

        The paper's ``H(R' x C')`` operator restricted to ``candidates``
        (``None`` = all heights).  With ``rows`` empty every candidate
        qualifies.
        """

    @abstractmethod
    def grid_supporting_rows(
        self, grid: Any, heights: int, columns: int, candidates: int | None = None
    ) -> int:
        """Rows containing ``columns`` on every height of ``heights``.

        The paper's ``R(H' x C')`` operator restricted to ``candidates``.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
