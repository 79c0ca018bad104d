"""Three-dimensional binary datasets.

A :class:`Dataset3D` wraps an ``l x n x m`` boolean tensor
``O = H x R x C`` (heights, rows, columns — the paper's notation) and
provides the derived structures the miners need:

* per-(height, row) column bitmasks of the one-cells and zero-cells,
* axis transposition (CubeMiner's preprocessing makes the column axis
  the largest one),
* height-slice reordering (the zero-decreasing / zero-increasing
  optimization of Section 7.1.1),
* text and NPZ (de)serialization.

Cells are addressed ``data[k, i, j]`` with ``k`` a height, ``i`` a row,
``j`` a column, matching ``O_{k,i,j}`` in the paper.
"""

from __future__ import annotations

import functools
import io
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .bitset import full_mask
from .kernels import (
    KERNEL,
    PackedBufferError,
    check_words,
    masks_from_words,
    release_mapped_pages,
    tensor_from_words,
    words_from_tensor,
    words_per_row,
)

__all__ = ["Dataset3D", "AXIS_NAMES"]

#: Canonical axis order used throughout the library.
AXIS_NAMES = ("height", "row", "column")

_DEFAULT_PREFIX = {"height": "h", "row": "r", "column": "c"}


@functools.lru_cache(maxsize=64)
def _default_labels(axis: str, n: int) -> tuple[str, ...]:
    # Cached: every dataset built from words (each shm attach) needs them.
    prefix = _DEFAULT_PREFIX[axis]
    return tuple(f"{prefix}{i + 1}" for i in range(n))


class Dataset3D:
    """An immutable 3D boolean context ``H x R x C``.

    Parameters
    ----------
    data:
        Anything convertible to a boolean ``numpy`` array of rank 3 with
        axis order (height, row, column).  Values must be 0/1 (or bool).
    height_labels, row_labels, column_labels:
        Optional human-readable names per index.  Defaults to the paper's
        ``h1..hl`` / ``r1..rn`` / ``c1..cm`` convention.

    A dataset built from packed words (:meth:`from_packed_grid`,
    :meth:`open_mmap`) keeps those words as its storage: the boolean
    tensor materializes only if a caller asks for :attr:`data`.
    """

    __slots__ = (
        "_data",
        "_words",
        "_shape",
        "_height_labels",
        "_row_labels",
        "_column_labels",
        "_ones_masks",
        "_zeros_masks",
    )

    def __init__(
        self,
        data: Sequence | np.ndarray,
        *,
        height_labels: Sequence[str] | None = None,
        row_labels: Sequence[str] | None = None,
        column_labels: Sequence[str] | None = None,
    ) -> None:
        array = np.asarray(data)
        if array.ndim != 3:
            raise ValueError(f"expected a rank-3 tensor, got rank {array.ndim}")
        if array.dtype != np.bool_:
            unique = np.unique(array)
            if not np.isin(unique, (0, 1)).all():
                raise ValueError(
                    "dataset cells must be boolean or 0/1, found values "
                    f"{unique[:10].tolist()}"
                )
            array = array.astype(bool)
        self._data = array
        self._data.setflags(write=False)
        self._words: np.ndarray | None = None
        self._shape = tuple(int(d) for d in array.shape)
        l, n, m = array.shape
        self._height_labels = self._check_labels("height", height_labels, l)
        self._row_labels = self._check_labels("row", row_labels, n)
        self._column_labels = self._check_labels("column", column_labels, m)
        self._ones_masks: list[list[int]] | None = None
        self._zeros_masks: list[list[int]] | None = None

    @staticmethod
    def _check_labels(
        axis: str, labels: Sequence[str] | None, expected: int
    ) -> tuple[str, ...]:
        if labels is None:
            return _default_labels(axis, expected)
        labels = tuple(str(label) for label in labels)
        if len(labels) != expected:
            raise ValueError(
                f"{axis} labels have length {len(labels)}, expected {expected}"
            )
        if len(set(labels)) != len(labels):
            raise ValueError(f"{axis} labels must be unique")
        return labels

    # ------------------------------------------------------------------
    # Basic shape / access
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying read-only boolean array of shape ``(l, n, m)``.

        Datasets built over a packed word grid
        (:meth:`from_packed_grid`, e.g. zero-copy shared-memory views)
        materialize the tensor lazily on first access.
        """
        if self._data is None:
            tensor = tensor_from_words(self._words, self._shape)
            tensor.setflags(write=False)
            self._data = tensor
        return self._data

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(n_heights, n_rows, n_columns)``."""
        return self._shape  # type: ignore[return-value]

    @property
    def n_heights(self) -> int:
        return self._shape[0]

    @property
    def n_rows(self) -> int:
        return self._shape[1]

    @property
    def n_columns(self) -> int:
        return self._shape[2]

    @property
    def height_labels(self) -> tuple[str, ...]:
        return self._height_labels

    @property
    def row_labels(self) -> tuple[str, ...]:
        return self._row_labels

    @property
    def column_labels(self) -> tuple[str, ...]:
        return self._column_labels

    def labels_for_axis(self, axis: int | str) -> tuple[str, ...]:
        """Return the labels along ``axis`` (index or name)."""
        index = self._axis_index(axis)
        return (self._height_labels, self._row_labels, self._column_labels)[index]

    @staticmethod
    def _axis_index(axis: int | str) -> int:
        if isinstance(axis, str):
            try:
                return AXIS_NAMES.index(axis)
            except ValueError:
                raise ValueError(
                    f"unknown axis {axis!r}, expected one of {AXIS_NAMES}"
                ) from None
        if axis not in (0, 1, 2):
            raise ValueError(f"axis index must be 0, 1 or 2, got {axis}")
        return axis

    def cell(self, k: int, i: int, j: int) -> bool:
        """Return ``O[k, i, j]``."""
        return bool(self.data[k, i, j])

    @property
    def density(self) -> float:
        """Fraction of one-cells in the tensor (0.0 for an empty tensor)."""
        if self.data.size == 0:
            return 0.0
        return float(self.data.mean())

    def count_ones(self) -> int:
        """Total number of one-cells."""
        return int(self.data.sum())

    def zeros_in_height(self, k: int) -> int:
        """Number of zero-cells in height slice ``k`` (used for ordering)."""
        sl = self.data[k]
        return int(sl.size - sl.sum())

    def height_slice(self, k: int) -> np.ndarray:
        """The ``(n, m)`` boolean cells of height slice ``k``.

        A dataset that stores words and has not built its tensor unpacks
        just this slice.
        """
        if self._data is not None:
            return self._data[k]
        _, n, m = self._shape
        return tensor_from_words(self._words[k : k + 1], (1, n, m))[0]

    # ------------------------------------------------------------------
    # Bitmask views (the miners' working representation)
    # ------------------------------------------------------------------
    def ones_grid(self) -> list[list[int]]:
        """The int mask grid ``[k][i]`` the compute kernel runs against.

        Built once per dataset, straight from the packed words when the
        dataset stores words and from the tensor otherwise.  Shared, not
        copied: callers must not mutate it (:meth:`ones_masks` copies).
        """
        if self._ones_masks is None:
            source = self._words
            if source is None:
                source = np.packbits(self._data, axis=-1, bitorder="little")
            self._ones_masks = [masks_from_words(plane) for plane in source]
        return self._ones_masks

    def _zeros_grid(self) -> list[list[int]]:
        if self._zeros_masks is None:
            universe = full_mask(self.n_columns)
            self._zeros_masks = [
                [universe & ~mask for mask in per_height]
                for per_height in self.ones_grid()
            ]
        return self._zeros_masks

    def ones_mask(self, k: int, i: int) -> int:
        """Column bitmask of the one-cells in row ``i`` of height ``k``."""
        return self.ones_grid()[k][i]

    def zeros_mask(self, k: int, i: int) -> int:
        """Column bitmask of the zero-cells in row ``i`` of height ``k``."""
        return self._zeros_grid()[k][i]

    def ones_masks(self) -> list[list[int]]:
        """All one-cell masks, indexed ``[k][i]`` (a fresh copy)."""
        return [list(per_height) for per_height in self.ones_grid()]

    def slice_row_masks(self, k: int) -> list[int]:
        """One-cell masks for every row of height slice ``k``."""
        return list(self.ones_grid()[k])

    def packed_grid(self) -> np.ndarray:
        """The ``(l, n, words)`` packed word grid of the one-cells.

        A dataset that stores words (a memory mapping or a shared-memory
        segment) returns them without a copy, so out-of-core scans stay
        out of core; a tensor-backed one packs a fresh array.
        """
        if self._words is not None:
            return self._words
        return words_from_tensor(self._data)

    # perfbench is the only caller: its traced run binds this method.
    def with_kernel(self, kernel: str | None) -> "Dataset3D":
        if kernel not in (None, KERNEL.name):
            raise ValueError(
                f"unknown kernel {kernel!r}; the only kernel is {KERNEL.name!r}"
            )
        return self

    # ------------------------------------------------------------------
    # Rearrangement
    # ------------------------------------------------------------------
    def transpose(self, order: tuple[int, int, int] | tuple[str, str, str]) -> "Dataset3D":
        """Return a new dataset with axes permuted.

        ``order`` gives, for each new axis position, the current axis that
        should land there — e.g. ``("row", "height", "column")`` swaps the
        height and row axes.
        """
        perm = tuple(self._axis_index(axis) for axis in order)
        if sorted(perm) != [0, 1, 2]:
            raise ValueError(f"order {order!r} is not a permutation of the 3 axes")
        labels = [self.labels_for_axis(axis) for axis in perm]
        return Dataset3D(
            np.transpose(self.data, perm).copy(),
            height_labels=labels[0],
            row_labels=labels[1],
            column_labels=labels[2],
        )

    def canonical_transpose(self) -> "Dataset3D":
        """Permute axes so that ``|H| <= |R| <= |C|``.

        This is CubeMiner's first preprocessing heuristic (Section 5.2):
        making the column axis the largest dimension minimizes the number
        of cutters (one per (height, row) pair with zeros).
        """
        sizes = self.shape
        perm = tuple(int(axis) for axis in np.argsort(sizes, kind="stable"))
        if perm == (0, 1, 2):
            return self
        return self.transpose(perm)  # type: ignore[arg-type]

    def reorder_heights(self, order: Sequence[int]) -> "Dataset3D":
        """Return a new dataset with height slices permuted by ``order``."""
        if sorted(order) != list(range(self.n_heights)):
            raise ValueError(
                f"height order must be a permutation of 0..{self.n_heights - 1}"
            )
        labels = tuple(self._height_labels[k] for k in order)
        return Dataset3D(
            self.data[list(order)].copy(),
            height_labels=labels,
            row_labels=self._row_labels,
            column_labels=self._column_labels,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_cells(
        cls,
        shape: tuple[int, int, int],
        one_cells: Iterable[tuple[int, int, int]],
        **label_kwargs,
    ) -> "Dataset3D":
        """Build a dataset from its shape and the coordinates of one-cells.

        ``one_cells`` may be any iterable of ``(k, i, j)`` triples or an
        ``(N, 3)`` integer array; all cells are set in one fancy-index
        assignment, with numpy's indexing rules (an out-of-range index
        raises ``IndexError``, a negative one counts from the end).
        """
        array = np.zeros(shape, dtype=bool)
        cells = one_cells if isinstance(one_cells, np.ndarray) else np.array(list(one_cells))
        if cells.size:
            if cells.ndim != 2 or cells.shape[1] != 3:
                raise ValueError(f"expected (k, i, j) one-cells, got shape {cells.shape}")
            array[cells[:, 0], cells[:, 1], cells[:, 2]] = True
        return cls(array, **label_kwargs)

    @classmethod
    def from_slices(cls, slices: Sequence[Sequence[Sequence[int]]], **label_kwargs) -> "Dataset3D":
        """Build a dataset from nested lists ``[height][row][column]``."""
        return cls(np.asarray(slices), **label_kwargs)

    @classmethod
    def from_packed_grid(
        cls,
        words: np.ndarray,
        shape: tuple[int, int, int],
        *,
        height_labels: Sequence[str] | None = None,
        row_labels: Sequence[str] | None = None,
        column_labels: Sequence[str] | None = None,
        validate: bool = True,
    ) -> "Dataset3D":
        """Build a dataset over an ``(l, n, words)`` packed uint64 grid.

        ``words`` must use the canonical little-endian layout of
        :func:`repro.core.kernels.words_from_tensor`.  The array becomes
        the dataset's storage without a copy — this is how shared-memory
        attach and memory-mapped opens stay zero-copy: the int mask grid
        is read straight from the words when a miner first needs it,
        and the boolean tensor only if some caller asks for :attr:`data`.
        The grid is validated against ``shape``
        (:class:`~repro.core.kernels.PackedBufferError` on mismatch), so
        a corrupted buffer cannot silently yield garbage cubes.
        ``validate=False`` skips only the stray-tail-bit scan — for
        callers that already validated the buffer chunk-by-chunk (the
        memory-mapped open path, where one whole-array scan would fault
        every page in at once); dtype and shape are always checked.
        """
        l, n, m = (int(d) for d in shape)
        if min(l, n, m) < 0:
            raise ValueError(f"shape {shape!r} has negative dimensions")
        arr = np.asarray(words)
        check_words(arr, m, 3, tail=validate)
        if arr.shape[:2] != (l, n):
            raise PackedBufferError(
                f"packed grid has shape {arr.shape}, expected "
                f"{(l, n, words_per_row(m))} for a dataset of shape {(l, n, m)}"
            )
        grid = arr.view()
        grid.setflags(write=False)
        ds = cls.__new__(cls)
        ds._data = None
        ds._words = grid
        ds._shape = (l, n, m)
        ds._height_labels = cls._check_labels("height", height_labels, l)
        ds._row_labels = cls._check_labels("row", row_labels, n)
        ds._column_labels = cls._check_labels("column", column_labels, m)
        ds._ones_masks = None
        ds._zeros_masks = None
        return ds

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Serialize to the library's dense text format.

        Line 1 holds ``l n m``; then each height slice is ``n`` lines of
        ``m`` space-separated 0/1 values, slices separated by blank lines.
        """
        out = io.StringIO()
        l, n, m = self.shape
        out.write(f"{l} {n} {m}\n")
        for k in range(l):
            for i in range(n):
                out.write(" ".join("1" if v else "0" for v in self.data[k, i]))
                out.write("\n")
            out.write("\n")
        return out.getvalue()

    @classmethod
    def from_text(cls, text: str, **label_kwargs) -> "Dataset3D":
        """Parse the dense text format produced by :meth:`to_text`."""
        tokens = text.split()
        if len(tokens) < 3:
            raise ValueError("dense text must start with 'l n m' header")
        l, n, m = (int(tokens[i]) for i in range(3))
        values = tokens[3:]
        if len(values) != l * n * m:
            raise ValueError(
                f"dense text body holds {len(values)} cells, expected {l * n * m}"
            )
        array = np.array([int(v) for v in values], dtype=np.int8).reshape(l, n, m)
        return cls(array, **label_kwargs)

    def save_npz(self, path: str | Path) -> None:
        """Save the tensor and labels to a compressed ``.npz`` file."""
        np.savez_compressed(
            Path(path),
            data=self.data,
            height_labels=np.array(self._height_labels),
            row_labels=np.array(self._row_labels),
            column_labels=np.array(self._column_labels),
        )

    @classmethod
    def load_npz(cls, path: str | Path) -> "Dataset3D":
        """Load a dataset previously written by :meth:`save_npz`."""
        with np.load(Path(path), allow_pickle=False) as archive:
            return cls(
                archive["data"],
                height_labels=[str(s) for s in archive["height_labels"]],
                row_labels=[str(s) for s in archive["row_labels"]],
                column_labels=[str(s) for s in archive["column_labels"]],
            )

    @classmethod
    def open_mmap(
        cls,
        path: str | Path,
        shape: tuple[int, int, int],
        *,
        height_labels: Sequence[str] | None = None,
        row_labels: Sequence[str] | None = None,
        column_labels: Sequence[str] | None = None,
    ) -> "Dataset3D":
        """Open a packed ``(l, n, words)`` ``.npy`` grid memory-mapped.

        The file must hold the canonical little-endian word layout of
        :func:`repro.core.kernels.words_from_tensor` (what
        :class:`repro.stream.MmapDatasetStore` writes).  The mapping
        becomes the dataset's storage without copying: the out-of-core
        scans (:meth:`packed_grid`, :func:`repro.core.dice.diamond_dice`,
        :func:`repro.stream.outofcore.stream_mine`) fault slices in from
        disk and drop them again
        (:func:`repro.core.kernels.release_mapped_pages`), which is what
        lets RSM mine tensors whose packed size exceeds RAM.  The
        in-memory miners read the int mask grid from the mapping once.

        Validation runs height-slice by height-slice with the pages of
        each slice released after checking, so opening never makes the
        whole file resident at once.
        """
        l, n, m = (int(d) for d in shape)
        words = np.load(Path(path), mmap_mode="r", allow_pickle=False)
        prevalidated = False
        if (
            words.ndim == 3
            and words.dtype == np.dtype("<u8")
            and words.shape == (l, n, words_per_row(m))
        ):
            for k in range(l):
                try:
                    check_words(words[k], m, 2)
                finally:
                    release_mapped_pages(words)
            prevalidated = True
        return cls.from_packed_grid(
            words,
            (l, n, m),
            height_labels=height_labels,
            row_labels=row_labels,
            column_labels=column_labels,
            validate=not prevalidated,
        )

    # ------------------------------------------------------------------
    # Pickling (parallel workers receive datasets through this)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The bitmask caches can dwarf the tensor itself; workers rebuild
        # them lazily, so only the storage (packed words or the tensor)
        # and the labels travel.
        state: dict = {
            "height_labels": self._height_labels,
            "row_labels": self._row_labels,
            "column_labels": self._column_labels,
        }
        if self._words is not None:
            state["words"] = self._words
            state["shape"] = self._shape
        else:
            state["data"] = self._data
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickles of older versions also carry a "kernel" name; it is ignored.
        if "words" in state:
            words = state["words"]
            words.setflags(write=False)
            self._data = None
            self._words = words
            self._shape = tuple(state["shape"])
        else:
            data = state["data"]
            data.setflags(write=False)
            self._data = data
            self._words = None
            self._shape = tuple(int(d) for d in data.shape)
        self._height_labels = state["height_labels"]
        self._row_labels = state["row_labels"]
        self._column_labels = state["column_labels"]
        self._ones_masks = None
        self._zeros_masks = None

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    # Both compare and hash one height slice at a time, so a dataset
    # that stores words (a memory mapping or a shared-memory attach)
    # never builds its whole boolean tensor.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset3D):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._height_labels == other._height_labels
            and self._row_labels == other._row_labels
            and self._column_labels == other._column_labels
            and all(
                np.array_equal(self.height_slice(k), other.height_slice(k))
                for k in range(self.n_heights)
            )
        )

    def __hash__(self) -> int:
        return hash(
            (self.shape,)
            + tuple(hash(self.height_slice(k).tobytes()) for k in range(self.n_heights))
        )

    def __repr__(self) -> str:
        l, n, m = self.shape
        return (
            f"Dataset3D(shape={l}x{n}x{m}, density={self.density:.3f})"
        )
