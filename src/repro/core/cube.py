"""The cube value object.

A :class:`Cube` is an index-level triple of bitmasks ``(heights, rows,
columns)`` identifying the sub-tensor ``H' x R' x C'`` of a dataset.  It
is deliberately dataset-agnostic: the same object can describe a pattern
in any tensor of compatible shape, and rendering with labels is done via
:meth:`Cube.format` against a concrete :class:`~repro.core.dataset.Dataset3D`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bit_count, indices, is_subset
from .dataset import Dataset3D

__all__ = ["Cube"]


@dataclass(frozen=True, slots=True)
class Cube:
    """A sub-cube ``(H', R', C')`` encoded as three bitmasks."""

    heights: int
    rows: int
    columns: int

    def __post_init__(self) -> None:
        if self.heights < 0 or self.rows < 0 or self.columns < 0:
            raise ValueError("cube masks must be non-negative integers")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_indices(
        cls,
        heights: tuple[int, ...] | list[int] | set[int],
        rows: tuple[int, ...] | list[int] | set[int],
        columns: tuple[int, ...] | list[int] | set[int],
    ) -> "Cube":
        """Build a cube from explicit index collections."""
        from .bitset import mask_of

        return cls(mask_of(heights), mask_of(rows), mask_of(columns))

    @classmethod
    def from_labels(
        cls,
        dataset: Dataset3D,
        heights: str | list[str],
        rows: str | list[str],
        columns: str | list[str],
    ) -> "Cube":
        """Build a cube from axis labels.

        Each argument is either a list of labels or a single
        space-separated string, e.g. ``Cube.from_labels(ds, "h1 h3",
        "r1 r2 r3", "c1 c2 c3")``.
        """

        def resolve(labels: str | list[str], universe: tuple[str, ...]) -> int:
            if isinstance(labels, str):
                labels = labels.split()
            mask = 0
            for label in labels:
                try:
                    mask |= 1 << universe.index(label)
                except ValueError:
                    raise KeyError(f"unknown label {label!r}") from None
            return mask

        return cls(
            resolve(heights, dataset.height_labels),
            resolve(rows, dataset.row_labels),
            resolve(columns, dataset.column_labels),
        )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def h_support(self) -> int:
        """Number of heights — ``|H'|``, the paper's H-Support."""
        return bit_count(self.heights)

    @property
    def r_support(self) -> int:
        """Number of rows — ``|R'|``, the paper's R-Support."""
        return bit_count(self.rows)

    @property
    def c_support(self) -> int:
        """Number of columns — ``|C'|``, the paper's C-Support."""
        return bit_count(self.columns)

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(|H'|, |R'|, |C'|)``, the size of the sub-tensor."""
        return (self.h_support, self.r_support, self.c_support)

    @property
    def volume(self) -> int:
        """Number of cells covered by the cube."""
        return self.h_support * self.r_support * self.c_support

    def is_empty(self) -> bool:
        """True when any dimension set is empty."""
        return self.heights == 0 or self.rows == 0 or self.columns == 0

    # ------------------------------------------------------------------
    # Set relations
    # ------------------------------------------------------------------
    def satisfies(self, thresholds) -> bool:
        """True when the cube meets every minimum of ``thresholds``.

        The dual of :meth:`Thresholds.satisfied_by
        <repro.core.constraints.Thresholds.satisfied_by>`, phrased from
        the cube's side — the filtering primitive of the
        threshold-lattice result cache: a result mined at loose
        thresholds answers a tighter query by keeping exactly the cubes
        for which ``cube.satisfies(tight)`` holds.
        """
        return thresholds.admits(self.h_support, self.r_support, self.c_support)

    def contains(self, other: "Cube") -> bool:
        """True when ``other`` is a sub-cube of this one (all three axes)."""
        return (
            is_subset(other.heights, self.heights)
            and is_subset(other.rows, self.rows)
            and is_subset(other.columns, self.columns)
        )

    def height_indices(self) -> tuple[int, ...]:
        return indices(self.heights)

    def row_indices(self) -> tuple[int, ...]:
        return indices(self.rows)

    def column_indices(self) -> tuple[int, ...]:
        return indices(self.columns)

    # ------------------------------------------------------------------
    # Ordering & rendering
    # ------------------------------------------------------------------
    def sort_key(self) -> tuple[int, int, int]:
        """A canonical total order used to stabilize result listings."""
        return (self.heights, self.rows, self.columns)

    def format(self, dataset: Dataset3D | None = None, *, with_supports: bool = True) -> str:
        """Render the cube in the paper's notation.

        With a dataset, labels are used: ``h1h3 : r1r2r3 : c1c2c3, 2:3:3``.
        Without one, indices are rendered 1-based to match the paper.
        """
        if dataset is not None:
            hs = "".join(dataset.height_labels[i] for i in self.height_indices())
            rs = "".join(dataset.row_labels[i] for i in self.row_indices())
            cs = "".join(dataset.column_labels[i] for i in self.column_indices())
        else:
            hs = "".join(f"h{i + 1}" for i in self.height_indices())
            rs = "".join(f"r{i + 1}" for i in self.row_indices())
            cs = "".join(f"c{i + 1}" for i in self.column_indices())
        text = f"{hs} : {rs} : {cs}"
        if with_supports:
            text += f", {self.h_support}:{self.r_support}:{self.c_support}"
        return text

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return (
            f"Cube(heights={self.height_indices()}, rows={self.row_indices()}, "
            f"columns={self.column_indices()})"
        )
