"""Closure operators on 3D binary datasets.

These implement the paper's support-set operators (Definition 3.1):

* ``H(R' x C')`` — the maximal set of heights simultaneously containing
  the rows ``R'`` and columns ``C'`` (:func:`height_support`),
* ``R(H' x C')`` — :func:`row_support`,
* ``C(H' x R')`` — :func:`column_support`,

together with the closed-cube predicate of Definition 3.2 and a fixpoint
``close`` operator that grows a seed cube to a closed one.

All set arguments and return values are integer bitmasks
(see :mod:`repro.core.bitset`); the batch work — one fold or subset
sweep over the dataset's (height, row) mask grid per operator call —
runs on the dataset's kernel backend (:mod:`repro.core.kernels`).
"""

from __future__ import annotations

from .bitset import full_mask, is_subset, iter_bits
from .cube import Cube
from .dataset import Dataset3D

__all__ = [
    "ClosureCache",
    "PackedAxis",
    "ZeroLayout",
    "node_creps",
    "resolve_closure_cache",
    "column_support",
    "row_support",
    "height_support",
    "is_all_ones",
    "is_closed_cube",
    "close",
]

#: Default entry budget for :class:`ClosureCache`'s support entries —
#: comfortably above the support queries a typical run issues, so
#: eviction only triggers under an explicit bound.
DEFAULT_CACHE_ENTRIES = 1 << 16

#: Elements of the opposite axis per OR-table of a :class:`PackedAxis`.
CHUNK_BITS = 4
_CHUNK_MASK = (1 << CHUNK_BITS) - 1

#: Columns per block of a :class:`PackedAxis`.  A check reads the
#: first block and goes on only while some outside element has no zero
#: there, so its cost stops growing with the column count.
BLOCK_COLUMNS = 256


def _span(n_columns: int) -> int:
    """Columns per block of a tensor with ``n_columns`` columns."""
    return max(1, min(n_columns, BLOCK_COLUMNS))


def _segment_ones(n_elements: int, width: int) -> int:
    """Bit 0 of each of ``n_elements`` ``width``-bit segments."""
    return ((1 << (n_elements * width)) - 1) // ((1 << width) - 1)


def _replicate(columns: int, inside: int, ones: int, span: int) -> int:
    """The first block of ``columns`` times ``ones``, plus the flags of
    the ``inside`` mask."""
    width = span + 2
    crep = (columns & ((1 << span) - 1)) * ones
    for e in iter_bits(inside):
        crep |= 1 << (e * width + span)
    return crep


def node_creps(
    dataset: Dataset3D, heights: int, rows: int, columns: int
) -> tuple[int, int]:
    """``(crep_h, crep_r)`` of the node ``(heights, rows, columns)``.

    The creps of :class:`PackedAxis` (see :meth:`PackedAxis.crep`) for
    the height and the row axis.  They depend on nothing but the shape,
    so a node's creps can be built, and shipped to another process,
    without the layout itself.
    """
    l, n, m = dataset.shape
    span = _span(m)
    return (
        _replicate(columns, heights, _segment_ones(l, span + 2), span),
        _replicate(columns, rows, _segment_ones(n, span + 2), span),
    )


class PackedAxis:
    """Zero columns of one axis' elements, packed for few-shot checks.

    The columns are cut into blocks of ``span`` (at most
    :data:`BLOCK_COLUMNS`).  Within a block, element ``e`` of the
    checked axis (a height for Lemma 4, a row for Lemma 5) owns the
    ``width = span + 2`` bit segment starting at bit ``e * width``: bits
    ``0..span-1`` hold the block's columns where ``e`` has a zero inside
    the node's opposite-axis set, bit ``span`` is the element's flag and
    bit ``span + 1`` is a guard.

    ``blocks`` holds one ``(first_column, chunks)`` pair per block, and
    ``chunks`` one ``(shift, table)`` pair per :data:`CHUNK_BITS`
    elements of the opposite axis: ``table[s]`` is the packed union of
    the block's zero columns of the opposite elements in nibble ``s`` at
    that shift, with every flag set.  ORing one entry per chunk gives
    ``U``, the zero union over any opposite set.

    A node is closed along the axis iff every segment of ``U & crep`` is
    nonzero below its guard in some block, where ``crep`` is the node's
    block columns replicated into every segment plus the flags of the
    elements already known to pass: an outside element passes only
    through a zero inside the node region.  Adding ``low`` carries into
    exactly the guards of the nonzero segments, so one block's check is
    ``((U & crep) + low) & guard``.  The first block's ``crep``
    (:meth:`crep`) carries the flags of the node's own elements; a later
    block's carries the flags of every element passed so far, and the
    check stops at the first block where all have passed.

    Cost: with ``k`` elements and ``o`` opposite elements, the tables
    hold about half a byte per tensor cell, and a block's check ORs
    ``ceil(o / 4)`` ints of ``k * (span + 2)`` bits.  A check that every
    outside element passes in the first block costs ``O(k * o * span)``
    bit operations however wide the tensor; an unclosed node reads every
    block the node has columns in.
    """

    __slots__ = ("span", "flags", "rep", "low", "guard", "blocks")

    def __init__(
        self, zeros: list[list[int]], n_elements: int, n_columns: int
    ) -> None:
        """``zeros[o][e]``: zero columns of element ``e`` at opposite ``o``."""
        span = self.span = _span(n_columns)
        width = span + 2
        self.flags = [1 << (e * width + span) for e in range(n_elements)]
        self.rep = _segment_ones(n_elements, width)
        all_flags = sum(self.flags)
        self.low = ((1 << (span + 1)) - 1) * self.rep
        self.guard = all_flags << 1
        span_mask = (1 << span) - 1
        blocks = []
        for first in range(0, max(n_columns, 1), span):
            packed = [
                sum(
                    (z >> first & span_mask) << (e * width)
                    for e, z in enumerate(per_opposite)
                )
                for per_opposite in zeros
            ]
            chunks = []
            for shift in range(0, max(len(packed), 1), CHUNK_BITS):
                values = packed[shift : shift + CHUNK_BITS]
                values += [0] * (CHUNK_BITS - len(values))
                table = [all_flags]
                for value in values:  # bit j of the index selects values[j]
                    table += [entry | value for entry in table]
                chunks.append((shift, tuple(table)))
            blocks.append((first, tuple(chunks)))
        self.blocks = tuple(blocks)

    def crep(self, inside: int, columns: int) -> int:
        """First-block ``columns`` in every segment plus the flags of
        ``inside``."""
        return _replicate(columns, inside, self.rep, self.span)

    def keep(self, columns: int) -> int:
        """AND mask removing ``columns`` from every segment of a crep."""
        return ~((columns & ((1 << self.span) - 1)) * self.rep)

    def closed(self, opposite: int, crep: int, columns: int) -> bool:
        """No element outside the crep's flags covers the node region.

        ``crep`` is :meth:`crep` of the node's own elements and its
        ``columns``.
        """
        guard = self.guard
        hit = 0
        for first, chunks in self.blocks:
            if first:
                part = columns >> first & ((1 << self.span) - 1)
                if not part:
                    continue
                crep = part * self.rep | hit >> 1
            union = 0
            for shift, table in chunks:
                union |= table[opposite >> shift & _CHUNK_MASK]
            hit = ((union & crep) + self.low) & guard
            if hit == guard:
                return True
        return False


class ZeroLayout:
    """The two packed zero layouts CubeMiner's closure checks read.

    ``heights`` segments the heights over row chunks (Lemma 4,
    Hcheck); ``rows`` segments the rows over height chunks (Lemma 5,
    Rcheck).
    """

    __slots__ = ("heights", "rows")

    def __init__(self, dataset: Dataset3D) -> None:
        universe = full_mask(dataset.n_columns)
        zeros = [
            [universe & ~mask for mask in per_height]
            for per_height in dataset.ones_masks()
        ]
        l, n, m = dataset.shape
        by_row = [[zeros[k][i] for k in range(l)] for i in range(n)]
        self.heights = PackedAxis(by_row, l, m)
        self.rows = PackedAxis(zeros, n, m)


class ClosureCache:
    """Closure work shared across one dataset's queries.

    Two kinds of state, rebuilt whenever the cache is handed a different
    dataset:

    * **The packed zero layout** (:class:`ZeroLayout`) — built on the
      first closure check, it answers CubeMiner's Lemma 4-5 checks
      (:meth:`height_set_closed`, :meth:`row_set_closed`) with one
      table lookup and OR per four opposite elements instead of a loop
      over the elements outside the node.  It takes about one byte per
      tensor cell for both axes.  Each check answered from it counts
      one hit; each axis layout built counts one miss.
    * **Support entries** — keyed by an axis tag and the opposing pair of
      set fingerprints, memoizing the full ``H(R' x C')`` / ``R(H' x
      C')`` / ``C(H' x R')`` support sets for the closure operators.
      At most ``max_entries`` are kept; eviction is FIFO, so a bounded
      cache degrades to recomputation — never to different answers.

    ``hits`` / ``misses`` / ``evictions`` counters are folded into
    :class:`~repro.obs.metrics.MiningMetrics` by the miners.
    """

    __slots__ = (
        "max_entries",
        "hits",
        "misses",
        "evictions",
        "_dataset",
        "_layout",
        "_supports",
    )

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._dataset: Dataset3D | None = None
        self._layout: ZeroLayout | None = None
        self._supports: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _bind(self, dataset: Dataset3D) -> None:
        self._layout = None
        self._supports.clear()
        self._dataset = dataset

    def clear(self) -> None:
        """Drop every support entry (counters keep accumulating)."""
        self._supports.clear()

    def __len__(self) -> int:
        return len(self._supports)

    def counters(self) -> tuple[int, int, int]:
        """Snapshot of ``(hits, misses, evictions)`` — for delta folding."""
        return (self.hits, self.misses, self.evictions)

    # ------------------------------------------------------------------
    # Packed closure checks (Lemmas 4-5)
    # ------------------------------------------------------------------
    def layout(self, dataset: Dataset3D) -> ZeroLayout:
        """The packed zero layout of ``dataset``, built on first use."""
        if self._dataset is not dataset:
            self._bind(dataset)
        layout = self._layout
        if layout is None:
            layout = self._layout = ZeroLayout(dataset)
            self.misses += 2
        return layout

    def height_set_closed(
        self, dataset: Dataset3D, heights: int, rows: int, columns: int
    ) -> bool:
        """Hcheck: True when no height outside ``heights`` covers R' x C'."""
        axis = self.layout(dataset).heights
        self.hits += 1
        return axis.closed(rows, axis.crep(heights, columns), columns)

    def row_set_closed(
        self, dataset: Dataset3D, heights: int, rows: int, columns: int
    ) -> bool:
        """Rcheck: True when no row outside ``rows`` covers H' x C'."""
        axis = self.layout(dataset).rows
        self.hits += 1
        return axis.closed(heights, axis.crep(rows, columns), columns)

    # ------------------------------------------------------------------
    # Memoized support operators
    # ------------------------------------------------------------------
    def _memoized(self, dataset: Dataset3D, key: tuple, compute) -> int:
        if self._dataset is not dataset:
            self._bind(dataset)
        supports = self._supports
        value = supports.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        if len(supports) >= self.max_entries:
            supports.pop(next(iter(supports)))
            self.evictions += 1
        supports[key] = value
        return value

    def height_support(self, dataset: Dataset3D, rows: int, columns: int) -> int:
        return self._memoized(
            dataset,
            ("H", rows, columns),
            lambda: dataset.kernel.grid_supporting_heights(
                dataset.ones_grid(), rows, columns
            ),
        )

    def row_support(self, dataset: Dataset3D, heights: int, columns: int) -> int:
        return self._memoized(
            dataset,
            ("R", heights, columns),
            lambda: dataset.kernel.grid_supporting_rows(
                dataset.ones_grid(), heights, columns
            ),
        )

    def column_support(self, dataset: Dataset3D, heights: int, rows: int) -> int:
        return self._memoized(
            dataset,
            ("C", heights, rows),
            lambda: dataset.kernel.grid_fold_and(
                dataset.ones_grid(), heights, rows, dataset.n_columns
            ),
        )

    def __repr__(self) -> str:
        return (
            f"ClosureCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


def resolve_closure_cache(
    spec: "ClosureCache | int | None", *, default_entries: int = DEFAULT_CACHE_ENTRIES
) -> ClosureCache | None:
    """Normalize a miner's ``closure_cache`` argument.

    ``None`` builds a fresh default cache (memoization is on by
    default), a positive int bounds a fresh cache to that many entries,
    ``0`` (or any non-positive int) disables caching, and a
    :class:`ClosureCache` instance is used as-is (sharing/pre-warming).
    """
    if spec is None:
        return ClosureCache(max_entries=default_entries)
    if isinstance(spec, ClosureCache):
        return spec
    if spec <= 0:
        return None
    return ClosureCache(max_entries=spec)


def column_support(
    dataset: Dataset3D, heights: int, rows: int, *, cache: ClosureCache | None = None
) -> int:
    """Return ``C(R' x H')``: columns that are 1 on every (height, row) pair.

    For empty ``heights`` or ``rows`` the intersection runs over an empty
    family and therefore returns the full column universe; callers that
    need a different convention must special-case empty inputs.
    """
    if cache is not None:
        return cache.column_support(dataset, heights, rows)
    return dataset.kernel.grid_fold_and(
        dataset.ones_grid(), heights, rows, dataset.n_columns
    )


def height_support(
    dataset: Dataset3D, rows: int, columns: int, *, cache: ClosureCache | None = None
) -> int:
    """Return ``H(R' x C')``: heights whose slices are all-ones on R' x C'."""
    if cache is not None:
        return cache.height_support(dataset, rows, columns)
    return dataset.kernel.grid_supporting_heights(dataset.ones_grid(), rows, columns)


def row_support(
    dataset: Dataset3D, heights: int, columns: int, *, cache: ClosureCache | None = None
) -> int:
    """Return ``R(H' x C')``: rows that are all-ones on H' x C'."""
    if cache is not None:
        return cache.row_support(dataset, heights, columns)
    return dataset.kernel.grid_supporting_rows(dataset.ones_grid(), heights, columns)


def is_all_ones(
    dataset: Dataset3D, cube: Cube, *, cache: ClosureCache | None = None
) -> bool:
    """True when every cell covered by ``cube`` holds 1 (a *complete* cube)."""
    return is_subset(
        cube.columns, column_support(dataset, cube.heights, cube.rows, cache=cache)
    )


def is_closed_cube(
    dataset: Dataset3D, cube: Cube, *, cache: ClosureCache | None = None
) -> bool:
    """Definition 3.2: the cube is complete and maximal in all three axes.

    Empty cubes are never closed here: the paper's support thresholds are
    at least 1 in any meaningful configuration, and treating the empty
    cube as closed would only complicate every caller.
    """
    if cube.is_empty():
        return False
    if not is_all_ones(dataset, cube, cache=cache):
        return False
    return (
        cube.heights == height_support(dataset, cube.rows, cube.columns, cache=cache)
        and cube.rows == row_support(dataset, cube.heights, cube.columns, cache=cache)
        and cube.columns == column_support(dataset, cube.heights, cube.rows, cache=cache)
    )


def close(
    dataset: Dataset3D,
    cube: Cube,
    max_iterations: int = 64,
    *,
    cache: ClosureCache | None = None,
) -> Cube:
    """Grow ``cube`` to a fixpoint of the three support operators.

    The input must be complete (all ones); the result is then a closed
    cube containing it.  Each pass recomputes the three support sets from
    the current pair of the other two axes; the sets only ever grow, so
    the loop terminates.  ``max_iterations`` is a safety valve against
    implementation bugs, not a tuning knob.  ``cache`` memoizes the
    support queries — repeated closures over one dataset (e.g. RSM's
    Lemma-1 phase, result auditing) reuse each other's work.
    """
    if cube.is_empty():
        raise ValueError("cannot close an empty cube")
    if not is_all_ones(dataset, cube, cache=cache):
        raise ValueError("cannot close a cube that covers zero cells")
    heights, rows, columns = cube.heights, cube.rows, cube.columns
    for _ in range(max_iterations):
        new_heights = height_support(dataset, rows, columns, cache=cache)
        new_rows = row_support(dataset, new_heights, columns, cache=cache)
        new_columns = column_support(dataset, new_heights, new_rows, cache=cache)
        if (new_heights, new_rows, new_columns) == (heights, rows, columns):
            return Cube(heights, rows, columns)
        heights, rows, columns = new_heights, new_rows, new_columns
    raise RuntimeError("closure did not converge — this indicates a bug")
