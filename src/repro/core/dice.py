"""Diamond dicing: the region of a tensor that can hold a frequent cube.

Diamond dicing (Webb, Kaser & Lemire — see ``PAPERS.md``) iteratively
prunes every height/row/column that provably cannot belong to any
cube meeting ``minH``/``minR``/``minC``, using only count passes over
the packed word grid.  The pruning is exact for FCC mining:

* members of a frequent all-ones cube keep each other qualified in
  every round, so no member of a frequent cube is ever pruned;
* a pruned height can never cover the ``R' x C'`` of a region with
  ``|R'| >= minR`` and ``|C'| >= minC`` inside the kept rows and
  columns — it would have qualified — and the same holds for a pruned
  row or column, so closure checks against the whole tensor give the
  same answers inside the region as they would without the pruning.

CubeMiner starts its search at the diced region
(:func:`repro.cubeminer.algorithm.search_root`) and the out-of-core
RSM (:func:`repro.stream.outofcore.stream_mine` with ``dice=True``)
mines the extracted region.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .bitset import mask_from_bools
from .constraints import Thresholds
from .cube import Cube
from .dataset import Dataset3D
from .kernels import WORD_DTYPE, release_mapped_pages, words_per_row

if TYPE_CHECKING:
    from ..obs.metrics import MiningMetrics

__all__ = ["DICE_KEPT_SHAPE", "DiceRegion", "diamond_dice"]

#: The ``stats.extra`` key under which a diced mine reports the
#: ``[heights, rows, columns]`` shape of the region it kept.
DICE_KEPT_SHAPE = "dice_kept_shape"


class DiceRegion:
    """The surviving region of a diamond-dicing pass.

    ``heights`` / ``rows`` / ``columns`` are boolean keep-vectors over
    the original axes.
    """

    def __init__(
        self, heights: np.ndarray, rows: np.ndarray, columns: np.ndarray
    ) -> None:
        self.heights = heights
        self.rows = rows
        self.columns = columns

    @property
    def shape(self) -> tuple[int, int, int]:
        """Size of the surviving subtensor."""
        return (
            int(self.heights.sum()),
            int(self.rows.sum()),
            int(self.columns.sum()),
        )

    def is_empty(self) -> bool:
        return min(self.shape) == 0

    def as_cube(self) -> Cube:
        """The region as a cube over the original axes."""
        return Cube(
            mask_from_bools(self.heights),
            mask_from_bools(self.rows),
            mask_from_bools(self.columns),
        )


def _pack_keep_columns(keep: np.ndarray, words: int) -> np.ndarray:
    """A boolean column keep-vector as one packed word row."""
    bits = np.packbits(keep, bitorder="little")
    padded = np.zeros(words * 8, dtype=np.uint8)
    padded[: len(bits)] = bits
    return padded.view(WORD_DTYPE)


def diamond_dice(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    chunk_rows: int = 2048,
    metrics: "MiningMetrics | None" = None,
    max_rounds: int = 64,
) -> DiceRegion:
    """Prune every slice that cannot join a threshold-satisfying cube.

    Iterates three necessary conditions to a fixpoint:

    * a row survives when, in at least ``min_h`` surviving heights, it
      holds ``>= min_c`` ones within the surviving columns;
    * a column survives when at least ``min_h`` surviving heights give
      it ``>= min_r`` ones within the surviving rows;
    * a height survives when it has ``>= min_r`` qualifying rows and
      ``>= min_c`` qualifying columns.

    Each pass reads the packed grid one row-chunk at a time and
    releases the mapped pages per height slice, so the resident set
    stays ``O(chunk_rows x words)`` regardless of tensor size.
    """
    l, n, m = dataset.shape
    min_h, min_r, min_c = thresholds.as_tuple()
    grid = dataset.packed_grid()
    words = words_per_row(m)
    kept_h = np.ones(l, dtype=bool)
    kept_r = np.ones(n, dtype=bool)
    kept_c = np.ones(m, dtype=bool)
    chunk_rows = max(int(chunk_rows), 1)

    for _ in range(max_rounds):
        column_words = _pack_keep_columns(kept_c, words)
        row_qualifies = np.zeros(n, dtype=np.int64)
        column_qualifies = np.zeros(m, dtype=np.int64)
        new_kept_h = kept_h.copy()
        for k in range(l):
            if not kept_h[k]:
                continue
            qualifying_rows = 0
            column_sum = np.zeros(m, dtype=np.int64)
            for r0 in range(0, n, chunk_rows):
                r1 = min(n, r0 + chunk_rows)
                block = np.bitwise_and(grid[k, r0:r1], column_words)
                counts = np.bitwise_count(block).sum(axis=1)
                qualifies = (counts >= min_c) & kept_r[r0:r1]
                qualifying_rows += int(qualifies.sum())
                row_qualifies[r0:r1] += qualifies
                selected = block[kept_r[r0:r1]]
                if selected.size:
                    bits = np.unpackbits(
                        selected.view(np.uint8),
                        axis=1,
                        count=m,
                        bitorder="little",
                    )
                    column_sum += bits.sum(axis=0, dtype=np.int64)
                if metrics is not None:
                    metrics.stream_chunks_read += 1
            release_mapped_pages(grid)
            qualifying_columns = column_sum >= min_r
            column_qualifies += qualifying_columns
            new_kept_h[k] = (
                qualifying_rows >= min_r
                and int(qualifying_columns.sum()) >= min_c
            )
        new_kept_r = kept_r & (row_qualifies >= min_h)
        new_kept_c = kept_c & (column_qualifies >= min_h)
        unchanged = (
            bool((new_kept_h == kept_h).all())
            and bool((new_kept_r == kept_r).all())
            and bool((new_kept_c == kept_c).all())
        )
        kept_h, kept_r, kept_c = new_kept_h, new_kept_r, new_kept_c
        if unchanged:
            break
    return DiceRegion(kept_h, kept_r, kept_c)
