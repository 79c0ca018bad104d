"""Out-of-core RSM: bounded-memory mining over memory-mapped grids.

:func:`stream_mine` is RSM's base-height loop
(:mod:`repro.rsm.algorithm`) restructured so no step ever needs the
whole tensor resident: representative slices fold chunk-of-rows by
chunk-of-rows straight off the packed word grid — a memory-mapped
``.npy`` from :class:`repro.stream.store.MmapDatasetStore` — and the
mapped pages are released (``madvise(MADV_DONTNEED)``) as soon as each
chunk is folded.  Peak memory is the chunk buffers plus one
representative slice, independent of the tensor's packed size.

For large sparse tensors the 2D mining of full-size representative
slices still dominates, so ``dice=True`` first runs **diamond dicing**
(:func:`repro.core.dice.diamond_dice`, exact for FCC mining) and mines
only the extracted diced subtensor, mapping the masks back so the
result is exactly the FCCs of the original tensor.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.bitset import indices
from ..core.dice import DICE_KEPT_SHAPE, DiceRegion, diamond_dice
from ..core.kernels import WORD_DTYPE, release_mapped_pages, words_per_row
from ..core.result import MiningResult, MiningStats
from ..fcp import FCPMiner
from ..fcp.dminer import DMiner
from ..fcp.matrix import BinaryMatrix
from ..obs.metrics import MiningMetrics
from ..rsm.algorithm import mine_slice, rsm_mine
from ..rsm.slices import min_subset_size, walk_subsets

__all__ = ["stream_mine"]


def _remap_up(mask: int, index: np.ndarray) -> int:
    """Lift a mask over subtensor indices back to original indices."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << int(index[low.bit_length() - 1])
        mask ^= low
    return out


def _extract_region(
    dataset: Dataset3D,
    region: DiceRegion,
    metrics: "MiningMetrics | None",
) -> tuple[Dataset3D, np.ndarray, np.ndarray, np.ndarray]:
    """Materialize the diced subtensor (kept rows unpack one height at a
    time, with mapped pages released in between)."""
    grid = dataset.packed_grid()
    m = dataset.n_columns
    height_index = np.flatnonzero(region.heights)
    row_index = np.flatnonzero(region.rows)
    column_index = np.flatnonzero(region.columns)
    small = np.empty(
        (len(height_index), len(row_index), len(column_index)), dtype=bool
    )
    for a, k in enumerate(height_index):
        selected = grid[k][region.rows]
        bits = np.unpackbits(
            selected.view(np.uint8), axis=1, count=m, bitorder="little"
        )
        small[a] = bits[:, column_index].astype(bool)
        release_mapped_pages(grid)
        if metrics is not None:
            metrics.stream_chunks_read += 1
    labels = (
        [dataset.height_labels[int(i)] for i in height_index],
        [dataset.row_labels[int(i)] for i in row_index],
        [dataset.column_labels[int(i)] for i in column_index],
    )
    diced = Dataset3D(
        small,
        height_labels=labels[0],
        row_labels=labels[1],
        column_labels=labels[2],
    )
    return diced, height_index, row_index, column_index


# ----------------------------------------------------------------------
# The out-of-core miner
# ----------------------------------------------------------------------
def stream_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    dice: bool = False,
    chunk_rows: int = 2048,
    metrics: "MiningMetrics | None" = None,
) -> MiningResult:
    """Mine FCCs with RSM in bounded memory over a (possibly mapped) grid.

    With ``dice=False`` RSM's subset walk runs over the packed grid,
    folding each visited subset's representative slice chunk by chunk;
    with ``dice=True`` the
    diamond-dicing prefilter shrinks the tensor first and only the
    surviving region is mined (exact — see module docstring).  Results
    are bit-identical to ``mine(dataset, thresholds, algorithm="rsm")``
    either way; ``stats.extra["stream"]`` reports the chunk traffic.
    The 2D phase is always D-Miner.
    """
    miner = DMiner()
    if metrics is None:
        metrics = MiningMetrics()
    start = time.perf_counter()
    chunks_before = metrics.stream_chunks_read
    cubes: list[Cube] = []
    extra: dict = {"dice": bool(dice)}

    if not thresholds.feasible_for_shape(dataset.shape):
        pass
    elif dice:
        region = diamond_dice(
            dataset, thresholds, chunk_rows=chunk_rows, metrics=metrics
        )
        extra[DICE_KEPT_SHAPE] = list(region.shape)
        if not region.is_empty() and thresholds.feasible_for_shape(region.shape):
            diced, height_index, row_index, column_index = _extract_region(
                dataset, region, metrics
            )
            inner = rsm_mine(
                diced, thresholds, fcp_miner=miner, metrics=metrics
            )
            cubes = [
                Cube(
                    _remap_up(cube.heights, height_index),
                    _remap_up(cube.rows, row_index),
                    _remap_up(cube.columns, column_index),
                )
                for cube in inner
            ]
    else:
        cubes = _mine_streaming(
            dataset, thresholds, miner, chunk_rows, metrics
        )

    stream_stats = {
        "chunks_read": metrics.stream_chunks_read - chunks_before,
        "chunk_rows": int(chunk_rows),
        **extra,
    }
    return MiningResult(
        cubes=cubes,
        algorithm="stream-rsm[dice]" if dice else "stream-rsm",
        thresholds=thresholds,
        dataset_shape=dataset.shape,
        elapsed_seconds=time.perf_counter() - start,
        stats=MiningStats(metrics=metrics, extra={"stream": stream_stats}),
    )


def _closed_in_words(
    grid: np.ndarray, heights: int, rows: int, columns: int, metrics: MiningMetrics
) -> bool:
    """Lemma 1 on the packed grid: no height outside ``heights`` covers
    ``rows x columns``.  Reads only the pattern's rows of each outside
    height, so the grid stays out of core."""
    metrics.kernel_ops += 1
    l, _, words = grid.shape
    row_index = indices(rows)
    column_words = np.frombuffer(
        columns.to_bytes(words * 8, "little"), dtype=WORD_DTYPE
    )
    for k in range(l):
        if not heights >> k & 1 and not (column_words & ~grid[k, row_index]).any():
            return False
    return True


def _mine_streaming(
    dataset: Dataset3D,
    thresholds: Thresholds,
    miner: FCPMiner,
    chunk_rows: int,
    metrics: MiningMetrics,
) -> list[Cube]:
    """RSM's base-height loop with chunk-folded representative slices.

    The subsets come from RSM's own walk
    (:func:`~repro.rsm.slices.walk_subsets`, same order, same cut test),
    but each slice folds from scratch: sharing AND prefixes between
    parent and child, as :func:`~repro.rsm.slices.iter_size_slices`
    does, would keep a stack of up to ``l`` slices, which is the whole
    tensor.  So the walk folds, and tests, only the subsets it may
    mine.
    """
    l, n, m = dataset.shape
    words = words_per_row(m)
    chunk_rows = max(int(chunk_rows), 1)
    grid = dataset.packed_grid()

    def fold(heights: int, _prefix: "list[int] | None") -> list[int]:
        members = indices(heights)
        rs_words = np.empty((n, words), dtype=WORD_DTYPE)
        for r0 in range(0, n, chunk_rows):
            r1 = min(n, r0 + chunk_rows)
            # Fold member slices one at a time through basic slicing
            # (an advanced index materializes a members-wide copy and,
            # on a mapped grid, faults a whole large folio per member
            # stream), releasing pages every few members — this is
            # what keeps peak RSS below the file size.
            acc = np.array(grid[members[0], r0:r1])
            for i in range(1, len(members)):
                np.bitwise_and(acc, grid[members[i], r0:r1], out=acc)
                if i % 8 == 0:
                    release_mapped_pages(grid)
            rs_words[r0:r1] = acc
            metrics.stream_chunks_read += len(members)
            release_mapped_pages(grid)
        return BinaryMatrix.from_packed(rs_words, m).row_masks()

    cubes: list[Cube] = []
    first = min_subset_size(thresholds, dataset.shape)
    for heights, rows in walk_subsets(
        fold, l, first, thresholds, metrics=metrics, from_scratch=True
    ):
        cubes += mine_slice(
            dataset,
            heights,
            BinaryMatrix(rows, m),
            thresholds,
            miner,
            metrics,
            closed_in=lambda h, r, c: _closed_in_words(grid, h, r, c, metrics),
        )
    return cubes
