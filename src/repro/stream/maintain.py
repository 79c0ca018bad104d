"""Incremental FCC maintenance under arbitrary delta batches.

This module handles any batch of cell edits and slice appends/drops
along any axis (:func:`repro.rsm.incremental.append_height_slice` is a
thin wrapper over it for one height append).  Given the old tensor
``O`` with its *complete* FCC set ``F`` at thresholds ``T``, and a
delta batch producing ``O'`` with dirty height set ``D``
(:func:`repro.stream.delta.apply_deltas`), every FCC of ``O'`` falls in
exactly one of two classes:

1. **Clean-heights cubes** (``H ∩ D = ∅``).  Clean slices are
   bit-identical to their old counterparts over surviving
   rows/columns, so such a cube's region was all-ones in ``O`` too;
   its closure *in the old tensor* is some ``F_old ∈ F``.  Patching
   ``F_old`` — remap its masks through the axis index maps, keep its
   clean heights, swap its dirty heights for the dirty heights that
   cover its (remapped) row×column region in ``O'``, and re-close in
   ``O'`` — lands exactly back on the cube: the patched seed contains
   its region, and no closed cube can strictly contain a closed cube
   (growing rows/columns only shrinks the height support back).  One
   linear pass over ``F`` therefore recovers every clean-heights FCC.
2. **Dirty cubes** (``H ∩ D ≠ ∅``).  RSM produces each FCC exactly
   once, from the height subset equal to its height support — which
   here intersects ``D``.  Re-running RSM restricted to subsets that
   intersect ``D`` finds all of them and skips everything else.

The union of both passes is deduplicated and closure-revalidated by the
parallel layer's :func:`~repro.parallel.sharding.merge_shard_results`,
so the returned result is bit-identical (same canonical cube list) to a
fresh ``mine()`` of ``O'`` — the property the hypothesis differential
suite in ``tests/test_stream_maintain.py`` checks on random batches.

Cost: row/column structure edits dirty every height (full re-mine, by
construction), but the common streaming workload — cell edits and
height appends/drops — re-mines only the subsets through the touched
heights, which ``BENCH_stream.json`` shows is several times cheaper
than mining from scratch.
"""

from __future__ import annotations

import time

from ..core.bitset import bit_count
from ..core.closure import ClosureCache, close
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.result import MiningResult, MiningStats
from ..fcp import FCPMiner, get_fcp_miner
from ..obs.metrics import MiningMetrics
from ..parallel.sharding import merge_shard_results
from ..rsm.algorithm import mine_slice
# Only mine_slice calls it; the binding stays for perfbench/spans.py,
# which times the post-prune layer at this name.
from ..rsm.postprune import height_closed_in  # noqa: F401
from ..rsm.slices import iter_size_slices
from .delta import Delta, DeltaApplication, apply_deltas

__all__ = ["maintain", "IncrementalMaintainer"]


def _remap(mask: int, index_map: tuple) -> int:
    """Map a bitmask through an old→new index map (dropped bits vanish)."""
    out = 0
    while mask:
        low = mask & -mask
        new_index = index_map[low.bit_length() - 1]
        if new_index is not None:
            out |= 1 << new_index
        mask ^= low
    return out


def maintain(
    dataset: Dataset3D,
    result: MiningResult,
    deltas: "list[Delta] | tuple[Delta, ...]",
    thresholds: "Thresholds | None" = None,
    *,
    fcp_miner: "str | FCPMiner" = "dminer",
    metrics: "MiningMetrics | None" = None,
) -> tuple[Dataset3D, MiningResult]:
    """Apply a delta batch and update an FCC result to the new tensor.

    Parameters
    ----------
    dataset:
        The old tensor.  ``result`` must be its *complete* FCC set at
        ``thresholds`` (not validated here; see
        :func:`repro.core.verify.verify_result`) — maintenance patches
        and extends that set, it cannot conjure cubes an incomplete
        input was missing.
    result:
        The old mining result.
    deltas:
        The batch, applied in order
        (:func:`repro.stream.delta.apply_deltas`).
    thresholds:
        Defaults to ``result.thresholds``.

    Returns ``(new_dataset, new_result)`` with ``new_result``
    bit-identical to a fresh ``mine(new_dataset, thresholds)``.
    """
    if thresholds is None:
        thresholds = result.thresholds
    if thresholds is None:
        raise ValueError("thresholds are required (argument or result metadata)")
    miner = get_fcp_miner(fcp_miner) if isinstance(fcp_miner, str) else fcp_miner
    if metrics is None:
        metrics = MiningMetrics()
    start = time.perf_counter()

    application = apply_deltas(dataset, deltas)
    new = application.dataset
    updated = _maintain_applied(
        new, result, application, thresholds, miner, metrics, start
    )
    return new, updated


def _maintain_applied(
    new: Dataset3D,
    result: MiningResult,
    application: DeltaApplication,
    thresholds: Thresholds,
    miner: FCPMiner,
    metrics: MiningMetrics,
    start: float,
) -> MiningResult:
    dirty = application.dirty_heights
    metrics.deltas_applied += application.n_deltas
    cubes_patched = 0
    subsets_remined = 0

    triples: set[tuple[int, int, int]] = set()
    kernel = new.kernel
    grid = new.ones_grid()
    cache = ClosureCache()

    # --- Pass 1: patch the surviving cubes ----------------------------
    for cube in result:
        rows = _remap(cube.rows, application.row_map)
        columns = _remap(cube.columns, application.column_map)
        if rows == 0 or columns == 0:
            continue
        clean = _remap(cube.heights, application.height_map) & ~dirty
        covering = (
            kernel.grid_supporting_heights(grid, rows, columns, candidates=dirty)
            if dirty
            else 0
        )
        heights = clean | covering
        if heights == 0:
            continue
        patched = close(new, Cube(heights, rows, columns), cache=cache)
        triples.add((patched.heights, patched.rows, patched.columns))
        cubes_patched += 1

    # --- Pass 2: re-mine the height subsets touching the dirty set ---
    # The prefix-folded enumerator amortizes slice folds across
    # neighbouring subsets exactly like a fresh RSM run; clean subsets
    # only pay that amortized fold, never the 2D mine.
    if dirty and thresholds.feasible_for_shape(new.shape):
        slice_cells = new.n_rows * new.n_columns
        for size in range(max(thresholds.min_h, 1), new.n_heights + 1):
            if size * slice_cells < thresholds.min_volume:
                continue
            for heights, rs in iter_size_slices(new, size):
                if heights & dirty == 0:
                    continue
                subsets_remined += 1
                for cube in mine_slice(new, heights, rs, thresholds, miner, metrics):
                    triples.add((cube.heights, cube.rows, cube.columns))

    metrics.cubes_patched += cubes_patched
    metrics.subsets_remined += subsets_remined

    kept = merge_shard_results(new, thresholds, sorted(triples), metrics=metrics)
    base = result.algorithm
    if base.startswith("stream[") and base.endswith("]"):
        base = base[len("stream[") : -1]
    return MiningResult(
        cubes=[Cube(*triple) for triple in kept],
        algorithm=f"stream[{base}]",
        thresholds=thresholds,
        dataset_shape=new.shape,
        elapsed_seconds=time.perf_counter() - start,
        stats=MiningStats(
            metrics=metrics,
            extra={
                "stream": {
                    "deltas_applied": application.n_deltas,
                    "dirty_heights": bit_count(dirty),
                    "cubes_patched": cubes_patched,
                    "subsets_remined": subsets_remined,
                    "old_cubes": len(result),
                }
            },
        ),
    )


class IncrementalMaintainer:
    """Stateful façade over :func:`maintain` for a long-lived tensor.

    Holds the current ``(dataset, result)`` pair and folds delta
    batches into it::

        keeper = IncrementalMaintainer(dataset, mine(dataset, t))
        result = keeper.apply([SetCell(0, 3, 5), DropSlice(0, 2)])

    Each :meth:`apply` is exact: after any number of batches,
    ``keeper.result`` is bit-identical to a fresh mine of
    ``keeper.dataset``.
    """

    def __init__(
        self,
        dataset: Dataset3D,
        result: MiningResult,
        thresholds: "Thresholds | None" = None,
        *,
        fcp_miner: "str | FCPMiner" = "dminer",
    ) -> None:
        thresholds = thresholds if thresholds is not None else result.thresholds
        if thresholds is None:
            raise ValueError(
                "thresholds are required (argument or result metadata)"
            )
        self._dataset = dataset
        self._result = result
        self.thresholds = thresholds
        self._miner = (
            get_fcp_miner(fcp_miner) if isinstance(fcp_miner, str) else fcp_miner
        )

    @property
    def dataset(self) -> Dataset3D:
        """The current tensor (after every applied batch)."""
        return self._dataset

    @property
    def result(self) -> MiningResult:
        """The current FCC set (bit-identical to a fresh mine)."""
        return self._result

    def apply(
        self,
        deltas: "list[Delta] | tuple[Delta, ...]",
        *,
        metrics: "MiningMetrics | None" = None,
    ) -> MiningResult:
        """Fold one delta batch into the maintained state."""
        self._dataset, self._result = maintain(
            self._dataset,
            self._result,
            deltas,
            self.thresholds,
            fcp_miner=self._miner,
            metrics=metrics,
        )
        return self._result
