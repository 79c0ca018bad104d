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
2. **Dirty cubes** (``H ∩ D ≠ ∅``).  One CubeMiner run over ``O'``
   with ``required_heights=D`` finds exactly these: only left sons
   drop heights and every descendant keeps a subset of its ancestor's
   heights, so a left son with no dirty height is pruned with its whole
   subtree, and every other test is the unrestricted run's.  When every
   height is dirty (row/column structure edits) no FCC is clean, so the
   run alone is the answer and pass 1 is skipped.

The union of both passes is deduplicated and closure-revalidated by
:func:`merge_shard_results`, so the returned result is bit-identical
(same canonical cube list) to a fresh ``mine()`` of ``O'`` — the
property the hypothesis differential suite in
``tests/test_stream_maintain.py`` checks on random batches.

Cost: pass 1 is one ``close()`` per old cube.  Pass 2 walks only the
part of CubeMiner's tree whose nodes keep a dirty height; for cell
edits in one or two heights that is a small share of the fresh tree
(``BENCH_stream.json``: the cell-edit batch maintains tens of times
faster than a fresh mine).  Row/column structure edits dirty every
height and cost one fresh CubeMiner run plus the merge.
"""

from __future__ import annotations

import time

from ..core.bitset import bit_count, full_mask
from ..core.closure import ClosureCache, close, is_closed_cube
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.result import MiningResult, MiningStats
from ..cubeminer.algorithm import _run
from ..cubeminer.cutter import HeightOrder, build_cutters
from ..obs.metrics import MiningMetrics
# Not called here; the bindings stay for perfbench/spans.py, which
# times the RSM slice and post-prune layers at these names.
from ..rsm.postprune import height_closed_in  # noqa: F401
from ..rsm.slices import iter_size_slices  # noqa: F401
from .delta import Delta, DeltaApplication, apply_deltas

__all__ = ["maintain", "IncrementalMaintainer", "merge_shard_results"]

Triple = tuple[int, int, int]


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


def merge_shard_results(
    dataset: Dataset3D,
    thresholds: Thresholds,
    triples: list[Triple],
    *,
    metrics: MiningMetrics | None = None,
    revalidate: bool = True,
) -> list[Triple]:
    """Merge partial cube-triple lists into one canonical result.

    Deduplicates, re-validates each survivor against the full dataset
    (closure via :func:`repro.core.closure.is_closed_cube` plus the
    thresholds — violations are counted in ``shard_merge_dropped`` and
    dropped; a correct maintenance pass never produces any) and
    returns the triples in canonical sorted order.  The output depends
    only on the input set, which makes the merge associative and
    idempotent however the inputs are grouped or ordered.
    """
    cache = ClosureCache()
    seen: set[Triple] = set()
    kept: list[Triple] = []
    dropped = 0
    for triple in triples:
        if triple in seen:
            continue
        seen.add(triple)
        if revalidate:
            cube = Cube(*triple)
            if not thresholds.satisfied_by(cube) or not is_closed_cube(
                dataset, cube, cache=cache
            ):
                dropped += 1
                continue
        kept.append(triple)
    kept.sort()
    if metrics is not None:
        metrics.shard_merges += 1
        metrics.shard_merge_dropped += dropped
    return kept


def maintain(
    dataset: Dataset3D,
    result: MiningResult,
    deltas: "list[Delta] | tuple[Delta, ...]",
    thresholds: "Thresholds | None" = None,
    *,
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
    if metrics is None:
        metrics = MiningMetrics()
    start = time.perf_counter()

    application = apply_deltas(dataset, deltas)
    new = application.dataset
    updated = _maintain_applied(new, result, application, thresholds, metrics, start)
    return new, updated


def _maintain_applied(
    new: Dataset3D,
    result: MiningResult,
    application: DeltaApplication,
    thresholds: Thresholds,
    metrics: MiningMetrics,
    start: float,
) -> MiningResult:
    dirty = application.dirty_heights
    metrics.deltas_applied += application.n_deltas
    cubes_patched = 0
    dirty_cubes = 0

    triples: set[tuple[int, int, int]] = set()
    all_heights = full_mask(new.n_heights)
    cache = ClosureCache()

    # --- Pass 1: patch the surviving cubes ----------------------------
    # Skipped when every height is dirty: then no FCC is clean.
    if dirty != all_heights:
        kernel = new.kernel
        grid = new.ones_grid()
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

    # --- Pass 2: CubeMiner restricted to cubes with a dirty height ----
    if dirty and thresholds.feasible_for_shape(new.shape):
        cutters = build_cutters(new, HeightOrder.ZERO_DECREASING)
        metrics.cutters_built += len(cutters)
        metrics.n_cutters = len(cutters)
        root = (all_heights, full_mask(new.n_rows), full_mask(new.n_columns))
        found, _ = _run(
            new,
            thresholds,
            cutters,
            [(root, 0, 0, 0)],
            metrics,
            closure_cache=cache,
            required_heights=dirty,
        )
        dirty_cubes = len(found)
        triples.update((cube.heights, cube.rows, cube.columns) for cube in found)

    metrics.cubes_patched += cubes_patched
    # ``subsets_remined`` keeps its name from the RSM subset
    # enumeration this pass replaced; it counts the dirty pass's cubes.
    metrics.subsets_remined += dirty_cubes

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
                    "subsets_remined": dirty_cubes,
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
    ) -> None:
        thresholds = thresholds if thresholds is not None else result.thresholds
        if thresholds is None:
            raise ValueError(
                "thresholds are required (argument or result metadata)"
            )
        self._dataset = dataset
        self._result = result
        self.thresholds = thresholds

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
            metrics=metrics,
        )
        return self._result
