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
   its closure *in the old tensor* is some ``F_old ∈ F`` that contains
   it.  The patch pass takes each old cube ``F = (H, R, C)``, remaps
   its masks through the axis index maps (an identity map is not
   walked), and applies the first rule that fits:

   a. *Skip* ``F`` when a dirty height covers ``R × C`` in ``O'``.
      Proof: the closure of any seed on ``R × C`` holds that height,
      so it is a dirty cube, which pass 2 finds; and ``F`` is no clean
      cube's ``F_old``, since the height would also cover that cube's
      smaller region and so belong to its closed height set.
   b. *Carry* ``F`` unchanged when ``H`` keeps every height (none
      dropped, none dirty).  Proof: no dirty height covers ``R × C``
      (rule a), and the clean slices are bit-identical, so
      ``H(R × C)``, ``R(H × C)`` and ``C(H × R)`` are what they were in
      ``O``: ``F`` is still closed and, at its old size, frequent.
   c. Otherwise *re-close* the seed ``(H ∖ D, R, C)`` in ``O'`` (one
      ``close()``) and keep the result if it meets the thresholds; an
      empty ``H ∖ D`` is skipped, since it holds no clean cube's heights.
      Proof: the seed is all-ones on clean slices, and it contains
      every clean cube whose ``F_old`` is ``F``; the closure of a seed
      is the one closed cube over it, and no closed cube strictly
      contains another (growing rows/columns only shrinks the height
      support back), so the closure is that cube.  It has no dirty
      height: none covers ``R × C``, so none covers the larger region.

   Every clean-heights FCC has an ``F_old`` that rule a does not skip,
   so rules b and c recover all of them in one linear pass over ``F``.
2. **Dirty cubes** (``H ∩ D ≠ ∅``).  One CubeMiner run over ``O'``
   from its diced root (:func:`repro.cubeminer.algorithm.search_root`)
   with ``required_heights=D`` finds exactly these: only left sons
   drop heights and every descendant keeps a subset of its ancestor's
   heights, so a left son with no dirty height is pruned with its whole
   subtree, and every other test is the unrestricted run's.  When every
   height is dirty (row/column structure edits) no FCC is clean, so the
   run alone is the answer and pass 1 is skipped.  The run is skipped
   when :func:`repro.rsm.slices.may_hold_cube` proves that no cube has
   a dirty height: RSM's subset walk, over the subsets with one, cuts
   them all.

The union of both passes is deduplicated and closure-revalidated by
:func:`merge_shard_results`, so the returned result is bit-identical
(same canonical cube list) to a fresh ``mine()`` of ``O'`` — the
property the hypothesis differential suite in
``tests/test_stream_maintain.py`` checks on random batches.  Both
passes emit only closed cubes that meet the thresholds, so the merge's
``shard_merge_dropped`` counter reads 0 on a correct pass; a nonzero
count is a fault, not a filter.

Cost: pass 1 is one covering test per old cube over the dirty heights,
plus one ``close()`` only for the old cubes that lost a dirty or
dropped height (``cubes_reclosed``); every other old cube is carried or
skipped without one.  Pass 2 walks only the part of CubeMiner's tree
whose nodes keep a dirty height; for cell edits in one or two heights
that is a small share of the fresh tree, and none when the walk proves
the dirty heights hold no cube.  The merge re-checks every emitted
triple with ``is_closed_cube``, which is then the largest share of a
batch on small edits.  Row/column structure edits dirty every height
and cost one fresh CubeMiner run plus the merge.
"""

from __future__ import annotations

import time

from ..core.bitset import bit_count, full_mask
from ..core.closure import close, is_closed_cube
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.kernels import KERNEL
from ..core.result import MiningResult, MiningStats
from ..cubeminer.algorithm import _run, search_root
from ..obs.metrics import MiningMetrics
from ..rsm.slices import may_hold_cube
# Not called here; the bindings stay for perfbench/spans.py, which
# times the RSM slice and post-prune layers at these names.
from ..core.closure import height_set_closed as height_closed_in  # noqa: F401
from ..rsm.slices import iter_size_slices  # noqa: F401
from .delta import Delta, DeltaApplication, apply_deltas

__all__ = ["maintain", "IncrementalMaintainer", "merge_shard_results"]

Triple = tuple[int, int, int]


def _remap(mask: int, index_map: "tuple | None") -> int:
    """Map a bitmask through an old→new index map (dropped bits vanish).

    ``None`` stands for the identity map (see :func:`_non_identity`).
    """
    if index_map is None:
        return mask
    out = 0
    while mask:
        low = mask & -mask
        new_index = index_map[low.bit_length() - 1]
        if new_index is not None:
            out |= 1 << new_index
        mask ^= low
    return out


def _non_identity(index_map: tuple) -> "tuple | None":
    """``index_map``, or ``None`` when it maps every index to itself."""
    if all(new == old for old, new in enumerate(index_map)):
        return None
    return index_map


def merge_shard_results(
    dataset: Dataset3D,
    thresholds: Thresholds,
    triples: list[Triple],
    *,
    metrics: MiningMetrics | None = None,
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
    kept: list[Triple] = []
    dropped = 0
    for triple in set(triples):
        cube = Cube(*triple)
        if thresholds.satisfied_by(cube) and is_closed_cube(dataset, cube):
            kept.append(triple)
        else:
            dropped += 1
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
    cubes_reclosed = 0
    dirty_cubes = 0

    triples: set[tuple[int, int, int]] = set()
    all_heights = full_mask(new.n_heights)

    # --- Pass 1: patch the surviving cubes ----------------------------
    # Skipped when every height is dirty: then no FCC is clean.  Each
    # old cube is skipped, carried or re-closed (module docstring, 1a-c).
    if dirty != all_heights:
        grid = new.ones_grid()
        height_map = _non_identity(application.height_map)
        row_map = _non_identity(application.row_map)
        column_map = _non_identity(application.column_map)
        dropped = sum(
            1 << old
            for old, landed in enumerate(application.height_map)
            if landed is None
        )
        for cube in result:
            rows = _remap(cube.rows, row_map)
            columns = _remap(cube.columns, column_map)
            if rows == 0 or columns == 0:
                continue
            if dirty and KERNEL.grid_supporting_heights(
                grid, rows, columns, candidates=dirty
            ):
                continue  # 1a: a dirty cube now; pass 2 finds it
            heights = _remap(cube.heights, height_map)
            if not (heights & dirty or cube.heights & dropped):
                # 1b: every height kept, so still closed
                triples.add((heights, rows, columns))
                cubes_patched += 1
                continue
            clean = heights & ~dirty  # 1c: re-close what is left
            if clean == 0:
                continue
            patched = close(new, Cube(clean, rows, columns))
            cubes_reclosed += 1
            if thresholds.satisfied_by(patched):
                triples.add((patched.heights, patched.rows, patched.columns))
                cubes_patched += 1

    # --- Pass 2: CubeMiner restricted to cubes with a dirty height ----
    # Its root is the diced region of the new tensor; a root without a
    # dirty height holds no cube this pass must find, and neither does a
    # tensor in which RSM's subset walk cuts every subset with one.
    if dirty and may_hold_cube(new, thresholds, dirty):
        root, cutters = search_root(new, thresholds, metrics=metrics)
        if root.heights & dirty and root.satisfies(thresholds):
            found, _ = _run(
                new,
                thresholds,
                cutters,
                [((root.heights, root.rows, root.columns), 0, 0, 0)],
                metrics,
                required_heights=dirty,
            )
            dirty_cubes = len(found)
            triples.update((cube.heights, cube.rows, cube.columns) for cube in found)

    metrics.cubes_patched += cubes_patched
    metrics.cubes_reclosed += cubes_reclosed
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
                    "cubes_reclosed": cubes_reclosed,
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
