"""The Representative Slice Mining framework (Section 4).

RSM mines FCCs in three phases:

1. enumerate every subset of the base dimension with at least ``minH``
   members and AND its slices into a representative slice (phase 1,
   :mod:`repro.rsm.slices`);
2. run any 2D frequent-closed-pattern miner on each representative
   slice with the ``minR`` / ``minC`` thresholds (phase 2,
   :mod:`repro.fcp` — D-Miner by default, as in the paper);
3. keep a pattern only when its height set is exactly the enumerated
   subset, i.e. no outside slice also contains it (phase 3, Lemma 1:
   :func:`~repro.core.closure.height_set_closed`, bound here as
   ``height_closed_in``).

Each FCC is produced exactly once — by the subset equal to its height
support set.  The base dimension defaults to heights; ``base_axis``
transposes internally and maps results back, and ``"auto"`` picks the
smallest dimension (the paper's heuristic — enumeration cost is
exponential in the base dimension's size).

Runs carry the same instrumentation surface as CubeMiner: always-on
:class:`~repro.obs.metrics.MiningMetrics` counters (slices mined, 2D
patterns, Lemma-1 discards), optional typed events (one
:class:`~repro.obs.events.SliceEvent` per representative slice) and a
progress/cancellation checkpoint after every slice.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..core.closure import height_set_closed as height_closed_in
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.permute import map_cube_from_transposed, order_moving_axis_first
from ..core.result import MiningResult, MiningStats
from ..fcp import FCPMiner, get_fcp_miner
from ..fcp.matrix import BinaryMatrix
from ..obs import (
    EventSink,
    MineDone,
    MineStart,
    MiningCancelled,
    MiningMetrics,
    ProgressController,
    PruneEvent,
    SliceEvent,
    resolve_progress,
)
from .slices import count_height_subsets, iter_size_slices, min_subset_size

__all__ = [
    "rsm_mine",
    "mine_slice",
    "RSMMiner",
    "resolve_base_axis",
    "height_closed_in",
]

_AXIS_BY_NAME = {"height": 0, "row": 1, "column": 2}


def resolve_base_axis(dataset: Dataset3D, base_axis: int | str) -> int:
    """Normalize ``base_axis`` to an axis index; ``"auto"`` = smallest."""
    if base_axis == "auto":
        shape = dataset.shape
        return min(range(3), key=lambda axis: (shape[axis], axis))
    if isinstance(base_axis, str):
        try:
            return _AXIS_BY_NAME[base_axis]
        except KeyError:
            raise ValueError(
                f"unknown base axis {base_axis!r}; use height/row/column/auto"
            ) from None
    if base_axis not in (0, 1, 2):
        raise ValueError(f"base axis index must be 0, 1 or 2, got {base_axis}")
    return base_axis


def rsm_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    base_axis: int | str = "height",
    fcp_miner: str | FCPMiner = "dminer",
    metrics: MiningMetrics | None = None,
    on_event: EventSink | None = None,
    progress: "ProgressController | Callable | None" = None,
    deadline: float | None = None,
) -> MiningResult:
    """Mine all frequent closed cubes of ``dataset`` with RSM.

    Parameters
    ----------
    dataset:
        The 3D boolean context.
    thresholds:
        Minimum supports in the dataset's own axis order (they are
        permuted internally when ``base_axis`` is not the height axis).
    base_axis:
        Which dimension to enumerate: ``"height"`` (default, the
        paper's exposition), ``"row"``, ``"column"``, an axis index, or
        ``"auto"`` for the smallest dimension (the paper's recommended
        heuristic, cf. RSM-R vs RSM-H in Figure 3).
    fcp_miner:
        The 2D phase-2 algorithm: a registry name (``"dminer"`` or
        ``"carpenter"``, see :data:`repro.fcp.FCP_MINERS`) or any
        :class:`~repro.fcp.base.FCPMiner` instance.
    metrics / on_event / progress / deadline:
        Instrumentation surface — see :func:`repro.api.mine`.  A
        cancelled run raises
        :class:`~repro.obs.progress.MiningCancelled` with the partial
        result (cubes mapped back to the caller's axis order) attached.
    """
    miner = get_fcp_miner(fcp_miner) if isinstance(fcp_miner, str) else fcp_miner
    axis = resolve_base_axis(dataset, base_axis)
    axis_name = ("H", "R", "C")[axis]
    stats = metrics if metrics is not None else MiningMetrics()
    controller = resolve_progress(progress, deadline)
    algorithm = f"rsm-{axis_name.lower()}[{miner.name}]"
    start = time.perf_counter()
    if on_event is not None:
        on_event(
            MineStart(
                algorithm,
                dataset.shape,
                thresholds.as_tuple() + (thresholds.min_volume,),
            )
        )

    order = None if axis == 0 else order_moving_axis_first(axis)

    def map_back(raw_cubes: list[Cube]) -> list[Cube]:
        if order is None:
            return raw_cubes
        return [map_cube_from_transposed(cube, order) for cube in raw_cubes]

    if axis == 0:
        working, working_thresholds = dataset, thresholds
    else:
        working = dataset.transpose(order)  # type: ignore[arg-type]
        working_thresholds = thresholds.permute(order)  # type: ignore[arg-type]

    try:
        if controller is not None:
            controller.checkpoint(stats, phase="rsm", done=0)
        raw_cubes, extra = _mine_base_height(
            working, working_thresholds, miner, stats, on_event, controller
        )
    except MiningCancelled as exc:
        elapsed = time.perf_counter() - start
        partial_cubes = map_back(list(exc.partial_cubes))
        exc.metrics = stats
        exc.partial = MiningResult(
            cubes=partial_cubes,
            algorithm=algorithm,
            thresholds=thresholds,
            dataset_shape=dataset.shape,
            elapsed_seconds=elapsed,
            stats=MiningStats(metrics=stats),
        )
        if on_event is not None:
            on_event(MineDone(algorithm, len(exc.partial), elapsed, cancelled=True))
        raise

    result = MiningResult(
        cubes=map_back(raw_cubes),
        algorithm=algorithm,
        thresholds=thresholds,
        dataset_shape=dataset.shape,
        elapsed_seconds=time.perf_counter() - start,
        stats=MiningStats(metrics=stats, extra=extra),
    )
    if on_event is not None:
        on_event(MineDone(algorithm, len(result), result.elapsed_seconds))
    return result


def mine_slice(
    dataset: Dataset3D,
    heights: int,
    rs: BinaryMatrix,
    thresholds: Thresholds,
    miner: FCPMiner,
    metrics: MiningMetrics,
    sink: EventSink | None = None,
    closed_in: Callable[[int, int, int], bool] | None = None,
) -> list[Cube]:
    """RSM's per-subset step: phases 2 and 3 on one representative slice.

    Mines the 2D FCPs of ``rs`` (the AND of the slices in ``heights``),
    drops patterns below the volume floor, and keeps the rest only when
    Lemma 1 says no outside height covers them.  That one sweep is the
    whole closure check: a 2D pattern's rows and columns are already
    closed in 3D, because the RS row/column supports equal the 3D
    ones.  Every RSM variant calls this; each owns its own subset
    enumeration and slice fold.
    The slice, its patterns and the post-prune outcome are tallied into
    ``metrics``, each :func:`height_closed_in` sweep as one
    ``kernel_ops``; with a ``sink``, each Lemma-1 discard emits a
    ``PruneEvent("postprune")`` and the slice a closing
    :class:`~repro.obs.events.SliceEvent`.  ``closed_in(heights, rows,
    columns)`` replaces :func:`height_closed_in` as the Lemma-1 test
    (the out-of-core miner checks the packed grid instead of building
    the dataset's int mask grid).  Returns the kept cubes.
    """
    metrics.rs_slices_mined += 1
    metrics.kernel_ops += 1
    patterns = miner.mine(rs, min_rows=thresholds.min_r, min_columns=thresholds.min_c)
    metrics.fcp_patterns += len(patterns)
    size = heights.bit_count()
    min_volume = thresholds.min_volume
    kept: list[Cube] = []
    for pattern in patterns:
        if size * pattern.row_support * pattern.column_support < min_volume:
            continue
        metrics.postprune_checked += 1
        if closed_in is None:
            metrics.kernel_ops += 1
            closed = height_closed_in(dataset, heights, pattern.rows, pattern.columns)
        else:
            closed = closed_in(heights, pattern.rows, pattern.columns)
        if closed:
            kept.append(Cube(heights, pattern.rows, pattern.columns))
        else:
            metrics.postprune_discards += 1
            if sink is not None:
                sink(
                    PruneEvent(
                        "postprune",
                        "postprune_discards",
                        heights,
                        pattern.rows,
                        pattern.columns,
                    )
                )
    if sink is not None:
        sink(SliceEvent(heights, len(patterns), len(kept)))
    return kept


def _mine_base_height(
    dataset: Dataset3D,
    thresholds: Thresholds,
    miner: FCPMiner,
    metrics: MiningMetrics,
    sink: EventSink | None = None,
    progress: ProgressController | None = None,
) -> tuple[list[Cube], dict[str, int]]:
    """RSM's three phases with the height axis as base dimension.

    Returns the found cubes plus the legacy flat stats keys; on
    cancellation the raised exception carries the cubes found so far in
    ``partial_cubes``.
    """
    before = metrics.copy()
    cubes: list[Cube] = []
    try:
        if thresholds.feasible_for_shape(dataset.shape):
            n_heights = dataset.n_heights
            total = count_height_subsets(n_heights, thresholds.min_h)
            first = min_subset_size(thresholds, dataset.shape)
            # The sizes below the volume floor count as done unenumerated.
            n_enumerated = total - count_height_subsets(n_heights, first)
            for size in range(first, n_heights + 1):
                for heights, rs in iter_size_slices(dataset, size):
                    n_enumerated += 1
                    cubes += mine_slice(
                        dataset, heights, rs, thresholds, miner, metrics, sink
                    )
                    if progress is not None:
                        progress.checkpoint(
                            metrics, phase="rsm", done=n_enumerated, total=total
                        )
    except MiningCancelled as exc:
        exc.partial_cubes = cubes
        exc.metrics = metrics
        raise
    extra = {
        "representative_slices": metrics.rs_slices_mined - before.rs_slices_mined,
        "fcp_patterns": metrics.fcp_patterns - before.fcp_patterns,
        "postprune_checked": metrics.postprune_checked - before.postprune_checked,
        "postprune_pruned": metrics.postprune_discards - before.postprune_discards,
    }
    return cubes, extra


class RSMMiner:
    """Object-style facade over :func:`rsm_mine`."""

    name = "rsm"

    def __init__(
        self,
        base_axis: int | str = "auto",
        fcp_miner: str | FCPMiner = "dminer",
    ) -> None:
        self.base_axis = base_axis
        self.fcp_miner = fcp_miner

    def mine(self, dataset: Dataset3D, thresholds: Thresholds) -> MiningResult:
        return rsm_mine(
            dataset, thresholds, base_axis=self.base_axis, fcp_miner=self.fcp_miner
        )

    def __repr__(self) -> str:
        return f"RSMMiner(base_axis={self.base_axis!r}, fcp_miner={self.fcp_miner!r})"
