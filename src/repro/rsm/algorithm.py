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
from collections.abc import Callable, Iterator
from dataclasses import dataclass

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
from .slices import (
    count_height_subsets,
    enumerate_height_subsets,
    iter_size_slices,
    min_subset_size,
)

__all__ = [
    "rsm_mine",
    "mine_slice",
    "RSMMiner",
    "resolve_base_axis",
    "SubsetPlan",
    "plan_subsets",
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


@dataclass(frozen=True, slots=True)
class SubsetPlan:
    """RSM's base dimension moved to the height axis, and what to mine.

    ``dataset`` and ``thresholds`` are the caller's, transposed and
    permuted by ``order`` so the base dimension comes first;
    ``min_size`` is the smallest subset worth mining (``l + 1``, so no
    subset, when the thresholds cannot be met).
    """

    axis: int
    order: tuple[int, int, int]
    dataset: Dataset3D
    thresholds: Thresholds
    min_size: int

    def subsets(self) -> Iterator[int]:
        """The height masks RSM mines, in enumeration order."""
        return enumerate_height_subsets(self.dataset.n_heights, self.min_size)

    def to_caller(self, cube: Cube) -> Cube:
        """Map a cube found on ``dataset`` back to the caller's axes."""
        return cube if self.axis == 0 else map_cube_from_transposed(cube, self.order)


def plan_subsets(
    dataset: Dataset3D, thresholds: Thresholds, base_axis: int | str
) -> SubsetPlan:
    """The one base-axis setup of every RSM driver.

    Resolves ``base_axis``, moves it first, permutes the thresholds to
    match and computes :func:`~repro.rsm.slices.min_subset_size`.
    """
    axis = resolve_base_axis(dataset, base_axis)
    order = order_moving_axis_first(axis)
    if axis != 0:
        dataset = dataset.transpose(order)
        thresholds = thresholds.permute(order)
    if thresholds.feasible_for_shape(dataset.shape):
        min_size = min_subset_size(thresholds, dataset.shape)
    else:
        min_size = dataset.n_heights + 1
    return SubsetPlan(axis, order, dataset, thresholds, min_size)


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
    start = time.perf_counter()
    plan = plan_subsets(dataset, thresholds, base_axis)
    stats = metrics if metrics is not None else MiningMetrics()
    controller = resolve_progress(progress, deadline)
    algorithm = f"rsm-{'hrc'[plan.axis]}[{miner.name}]"
    if on_event is not None:
        on_event(
            MineStart(
                algorithm,
                dataset.shape,
                thresholds.as_tuple() + (thresholds.min_volume,),
            )
        )

    working, working_thresholds = plan.dataset, plan.thresholds
    before = stats.copy()
    cubes: list[Cube] = []
    total = count_height_subsets(working.n_heights, working_thresholds.min_h)
    # The sizes below the volume floor count as done unenumerated.
    done = total - count_height_subsets(working.n_heights, plan.min_size)
    try:
        if controller is not None:
            controller.checkpoint(stats, phase="rsm", done=0)
        # Through this module's binding, which perfbench's span wraps.
        for heights, rs in iter_size_slices(working, plan.subsets()):
            done += 1
            cubes += mine_slice(
                working, heights, rs, working_thresholds, miner, stats, on_event
            )
            if controller is not None:
                controller.checkpoint(stats, phase="rsm", done=done, total=total)
    except MiningCancelled as exc:
        elapsed = time.perf_counter() - start
        exc.metrics = stats
        exc.partial = MiningResult(
            cubes=[plan.to_caller(cube) for cube in cubes],
            algorithm=algorithm,
            thresholds=thresholds,
            dataset_shape=dataset.shape,
            elapsed_seconds=elapsed,
            stats=MiningStats(metrics=stats),
        )
        if on_event is not None:
            on_event(MineDone(algorithm, len(exc.partial), elapsed, cancelled=True))
        raise

    extra = {
        "representative_slices": stats.rs_slices_mined - before.rs_slices_mined,
        "fcp_patterns": stats.fcp_patterns - before.fcp_patterns,
        "postprune_checked": stats.postprune_checked - before.postprune_checked,
        "postprune_pruned": stats.postprune_discards - before.postprune_discards,
    }
    result = MiningResult(
        cubes=[plan.to_caller(cube) for cube in cubes],
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
    ones.  Every RSM variant calls this on the subsets of
    :func:`~repro.rsm.slices.enumerate_height_subsets`, folded by
    :func:`~repro.rsm.slices.iter_size_slices` (the out-of-core miner
    folds packed words instead).
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
