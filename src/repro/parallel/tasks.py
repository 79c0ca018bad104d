"""Task generation for parallel FCC mining (Section 6, phase a).

The paper's parallel framework has three logical phases: task
generation, task allocation, task execution.  Both algorithms decompose
into fully independent tasks (each processor holds the whole dataset,
so no communication happens during execution):

* **RSM** — one task per representative slice, i.e. per enumerated
  base-dimension subset (:func:`rsm_tasks`);
* **CubeMiner** — one task per branch of the splitting tree.  The tree
  is expanded breadth-first until at least ``min_tasks`` frontier nodes
  exist; each frontier node (with its cutter index and track sets) is a
  self-contained continuation (:func:`cubeminer_tasks`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bitset import bit_count
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..cubeminer.checks import height_set_closed, row_set_closed
from ..cubeminer.cutter import Cutter
from ..obs.metrics import MiningMetrics
from ..rsm.slices import enumerate_height_subsets

__all__ = ["CubeMinerTask", "rsm_tasks", "cubeminer_tasks"]


@dataclass(frozen=True, slots=True)
class CubeMinerTask:
    """A frontier node of the CubeMiner tree: a resumable sub-search."""

    heights: int
    rows: int
    columns: int
    cutter_index: int
    track_left: int
    track_middle: int

    def as_stack_item(self) -> tuple[tuple[int, int, int], int, int, int]:
        """Convert to the work-stack format of the sequential engine."""
        return (
            (self.heights, self.rows, self.columns),
            self.cutter_index,
            self.track_left,
            self.track_middle,
        )


def rsm_tasks(n_heights: int, min_h: int) -> list[int]:
    """All base-dimension subset masks — one RSM task each."""
    return list(enumerate_height_subsets(n_heights, min_h))


def cubeminer_tasks(
    dataset: Dataset3D,
    thresholds: Thresholds,
    root: Cube,
    cutters: list[Cutter],
    min_tasks: int,
    metrics: MiningMetrics | None = None,
) -> tuple[list[CubeMinerTask], list[Cube]]:
    """Expand the CubeMiner tree breadth-first into >= ``min_tasks`` tasks.

    The tree grows from ``root`` with ``cutters``, the pair
    :func:`~repro.cubeminer.algorithm.search_root` returns.  Returns
    the frontier tasks plus any FCCs already completed during expansion
    (nodes that ran out of applicable cutters early).  The
    expansion applies exactly the sequential pruning rules, so replaying
    every task yields exactly the sequential result set.  When
    ``metrics`` is given, the expansion's own node visits and closure
    checks are tallied so the driver's counters cover this phase too.
    """
    if min_tasks < 1:
        raise ValueError(f"min_tasks must be >= 1, got {min_tasks}")
    if metrics is None:
        metrics = MiningMetrics()
    min_h, min_r, min_c = thresholds.as_tuple()
    min_volume = thresholds.min_volume
    n_cutters = len(cutters)
    done: list[Cube] = []
    frontier: list[CubeMinerTask] = []
    if root.satisfies(thresholds):
        frontier = [CubeMinerTask(root.heights, root.rows, root.columns, 0, 0, 0)]

    while frontier and len(frontier) < min_tasks:
        next_frontier: list[CubeMinerTask] = []
        expanded_any = False
        for task in frontier:
            heights, rows, columns = task.heights, task.rows, task.columns
            metrics.nodes_visited += 1
            metrics.kernel_ops += 1
            index = task.cutter_index
            while index < n_cutters:
                cutter = cutters[index]
                if (
                    heights >> cutter.height & 1
                    and rows >> cutter.row & 1
                    and columns & cutter.columns
                ):
                    break
                index += 1
            else:
                metrics.leaves_emitted += 1
                done.append(Cube(heights, rows, columns))
                continue
            expanded_any = True
            left_atom = 1 << cutter.height
            middle_atom = 1 << cutter.row
            next_index = index + 1
            h_count = bit_count(heights)
            r_count = bit_count(rows)
            c_count = bit_count(columns)
            son_heights = heights & ~left_atom
            if (
                bit_count(son_heights) >= min_h
                and (h_count - 1) * r_count * c_count >= min_volume
                and not left_atom & task.track_left
                and row_set_closed(dataset, son_heights, rows, columns)
            ):
                metrics.sons_left += 1
                next_frontier.append(
                    CubeMinerTask(
                        son_heights, rows, columns, next_index,
                        task.track_left, task.track_middle,
                    )
                )
            son_rows = rows & ~middle_atom
            if (
                bit_count(son_rows) >= min_r
                and h_count * (r_count - 1) * c_count >= min_volume
                and not middle_atom & task.track_middle
                and height_set_closed(dataset, heights, son_rows, columns)
            ):
                metrics.sons_middle += 1
                next_frontier.append(
                    CubeMinerTask(
                        heights, son_rows, columns, next_index,
                        task.track_left | left_atom, task.track_middle,
                    )
                )
            son_columns = columns & ~cutter.columns
            if (
                bit_count(son_columns) >= min_c
                and h_count * r_count * bit_count(son_columns) >= min_volume
                and height_set_closed(dataset, heights, rows, son_columns)
                and row_set_closed(dataset, heights, rows, son_columns)
            ):
                metrics.sons_right += 1
                next_frontier.append(
                    CubeMinerTask(
                        heights, rows, son_columns, next_index,
                        task.track_left | left_atom,
                        task.track_middle | middle_atom,
                    )
                )
        frontier = next_frontier
        if not expanded_any:
            break
    return frontier, done
