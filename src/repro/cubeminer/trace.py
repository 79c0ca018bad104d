"""Traced CubeMiner: the full split tree of Figure 1.

:func:`trace_tree` walks the paper's Algorithm 2 on a (small!) dataset
and records every node: its cube, tree level (cutter step), branch kind
and — for pruned sons — which rule fired.  The walk runs the paper's
per-son checks, so it draws the paper's tree; the live miner prunes by
other rules (a track-core rule inside the tree, closure checks only at
its leaves) and reaches the same leaves.  The paper's Figure 1 prune
categories map to :class:`PruneReason` as

* (a) left son whose cutter's left atom cut the path → ``LEFT_TRACK``,
* (b) middle son whose cutter's middle atom cut the path → ``MIDDLE_TRACK``,
* (c) node unclosed in the height set → ``HEIGHT_UNCLOSED``,
* (d) node unclosed in the row set → ``ROW_UNCLOSED``,

plus the three monotone-threshold prunes.  :func:`render_tree` draws
the tree as indented ASCII for the examples and docs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.closure import height_set_closed, row_set_closed
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from .algorithm import search_root
from .cutter import Cutter, CutterIndex, HeightOrder

__all__ = [
    "Branch",
    "PruneReason",
    "TraceNode",
    "trace_tree",
    "render_tree",
    "PRUNE_METRIC_FIELDS",
    "prune_counts",
]

_MAX_TRACE_CELLS = 4096


class Branch(enum.Enum):
    """How a node was derived from its parent."""

    ROOT = "root"
    LEFT = "L"
    MIDDLE = "M"
    RIGHT = "R"


class PruneReason(enum.Enum):
    """Why a candidate son was discarded (Figure 1's useless nodes)."""

    MIN_H = "minH violated"
    MIN_R = "minR violated"
    MIN_C = "minC violated"
    MIN_VOLUME = "minVolume violated"
    LEFT_TRACK = "(a) left atom already cut the path"
    MIDDLE_TRACK = "(b) middle atom already cut the path"
    HEIGHT_UNCLOSED = "(c) unclosed in height set"
    ROW_UNCLOSED = "(d) unclosed in row set"


#: Which :class:`~repro.obs.metrics.MiningMetrics` counter the live
#: miner increments for each :class:`PruneReason`.
PRUNE_METRIC_FIELDS = {
    PruneReason.MIN_H: "pruned_min_h",
    PruneReason.MIN_R: "pruned_min_r",
    PruneReason.MIN_C: "pruned_min_c",
    PruneReason.MIN_VOLUME: "pruned_min_volume",
    PruneReason.LEFT_TRACK: "pruned_left_track",
    PruneReason.MIDDLE_TRACK: "pruned_middle_track",
    PruneReason.HEIGHT_UNCLOSED: "pruned_height_unclosed",
    PruneReason.ROW_UNCLOSED: "pruned_row_unclosed",
}


def prune_counts(root: "TraceNode") -> dict[str, int]:
    """Tally a traced tree's prune reasons by metrics counter name.

    The keys are those of ``MiningMetrics.prune_counts()``.  The counts
    are the paper's tree; a live run over the same input prunes by its
    track-core rule too and checks closure only at its leaves, so its
    own counts differ.
    """
    counts = {name: 0 for name in PRUNE_METRIC_FIELDS.values()}
    for node in root.iter_nodes():
        if node.pruned is not None:
            counts[PRUNE_METRIC_FIELDS[node.pruned]] += 1
    return counts


@dataclass
class TraceNode:
    """One node of the traced mining tree."""

    cube: Cube
    level: int
    branch: Branch
    cutter: Cutter | None = None
    pruned: PruneReason | None = None
    is_leaf: bool = False
    children: list["TraceNode"] = field(default_factory=list)

    def iter_nodes(self):
        """Yield this node and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def leaves(self) -> list[Cube]:
        """All FCCs in this subtree."""
        return [node.cube for node in self.iter_nodes() if node.is_leaf]


def _threshold_failure(cube: Cube, thresholds: Thresholds) -> PruneReason | None:
    """The first size threshold ``cube`` fails, or ``None``."""
    h, r, c = cube.shape
    if h < thresholds.min_h:
        return PruneReason.MIN_H
    if r < thresholds.min_r:
        return PruneReason.MIN_R
    if c < thresholds.min_c:
        return PruneReason.MIN_C
    if cube.volume < thresholds.min_volume:
        return PruneReason.MIN_VOLUME
    return None


def _son_pruned(
    dataset: Dataset3D,
    thresholds: Thresholds,
    son: TraceNode,
    tracked: bool,
) -> PruneReason | None:
    """Why the paper's Algorithm 2 discards ``son``, or ``None``.

    The checks run in the paper's order: the size thresholds (only the
    one the son's cutter shrank can fail), the son's track set
    (``tracked``: Lemma 2 for a left son, Lemma 3 for a middle son),
    then closure: heights (Lemma 4) on middle and right sons, rows
    (Lemma 5) on left and right sons.
    """
    reason = _threshold_failure(son.cube, thresholds)
    if reason is not None:
        return reason
    if tracked:
        return PruneReason.LEFT_TRACK if son.branch is Branch.LEFT else PruneReason.MIDDLE_TRACK
    heights, rows, columns = son.cube.heights, son.cube.rows, son.cube.columns
    if son.branch is not Branch.LEFT and not height_set_closed(dataset, heights, rows, columns):
        return PruneReason.HEIGHT_UNCLOSED
    if son.branch is not Branch.MIDDLE and not row_set_closed(dataset, heights, rows, columns):
        return PruneReason.ROW_UNCLOSED
    return None


def _grow(
    dataset: Dataset3D, thresholds: Thresholds, root: TraceNode, cutters: list[Cutter]
) -> None:
    """Grow ``root``'s tree by Algorithm 2 with the paper's per-son checks.

    Every node that survives its checks gets its three sons (kept or
    marked pruned); a node that no cutter meets is a leaf, an FCC when
    its heights and rows are closed.
    """
    n_cutters = len(cutters)
    first_applicable = CutterIndex(cutters).first_applicable
    stack = [(root, 0, 0, 0)]
    while stack:
        node, start, track_left, track_middle = stack.pop()
        heights, rows, columns = node.cube.heights, node.cube.rows, node.cube.columns
        index = first_applicable(heights, rows, columns, start)
        if index == n_cutters:
            node.is_leaf = height_set_closed(
                dataset, heights, rows, columns
            ) and row_set_closed(dataset, heights, rows, columns)
            continue
        cutter = cutters[index]
        left_atom, middle_atom = cutter.left_mask, cutter.middle_mask
        level = index + 1
        son_left, son_middle = track_left | left_atom, track_middle | middle_atom
        sons = (
            (Branch.LEFT, Cube(heights & ~left_atom, rows, columns),
             left_atom & track_left, track_left, track_middle),
            (Branch.MIDDLE, Cube(heights, rows & ~middle_atom, columns),
             middle_atom & track_middle, son_left, track_middle),
            (Branch.RIGHT, Cube(heights, rows, columns & ~cutter.columns),
             0, son_left, son_middle),
        )
        for branch, cube, tracked, tl, tm in sons:
            son = TraceNode(cube, level, branch, cutter)
            node.children.append(son)
            son.pruned = _son_pruned(dataset, thresholds, son, bool(tracked))
            if son.pruned is None:
                stack.append((son, level, tl, tm))


def trace_tree(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    order: HeightOrder = HeightOrder.ORIGINAL,
) -> TraceNode:
    """Build CubeMiner's full split tree (small datasets only).

    The tree is the paper's: Algorithm 2 from the miner's diced root
    (:func:`~repro.cubeminer.algorithm.search_root`) with its cutter
    list, pruning each son by the size thresholds, its track set and
    its closure checks, in that order.  Its leaves are exactly the
    cubes :func:`~repro.cubeminer.algorithm.cubeminer_mine` returns on
    the same input.  The default ``ORIGINAL`` cutter order matches the
    paper's Figure 1, which applies Table 3's cutters in their listed
    order.
    """
    l, n, m = dataset.shape
    if l * n * m > _MAX_TRACE_CELLS:
        raise ValueError(
            f"trace_tree keeps every node in memory; {l}x{n}x{m} exceeds the "
            f"{_MAX_TRACE_CELLS}-cell guard"
        )
    cube, cutters = search_root(dataset, thresholds, order)
    root = TraceNode(cube=cube, level=0, branch=Branch.ROOT)
    root.pruned = _threshold_failure(cube, thresholds)
    if root.pruned is None:
        _grow(dataset, thresholds, root, cutters)
    return root


def render_tree(
    root: TraceNode,
    dataset: Dataset3D | None = None,
    *,
    show_pruned: bool = True,
) -> str:
    """Render a traced tree as indented ASCII (Figure 1 in text form)."""
    lines: list[str] = []

    def walk(node: TraceNode, depth: int) -> None:
        if node.pruned is not None and not show_pruned:
            return
        label = node.branch.value if node.branch is not Branch.ROOT else "root"
        text = node.cube.format(dataset, with_supports=False)
        suffix = ""
        if node.pruned is not None:
            suffix = f"  [pruned: {node.pruned.value}]"
        elif node.is_leaf:
            suffix = "  [FCC]"
        cutter_text = f" via ({node.cutter.format(dataset)})" if node.cutter else ""
        lines.append(f"{'  ' * depth}{label}({text}) level={node.level}{cutter_text}{suffix}")
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)
