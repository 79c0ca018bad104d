"""Traced CubeMiner: the full split tree of Figure 1.

:func:`trace_tree` runs CubeMiner on a (small!) dataset and rebuilds
every node from the miner's node/prune events: its cube, tree level
(cutter step), branch kind and — for pruned sons — which rule fired.
The live miner checks closure only at its leaves; the trace applies the
paper's per-son closure checks on top, so it draws the paper's tree.
The paper's Figure 1 prune categories map to :class:`PruneReason` as

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

from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from .algorithm import cubeminer_mine, search_root
from .checks import height_set_closed, row_set_closed
from .cutter import Cutter, HeightOrder

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
    are the paper's tree: a live run over the same input counts at
    least as many threshold and track prunes (it walks the subtrees the
    view drops) and counts a closure prune per leaf that fails the
    leaf test instead.
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


#: The reverse of :data:`PRUNE_METRIC_FIELDS`: a prune event's counter
#: name back to its Figure 1 category.
_REASON_OF_FIELD = {name: reason for reason, name in PRUNE_METRIC_FIELDS.items()}


class _TreeBuilder:
    """Event sink rebuilding Figure 1's split tree from a live CubeMiner run.

    The miner pops a node, emits its :class:`~repro.obs.events.NodeEvent`,
    then one :class:`~repro.obs.events.PruneEvent` per son it discards;
    the sons it keeps are pushed left, middle, right and popped LIFO.
    Mirroring that stack hangs every node event on its parent's son.

    The live miner checks closure only at its leaves; the paper prunes
    by it inside the tree.  So each kept son also runs the paper's
    per-son check (left son: rows, Lemma 5; middle son: heights,
    Lemma 4; right son: heights, then rows).  A son that fails it is
    marked pruned, and the live run's nodes below it stay in the stack
    as ``None`` and are dropped.  Those subtrees hold no FCC, so the
    view keeps every leaf the live run emits.
    """

    #: The paper's closure check of each son, in order.
    _CHECKS = {
        "left": ((PruneReason.ROW_UNCLOSED, row_set_closed),),
        "middle": ((PruneReason.HEIGHT_UNCLOSED, height_set_closed),),
        "right": (
            (PruneReason.HEIGHT_UNCLOSED, height_set_closed),
            (PruneReason.ROW_UNCLOSED, row_set_closed),
        ),
    }

    def __init__(
        self, root: TraceNode, cutters: list[Cutter], dataset: Dataset3D
    ) -> None:
        self.cutters = cutters
        self.dataset = dataset
        # Kept sons awaiting their node event; None below a dropped son.
        self.pending: list[TraceNode | None] = [root]
        # The last node's sons, by event branch.
        self.sons: dict[str, TraceNode | None] = {}

    def __call__(self, event) -> None:
        if event.kind == "node":
            self.push_kept_sons()
            node = self.pending.pop()
            if event.cutter_index == len(self.cutters):
                if node is not None:
                    node.is_leaf = event.is_leaf
                return
            if node is None:
                self.sons = dict.fromkeys(("left", "middle", "right"))
                return
            cutter = self.cutters[event.cutter_index]
            heights, rows, columns = event.heights, event.rows, event.columns
            level = event.cutter_index + 1
            node.children = [
                TraceNode(
                    Cube(heights & ~(1 << cutter.height), rows, columns),
                    level, Branch.LEFT, cutter,
                ),
                TraceNode(
                    Cube(heights, rows & ~(1 << cutter.row), columns),
                    level, Branch.MIDDLE, cutter,
                ),
                TraceNode(
                    Cube(heights, rows, columns & ~cutter.columns),
                    level, Branch.RIGHT, cutter,
                ),
            ]
            self.sons = dict(zip(("left", "middle", "right"), node.children))
        elif event.kind == "prune":
            son = self.sons.pop(event.branch, None)
            if son is not None:
                son.pruned = _REASON_OF_FIELD[event.reason]

    def push_kept_sons(self) -> None:
        for branch, son in self.sons.items():
            if son is not None:
                cube = son.cube
                for reason, closed in self._CHECKS[branch]:
                    if not closed(self.dataset, cube.heights, cube.rows, cube.columns):
                        son.pruned = reason
                        son = None
                        break
            self.pending.append(son)
        self.sons = {}


def trace_tree(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    order: HeightOrder = HeightOrder.ORIGINAL,
) -> TraceNode:
    """Run CubeMiner recording the full split tree (small datasets only).

    The tree is rebuilt from the event stream of
    :func:`~repro.cubeminer.algorithm.cubeminer_mine` itself, with the
    paper's per-son closure checks applied on top: the first son on each
    path that fails one is marked and its subtree dropped.  It therefore
    shows the paper's search, whose leaves are exactly the live run's
    cubes; its root is the miner's diced root
    (:func:`~repro.cubeminer.algorithm.search_root`).  The default
    ``ORIGINAL`` cutter order matches the paper's Figure 1, which applies
    Table 3's cutters in their listed order.
    """
    l, n, m = dataset.shape
    if l * n * m > _MAX_TRACE_CELLS:
        raise ValueError(
            f"trace_tree keeps every node in memory; {l}x{n}x{m} exceeds the "
            f"{_MAX_TRACE_CELLS}-cell guard"
        )
    cube, cutters = search_root(dataset, thresholds, order)
    root = TraceNode(cube=cube, level=0, branch=Branch.ROOT)
    if not cube.satisfies(thresholds):
        h, r, c = cube.shape
        root.pruned = (
            PruneReason.MIN_H if h < thresholds.min_h
            else PruneReason.MIN_R if r < thresholds.min_r
            else PruneReason.MIN_C if c < thresholds.min_c
            else PruneReason.MIN_VOLUME
        )
        return root
    builder = _TreeBuilder(root, cutters, dataset)
    cubeminer_mine(dataset, thresholds, cutters=cutters, on_event=builder)
    builder.push_kept_sons()
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
