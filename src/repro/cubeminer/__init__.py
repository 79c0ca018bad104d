"""CubeMiner: direct 3D mining of frequent closed cubes (Section 5)."""

from ..core.closure import height_set_closed, row_set_closed
from .algorithm import CubeMiner, CubeMinerStats, cubeminer_mine, search_root
from .cutter import Cutter, HeightOrder, build_cutters, height_permutation
from .trace import (
    PRUNE_METRIC_FIELDS,
    Branch,
    PruneReason,
    TraceNode,
    prune_counts,
    render_tree,
    trace_tree,
)

__all__ = [
    "CubeMiner",
    "CubeMinerStats",
    "cubeminer_mine",
    "search_root",
    "height_set_closed",
    "row_set_closed",
    "Cutter",
    "HeightOrder",
    "build_cutters",
    "height_permutation",
    "Branch",
    "PruneReason",
    "TraceNode",
    "PRUNE_METRIC_FIELDS",
    "prune_counts",
    "render_tree",
    "trace_tree",
]
