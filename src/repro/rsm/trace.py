"""Traced RSM: the full phase-by-phase walk-through of Table 2.

:func:`trace_rsm` records, for every base-dimension subset the paper's
RSM enumerates, the representative slice, the 2D FCPs mined from it,
and which of the combined 3D patterns survived Lemma-1 post-pruning.
The paper's Table 2 is exactly :func:`render_rsm_table` on the running
example with ``minH = minR = minC = 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bitset import indices
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..fcp import FCPMiner, Pattern2D, get_fcp_miner
from ..fcp.matrix import BinaryMatrix
from ..obs import CollectingSink, MiningMetrics
from .algorithm import mine_slice
from .slices import (
    count_height_subsets,
    enumerate_height_subsets,
    min_subset_size,
    representative_slice,
)

__all__ = ["SliceTrace", "trace_rsm", "render_rsm_table"]

_MAX_TRACE_SUBSETS = 1024


@dataclass
class SliceTrace:
    """Everything RSM did for one enumerated height subset."""

    heights: int
    slice_matrix: BinaryMatrix
    patterns: list[Pattern2D]
    kept: list[Cube]
    pruned: list[Cube]


def trace_rsm(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    fcp_miner: str | FCPMiner = "dminer",
) -> list[SliceTrace]:
    """Run RSM (height base axis) recording each phase per subset.

    The walk-through is the paper's: every subset of at least
    :func:`~repro.rsm.slices.min_subset_size` heights, in size-major
    order, through RSM's own per-subset step
    (:func:`~repro.rsm.algorithm.mine_slice`), with none of the
    live walk's cuts.  A subset's ``postprune`` prune events are its
    discarded cubes.
    """
    if not thresholds.feasible_for_shape(dataset.shape):
        return []
    first = min_subset_size(thresholds, dataset.shape)
    n_subsets = count_height_subsets(dataset.n_heights, first)
    if n_subsets > _MAX_TRACE_SUBSETS:
        raise ValueError(
            f"trace_rsm keeps every slice in memory; {n_subsets} subsets "
            f"exceed the {_MAX_TRACE_SUBSETS} guard"
        )
    miner = get_fcp_miner(fcp_miner) if isinstance(fcp_miner, str) else fcp_miner
    metrics = MiningMetrics()
    traces: list[SliceTrace] = []
    for heights in enumerate_height_subsets(dataset.n_heights, first):
        rs = representative_slice(dataset, heights)
        sink = CollectingSink()
        kept = mine_slice(dataset, heights, rs, thresholds, miner, metrics, sink)
        pruned = [
            Cube(event.heights, event.rows, event.columns)
            for event in sink.events
            if event.kind == "prune"
        ]
        kept.sort(key=_pattern_key)
        pruned.sort(key=_pattern_key)
        patterns = sorted(
            (Pattern2D(cube.rows, cube.columns) for cube in kept + pruned),
            key=Pattern2D.sort_key,
        )
        traces.append(SliceTrace(heights, rs, patterns, kept, pruned))
    return traces


def _pattern_key(cube: Cube) -> tuple[int, int]:
    return (cube.rows, cube.columns)


def render_rsm_table(traces: list[SliceTrace], dataset: Dataset3D) -> str:
    """Render the traces in the layout of the paper's Table 2."""
    lines = ["Height Set | Representative Slice | 2D FCPs | 3D FCCs"]
    for trace in traces:
        height_names = ", ".join(
            dataset.height_labels[k] for k in indices(trace.heights)
        )
        slice_rows = [
            "".join("1" if trace.slice_matrix.cell(i, j) else "0"
                    for j in range(trace.slice_matrix.n_columns))
            for i in range(trace.slice_matrix.n_rows)
        ]
        fcp_texts = [str(p) for p in trace.patterns] or ["-"]
        fcc_texts = [c.format(dataset) for c in trace.kept] or ["-"]
        width = max(len(slice_rows), len(fcp_texts), len(fcc_texts))
        slice_rows += [""] * (width - len(slice_rows))
        fcp_texts += [""] * (width - len(fcp_texts))
        fcc_texts += [""] * (width - len(fcc_texts))
        for idx in range(width):
            head = height_names if idx == 0 else ""
            lines.append(
                f"{head:<12}| {slice_rows[idx]:<22}| {fcp_texts[idx]:<28}| {fcc_texts[idx]}"
            )
        lines.append("-" * 80)
    return "\n".join(lines)
