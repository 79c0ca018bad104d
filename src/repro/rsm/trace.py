"""Traced RSM: the full phase-by-phase walk-through of Table 2.

:func:`trace_rsm` records, for every enumerated base-dimension subset,
the representative slice, the 2D FCPs mined from it, and which of the
combined 3D patterns survived Lemma-1 post-pruning.  The paper's
Table 2 is exactly :func:`render_rsm_table` on the running example with
``minH = minR = minC = 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bitset import indices
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..fcp import FCPMiner, Pattern2D
from ..fcp.matrix import BinaryMatrix
from ..obs import CollectingSink
from .algorithm import rsm_mine
from .slices import count_height_subsets, min_subset_size, representative_slice

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

    The walk-through comes from the live miner: :func:`rsm_mine` runs
    with a sink, each :class:`~repro.obs.events.SliceEvent` closes one
    subset, the ``postprune`` prune events before it are its discarded
    cubes, and the run's cubes with that height set are its kept ones.
    Only the representative slice is recomputed, for display.
    """
    if not thresholds.feasible_for_shape(dataset.shape):
        return []
    n_subsets = count_height_subsets(
        dataset.n_heights, min_subset_size(thresholds, dataset.shape)
    )
    if n_subsets > _MAX_TRACE_SUBSETS:
        raise ValueError(
            f"trace_rsm keeps every slice in memory; {n_subsets} subsets "
            f"exceed the {_MAX_TRACE_SUBSETS} guard"
        )
    sink = CollectingSink()
    result = rsm_mine(
        dataset, thresholds, base_axis="height", fcp_miner=fcp_miner, on_event=sink
    )
    kept_by_subset: dict[int, list[Cube]] = {}
    for cube in result:
        kept_by_subset.setdefault(cube.heights, []).append(cube)
    traces: list[SliceTrace] = []
    pruned: list[Cube] = []
    for event in sink.events:
        if event.kind == "prune":
            pruned.append(Cube(event.heights, event.rows, event.columns))
        elif event.kind == "slice":
            kept = sorted(kept_by_subset.get(event.heights, []), key=_pattern_key)
            pruned.sort(key=_pattern_key)
            patterns = sorted(
                (Pattern2D(cube.rows, cube.columns) for cube in kept + pruned),
                key=Pattern2D.sort_key,
            )
            traces.append(
                SliceTrace(
                    heights=event.heights,
                    slice_matrix=representative_slice(dataset, event.heights),
                    patterns=patterns,
                    kept=kept,
                    pruned=pruned,
                )
            )
            pruned = []
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
