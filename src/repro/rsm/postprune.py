"""Phase 3 of RSM: post-pruning of height-unclosed patterns (Lemma 1).

Combining a 2D FCP with its representative slice's contributing heights
gives a 3D frequent pattern that is already closed in rows and columns
(the 2D miner guarantees it — the RS row/column supports equal the 3D
ones).  It may still be unclosed in the height set: the same 2D pattern
can be contained in further slices outside the subset.  Lemma 1 prunes
exactly those, with double early termination: one zero cell dismisses a
candidate slice, one fully-covering slice dismisses the pattern.
The per-subset step that applies it, :func:`repro.rsm.algorithm.mine_slice`,
tallies the ``postprune_checked`` / ``postprune_discards`` counters.
"""

from __future__ import annotations

from ..core.bitset import full_mask
from ..core.dataset import Dataset3D
from ..core.kernels import KERNEL
from ..obs.metrics import MiningMetrics

__all__ = ["height_closed_in"]


def height_closed_in(
    dataset: Dataset3D,
    heights: int,
    rows: int,
    columns: int,
    *,
    metrics: MiningMetrics | None = None,
) -> bool:
    """True when no height outside ``heights`` covers ``rows x columns``.

    This is Lemma 1's retention condition — the same predicate as
    CubeMiner's Hcheck (Lemma 4): one kernel support sweep over the
    heights outside the subset must come back empty.  When ``metrics``
    is given, the sweep is tallied into ``kernel_ops``.
    """
    if metrics is not None:
        metrics.kernel_ops += 1
    outside = full_mask(dataset.n_heights) & ~heights
    return (
        KERNEL.grid_supporting_heights(
            dataset.ones_grid(), rows, columns, candidates=outside
        )
        == 0
    )
