"""The CubeMiner algorithm (Section 5, Algorithms 1-4).

CubeMiner splits the full tensor ``(H, R, C)`` depth-first with the
cutter list Z.  At a node ``(H', R', C')`` the first applicable cutter
``(W, X, Y)`` spawns up to three sons:

* **left**   ``(H' \\ W, R', C')`` — kept if ``minH`` still holds, the
  left-track set is clean (Lemma 2), and the row set stays closed
  (Lemma 5);
* **middle** ``(H', R' \\ X, C')`` — kept if ``minR`` holds, the
  middle-track set is clean (Lemma 3), and the height set stays closed
  (Lemma 4);
* **right**  ``(H', R', C' \\ Y)`` — kept if ``minC`` holds and both
  closure checks pass.

Cutters that do not intersect a node are skipped.  A node that survives
the whole cutter list is an all-ones, closed, frequent cube (Theorem 2)
and is emitted.

The recursion of Algorithm 2 is replaced by an explicit stack: the tree
depth equals ``|Z|``, which exceeds CPython's recursion limit on any
non-toy dataset.

Every run keeps a :class:`~repro.obs.metrics.MiningMetrics` counter set
up to date (nodes, sons, per-lemma prune hits); ``on_event`` streams
typed node/prune events and ``progress``/``deadline`` give periodic
callbacks, cooperative cancellation and wall-clock budgets — a
cancelled run raises :class:`~repro.obs.progress.MiningCancelled` with
the partial result attached.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..core.bitset import bit_count, full_mask
from ..core.closure import ClosureCache, resolve_closure_cache
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.result import MiningResult, MiningStats
from ..obs import (
    EventSink,
    MineDone,
    MineStart,
    MiningCancelled,
    MiningMetrics,
    NodeEvent,
    ProgressController,
    PruneEvent,
    resolve_progress,
)
from .checks import height_set_closed, row_set_closed
from .cutter import Cutter, CutterIndex, HeightOrder, build_cutters

__all__ = ["CubeMinerStats", "cubeminer_mine", "CubeMiner"]

#: Backward-compatible alias: CubeMiner's run counters are now the
#: library-wide :class:`~repro.obs.metrics.MiningMetrics` (a superset of
#: the historical ``CubeMinerStats`` fields).
CubeMinerStats = MiningMetrics


def cubeminer_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    order: HeightOrder = HeightOrder.ZERO_DECREASING,
    cutters: list[Cutter] | None = None,
    closure_cache: "ClosureCache | int | None" = None,
    metrics: MiningMetrics | None = None,
    on_event: EventSink | None = None,
    progress: "ProgressController | Callable | None" = None,
    deadline: float | None = None,
) -> MiningResult:
    """Mine all frequent closed cubes of ``dataset`` with CubeMiner.

    Parameters
    ----------
    dataset:
        The 3D boolean context.
    thresholds:
        The three monotone minimum supports.
    order:
        Height-slice ordering heuristic for the cutter list; the default
        is the paper's winning zero-decreasing order (Section 7.1.1).
    cutters:
        Pre-built cutter list (overrides ``order``); used by the parallel
        driver and by tests that pin a specific Z.
    closure_cache:
        Closure-memoization control: ``None`` (default) runs with a
        fresh :class:`~repro.core.closure.ClosureCache`, ``0`` disables
        memoization, a positive int bounds a fresh cache to that many
        entries, and a ``ClosureCache`` instance is reused as-is.  The
        cache never changes the mined cubes — only how fast the Lemma
        4-5 checks run; its hit/miss/eviction tallies land in the run's
        metrics (``closure_cache_hits`` etc.).
    metrics:
        Counter set to accumulate into (a fresh one per run by default);
        pass a shared instance to observe the run in flight or to tally
        several runs together.
    on_event:
        Optional sink receiving typed start/node/prune/done events.
    progress:
        A :class:`~repro.obs.progress.ProgressController` or a bare
        callback taking :class:`~repro.obs.progress.ProgressUpdate`.
    deadline:
        Wall-clock budget in seconds; on expiry the run raises
        :class:`~repro.obs.progress.MiningCancelled` whose ``partial``
        attribute holds the cubes and metrics gathered so far.
    """
    start = time.perf_counter()
    stats = metrics if metrics is not None else MiningMetrics()
    controller = resolve_progress(progress, deadline)
    if cutters is None:
        cutters = build_cutters(dataset, order)
        stats.cutters_built += len(cutters)
    stats.n_cutters = len(cutters)
    algorithm = f"cubeminer[{order.value}]"
    if on_event is not None:
        on_event(
            MineStart(
                algorithm,
                dataset.shape,
                thresholds.as_tuple() + (thresholds.min_volume,),
            )
        )

    found: list[Cube] = []
    root = (full_mask(dataset.n_heights), full_mask(dataset.n_rows), full_mask(dataset.n_columns))
    try:
        if controller is not None:
            # Checkpoint once up front so a zero/expired deadline or a
            # pre-cancelled controller aborts deterministically.
            controller.checkpoint(stats, phase="cubeminer", done=0)
        if thresholds.feasible_for_shape(dataset.shape):
            found, stats = _run(
                dataset,
                thresholds,
                cutters,
                [(root, 0, 0, 0)],
                stats,
                closure_cache=resolve_closure_cache(closure_cache),
                sink=on_event,
                progress=controller,
            )
    except MiningCancelled as exc:
        elapsed = time.perf_counter() - start
        partial_cubes = list(exc.partial_cubes)
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
        cubes=found,
        algorithm=algorithm,
        thresholds=thresholds,
        dataset_shape=dataset.shape,
        elapsed_seconds=time.perf_counter() - start,
        stats=MiningStats(metrics=stats),
    )
    if on_event is not None:
        on_event(MineDone(algorithm, len(result), result.elapsed_seconds))
    return result


def _run(
    dataset: Dataset3D,
    thresholds: Thresholds,
    cutters: list[Cutter],
    stack: list[tuple[tuple[int, int, int], int, int, int]],
    stats: MiningMetrics,
    *,
    closure_cache: ClosureCache | None = None,
    sink: EventSink | None = None,
    progress: ProgressController | None = None,
    required_heights: int = -1,
) -> tuple[list[Cube], MiningMetrics]:
    """Drain a work stack of ``((H', R', C'), cutter_index, TL, TM)`` items.

    Exposed separately so the parallel driver can seed the stack with a
    single branch of the tree and replay exactly the sequential search.
    On cancellation the raised ``MiningCancelled`` carries the cubes
    found so far in ``partial_cubes``.  ``closure_cache`` memoizes the
    Lemma 4-5 closure checks (``None`` recomputes every check); its
    counter deltas are folded into ``stats`` even on cancellation.

    ``required_heights`` restricts the run to cubes whose height set
    meets that mask (``-1``, the default, is every height).  Only left
    sons drop heights and a node's descendants keep a subset of its
    heights, so a left son that loses every required height is pruned
    with its whole subtree (``pruned_required_heights``) and the run
    returns exactly the unrestricted cubes that meet the mask.
    ``stream.maintain()`` uses it to re-mine only the dirty heights.
    """
    min_h, min_r, min_c = thresholds.as_tuple()
    min_volume = thresholds.min_volume
    n_cutters = len(cutters)
    cutter_index = CutterIndex(cutters)
    first_applicable = cutter_index.first_applicable
    cache = closure_cache
    cache_base = cache.counters() if cache is not None else None
    check_every = progress.check_every if progress is not None else 0
    found: list[Cube] = []
    push = stack.append
    pop = stack.pop
    # Events fire up to four times per node; ``_make`` skips the keyword
    # machinery of the NamedTuple constructor, which is measurable here.
    node_event = NodeEvent._make
    prune_event = PruneEvent._make
    try:
        while stack:
            stats.max_stack_depth = max(stats.max_stack_depth, len(stack))
            (heights, rows, columns), index, track_left, track_middle = pop()
            stats.nodes_visited += 1
            stats.kernel_ops += 1
            if check_every and not stats.nodes_visited % check_every:
                progress.checkpoint(
                    stats, phase="cubeminer", done=stats.nodes_visited
                )
            # Skip cutters that do not intersect this node (Algorithm 2, line 6).
            index = first_applicable(heights, rows, columns, index)
            if index == n_cutters:
                # Survived every cutter: all-ones, closed, frequent (Theorem 2).
                stats.leaves_emitted += 1
                found.append(Cube(heights, rows, columns))
                if sink is not None:
                    sink(node_event((heights, rows, columns, index, True)))
                continue
            if sink is not None:
                sink(node_event((heights, rows, columns, index, False)))
            cutter = cutters[index]

            left_atom = 1 << cutter.height
            middle_atom = 1 << cutter.row
            next_index = index + 1
            if min_volume > 1:
                # Volume is monotone down the tree: each son loses cells.
                h_count = bit_count(heights)
                r_count = bit_count(rows)
                c_count = bit_count(columns)

            # Left son (H' \ W, R', C') — Algorithm 2 lines 9-14.
            son_heights = heights & ~left_atom
            if bit_count(son_heights) < min_h:
                stats.pruned_min_h += 1
                if sink is not None:
                    sink(prune_event(("left", "pruned_min_h", son_heights, rows, columns)))
            elif min_volume > 1 and (h_count - 1) * r_count * c_count < min_volume:
                stats.pruned_min_volume += 1
                if sink is not None:
                    sink(prune_event(("left", "pruned_min_volume", son_heights, rows, columns)))
            elif left_atom & track_left:
                stats.pruned_left_track += 1
                if sink is not None:
                    sink(prune_event(("left", "pruned_left_track", son_heights, rows, columns)))
            elif not son_heights & required_heights:
                stats.pruned_required_heights += 1
                if sink is not None:
                    sink(prune_event(("left", "pruned_required_heights", son_heights, rows, columns)))
            elif not row_set_closed(dataset, son_heights, rows, columns, cache=cache):
                stats.kernel_ops += 1
                stats.pruned_row_unclosed += 1
                if sink is not None:
                    sink(prune_event(("left", "pruned_row_unclosed", son_heights, rows, columns)))
            else:
                stats.kernel_ops += 1
                stats.sons_left += 1
                push(((son_heights, rows, columns), next_index, track_left, track_middle))

            # Middle son (H', R' \ X, C') — lines 15-20.
            son_rows = rows & ~middle_atom
            if bit_count(son_rows) < min_r:
                stats.pruned_min_r += 1
                if sink is not None:
                    sink(prune_event(("middle", "pruned_min_r", heights, son_rows, columns)))
            elif min_volume > 1 and h_count * (r_count - 1) * c_count < min_volume:
                stats.pruned_min_volume += 1
                if sink is not None:
                    sink(prune_event(("middle", "pruned_min_volume", heights, son_rows, columns)))
            elif middle_atom & track_middle:
                stats.pruned_middle_track += 1
                if sink is not None:
                    sink(prune_event(("middle", "pruned_middle_track", heights, son_rows, columns)))
            elif not height_set_closed(dataset, heights, son_rows, columns, cache=cache):
                stats.kernel_ops += 1
                stats.pruned_height_unclosed += 1
                if sink is not None:
                    sink(prune_event(("middle", "pruned_height_unclosed", heights, son_rows, columns)))
            else:
                stats.kernel_ops += 1
                stats.sons_middle += 1
                push(((heights, son_rows, columns), next_index, track_left | left_atom, track_middle))

            # Right son (H', R', C' \ Y) — lines 21-29.
            son_columns = columns & ~cutter.columns
            if bit_count(son_columns) < min_c:
                stats.pruned_min_c += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_min_c", heights, rows, son_columns)))
            elif (
                min_volume > 1
                and h_count * r_count * bit_count(son_columns) < min_volume
            ):
                stats.pruned_min_volume += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_min_volume", heights, rows, son_columns)))
            elif not height_set_closed(dataset, heights, rows, son_columns, cache=cache):
                stats.kernel_ops += 1
                stats.pruned_height_unclosed += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_height_unclosed", heights, rows, son_columns)))
            elif not row_set_closed(dataset, heights, rows, son_columns, cache=cache):
                stats.kernel_ops += 2
                stats.pruned_row_unclosed += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_row_unclosed", heights, rows, son_columns)))
            else:
                stats.kernel_ops += 2
                stats.sons_right += 1
                push(
                    (
                        (heights, rows, son_columns),
                        next_index,
                        track_left | left_atom,
                        track_middle | middle_atom,
                    )
                )
    except MiningCancelled as exc:
        exc.partial_cubes = found
        exc.metrics = stats
        raise
    finally:
        if cache is not None:
            hits0, misses0, evictions0 = cache_base
            stats.closure_cache_hits += cache.hits - hits0
            stats.closure_cache_misses += cache.misses - misses0
            stats.closure_cache_evictions += cache.evictions - evictions0
    return found, stats


class CubeMiner:
    """Object-style facade over :func:`cubeminer_mine`.

    Lets callers fix the ordering heuristic once and mine several
    datasets, mirroring how the other miners in the library are used::

        miner = CubeMiner(order=HeightOrder.ZERO_DECREASING)
        result = miner.mine(dataset, Thresholds(2, 2, 2))
    """

    name = "cubeminer"

    def __init__(self, order: HeightOrder = HeightOrder.ZERO_DECREASING) -> None:
        self.order = order

    def mine(self, dataset: Dataset3D, thresholds: Thresholds) -> MiningResult:
        return cubeminer_mine(dataset, thresholds, order=self.order)

    def __repr__(self) -> str:
        return f"CubeMiner(order={self.order.value!r})"
