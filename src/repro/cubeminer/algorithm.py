"""The CubeMiner algorithm (Section 5, Algorithms 1-4).

CubeMiner splits its root depth-first with the cutter list Z.  The
paper's root is the full tensor ``(H, R, C)``; here it is the
diamond-diced region (:func:`search_root`): the heights, rows and
columns that can belong to a cube meeting the thresholds, in the
caller's own coordinates.  At a node ``(H', R', C')`` the first
applicable cutter ``(W, X, Y)`` spawns up to three sons:

* **left**   ``(H' \\ W, R', C')`` — kept if ``minH`` still holds and
  the left-track set is clean (Lemma 2);
* **middle** ``(H', R' \\ X, C')`` — kept if ``minR`` holds and the
  middle-track set is clean (Lemma 3);
* **right**  ``(H', R', C' \\ Y)`` — kept if ``minC`` holds.

Cutters that do not intersect a node are skipped.  A node that survives
the whole cutter list is an all-ones frequent cube.  The paper prunes
every son that fails its closure check (Lemma 4 on heights, Lemma 5 on
rows); this engine checks closure once, at that leaf, and emits the
leaf only if its height set and its row set are closed.  Its column
set needs no check: every column a right son drops is a zero of the
cutter's height and row, which the son's descendants all keep (the
track sets).  The interior checks only cut subtrees that hold no
closed cube (an element that covers a node covers all its
descendants), so both engines emit the same cubes.

In their place the engine prunes by the track sets.  Every cube below a
node contains ``track_left x track_middle`` (Lemmas 2-3), so its
columns lie in the node's *track core*, the columns that are ones on
all of that grid.  A middle or right son that grows a track set
narrows its columns to that core, drops each height outside
``track_left`` that shares fewer than ``minC`` core columns with all
of ``track_middle`` and each row outside ``track_middle`` that shares
fewer than ``minC`` with all of ``track_left``, and is pruned when a
threshold then fails (``pruned_track_core``).  The rule drops only
elements no cube below the son can hold, so the cubes are unchanged;
on the paper's workloads it cuts most of the tree.

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
from collections import deque
from collections.abc import Callable

from ..core.closure import height_set_closed, row_set_closed
from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.dice import DICE_KEPT_SHAPE, diamond_dice
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
from .cutter import Cutter, CutterIndex, HeightOrder, build_cutters

__all__ = [
    "CubeMinerStats",
    "cubeminer_mine",
    "search_root",
    "cubeminer_tasks",
    "CubeMiner",
]

#: A node of the tree with its resume state: ``((H', R', C'),
#: cutter_index, TL, TM)``.  The engine's work items and the parallel
#: driver's tasks are both these tuples.
StackItem = tuple[tuple[int, int, int], int, int, int]

#: Backward-compatible alias: CubeMiner's run counters are now the
#: library-wide :class:`~repro.obs.metrics.MiningMetrics` (a superset of
#: the historical ``CubeMinerStats`` fields).
CubeMinerStats = MiningMetrics


def search_root(
    dataset: Dataset3D,
    thresholds: Thresholds,
    order: HeightOrder = HeightOrder.ZERO_DECREASING,
    *,
    cutters: list[Cutter] | None = None,
    metrics: MiningMetrics | None = None,
) -> tuple[Cube, list[Cutter]]:
    """The root of the CubeMiner tree and the cutter list Z over it.

    The root is the :func:`~repro.core.dice.diamond_dice` region: every
    member of a cube meeting ``thresholds`` lies inside it, and no
    height, row or column outside it can cover a node that meets them,
    so the leaf closure checks (run against the whole tensor) and the
    emitted cubes are those of a search from the full tensor.  Z
    is built over the region (:func:`build_cutters`) unless the caller
    pins ``cutters``; cutters outside the region never apply.  When
    ``metrics`` is given, the cutter list is tallied into it.  A root
    that fails ``root.satisfies(thresholds)`` holds no cube.
    """
    root = diamond_dice(dataset, thresholds).as_cube()
    if cutters is None:
        cutters = build_cutters(dataset, order, root)
        if metrics is not None:
            metrics.cutters_built += len(cutters)
    if metrics is not None:
        metrics.n_cutters = len(cutters)
    return root, cutters


def cubeminer_tasks(
    dataset: Dataset3D,
    thresholds: Thresholds,
    root: Cube,
    cutters: list[Cutter],
    min_tasks: int,
    metrics: MiningMetrics | None = None,
    on_event: EventSink | None = None,
) -> tuple[list[StackItem], list[Cube]]:
    """Split the tree grown from ``root`` into >= ``min_tasks`` branches.

    ``root`` and ``cutters`` are the pair :func:`search_root` returns.
    The engine runs breadth-first until its stack holds ``min_tasks``
    items (``_run(frontier=)``); those items are the tasks, each a
    self-contained continuation of the sequential search, and the
    leaves reached on the way are returned as already-found cubes.
    Replaying every task therefore yields exactly the sequential cubes
    and, with the expansion tallied into ``metrics``, its counters.
    """
    if min_tasks < 1:
        raise ValueError(f"min_tasks must be >= 1, got {min_tasks}")
    stack: deque[StackItem] = deque()
    if root.satisfies(thresholds):
        stack.append(((root.heights, root.rows, root.columns), 0, 0, 0))
    done, _ = _run(
        dataset,
        thresholds,
        cutters,
        stack,
        metrics if metrics is not None else MiningMetrics(),
        sink=on_event,
        frontier=min_tasks,
    )
    return list(stack), done


def cubeminer_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    order: HeightOrder = HeightOrder.ZERO_DECREASING,
    cutters: list[Cutter] | None = None,
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
        Pre-built cutter list (overrides ``order``); used by tests to
        pin a specific Z.
        The search still starts at the diced root (:func:`search_root`).
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
    root, cutters = search_root(
        dataset, thresholds, order, cutters=cutters, metrics=stats
    )
    extra = {DICE_KEPT_SHAPE: list(root.shape)}
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
    try:
        if controller is not None:
            # Checkpoint once up front so a zero/expired deadline or a
            # pre-cancelled controller aborts deterministically.
            controller.checkpoint(stats, phase="cubeminer", done=0)
        if root.satisfies(thresholds):
            found, stats = _run(
                dataset,
                thresholds,
                cutters,
                [((root.heights, root.rows, root.columns), 0, 0, 0)],
                stats,
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
            stats=MiningStats(metrics=stats, extra=extra),
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
        stats=MiningStats(metrics=stats, extra=extra),
    )
    if on_event is not None:
        on_event(MineDone(algorithm, len(result), result.elapsed_seconds))
    return result


#: Entries a :class:`_Profiles` memo keeps before it starts over, which
#: bounds its memory on wide tensors.
_PROFILE_ENTRIES = 256


class _Profiles(dict):
    """Memo of track profiles, keyed by a track mask ``t``.

    The profile of ``t`` is the list whose ``x``-th entry is the AND of
    ``planes[b][x]`` over the bits ``b`` of ``t``: with ``planes`` the
    ones masks by row, the columns each height shares with every row of
    TM; by height, those each row shares with every height of TL.
    """

    __slots__ = ("planes",)

    def __init__(self, planes: list[list[int]]) -> None:
        super().__init__()
        self.planes = planes

    def __missing__(self, track: int) -> list[int]:
        # Peel low bits off down to a known suffix, then fold them back
        # in one plane at a time, keeping every step.
        peeled = []
        rest = track
        while rest and rest not in self:
            low = rest & -rest
            peeled.append(low)
            rest ^= low
        profile = self[rest] if rest else None
        if len(self) + len(peeled) > _PROFILE_ENTRIES:
            self.clear()
        for low in reversed(peeled):
            plane = self.planes[low.bit_length() - 1]
            profile = plane if profile is None else [a & b for a, b in zip(profile, plane)]
            rest |= low
            self[rest] = profile
        return profile  # type: ignore[return-value]


def _run(
    dataset: Dataset3D,
    thresholds: Thresholds,
    cutters: list[Cutter],
    stack: list[StackItem] | deque[StackItem],
    stats: MiningMetrics,
    *,
    sink: EventSink | None = None,
    progress: ProgressController | None = None,
    required_heights: int = -1,
    frontier: int = 0,
) -> tuple[list[Cube], MiningMetrics]:
    """Drain a work stack of :data:`StackItem` tuples.

    Exposed separately so the parallel driver can seed the stack with
    branches of the tree and replay exactly the sequential search.
    On cancellation the raised ``MiningCancelled`` carries the cubes
    found so far in ``partial_cubes``.

    A leaf (a node no cutter applies to) runs Lemma 4 and then Lemma 5
    as kernel sweeps (:func:`~repro.core.closure.height_set_closed`,
    :func:`~repro.core.closure.row_set_closed`).  A leaf that fails
    one emits its node event (``is_leaf=False``) and one ``"leaf"``
    prune event, counted under ``pruned_height_unclosed`` or
    ``pruned_row_unclosed``, so every visited node still emits exactly
    one node event.

    A son that passes the paper's prunes and grows a track set then
    runs the track-core rule (see the module docstring).  A middle son
    whose ``W`` joins ``TL`` ANDs ``ones[W][i]`` for each ``i`` in
    ``TM`` into its columns; a right son also ANDs ``ones[k][X]`` for
    each ``k`` in ``TL`` when ``X`` joins ``TM``.  With ``TM``
    non-empty, the son then drops its incompatible heights and rows.
    It is pruned, with one ``pruned_track_core`` prune event, when
    ``minH``, ``minR``, ``minC`` or the volume fails or no required
    height is left.  Each item on the stack keeps ``C`` inside its
    track core, so the rule needs no state beyond the 4-tuple; the
    per-track AND profiles it reads are memoized per run.

    ``required_heights`` restricts the run to cubes whose height set
    meets that mask (``-1``, the default, is every height).  A node's
    descendants keep a subset of its heights, so a left son that loses
    every required height is pruned with its whole subtree
    (``pruned_required_heights``), as is a son whose track-core drops
    lose it (``pruned_track_core``), and the run returns exactly the
    unrestricted cubes that meet the mask.
    ``stream.maintain()`` uses it to re-mine only the dirty heights.

    ``frontier > 0`` is the parallel driver's task split
    (:func:`cubeminer_tasks`): ``stack`` must then be a ``deque``, it
    is drained first-in first-out (breadth-first), and the run returns
    as soon as it holds ``frontier`` items, leaving them in ``stack``.
    """
    min_h, min_r, min_c = thresholds.as_tuple()
    min_volume = thresholds.min_volume
    n_cutters = len(cutters)
    first_applicable = CutterIndex(cutters).first_applicable
    check_every = progress.check_every if progress is not None else 0
    found: list[Cube] = []
    push = stack.append
    pop = stack.popleft if frontier else stack.pop  # type: ignore[union-attr]
    # Events fire up to four times per node; ``_make`` skips the keyword
    # machinery of the NamedTuple constructor, which is measurable here.
    node_event = NodeEvent._make
    prune_event = PruneEvent._make
    # ones[k][i] and its transpose, the planes the track profiles fold.
    ones = dataset.ones_masks()
    ones_by_row = [list(plane) for plane in zip(*ones)]
    height_profiles = _Profiles(ones_by_row)  # by TM: [AND_{i in TM} ones[k][i] per k]
    row_profiles = _Profiles(ones)  # by TL: [AND_{k in TL} ones[k][i] per i]

    def track_core(
        heights: int, rows: int, columns: int, track_left: int, track_middle: int
    ) -> tuple[int, int] | None:
        """Rules (b) and (c) on a son whose ``columns`` are its track core.

        Returns the son's heights and rows without the elements that
        cannot join ``track_left x track_middle`` in ``min_c`` of its
        columns, or ``None`` when the son can hold no frequent cube.
        """
        if columns.bit_count() < min_c:
            return None
        per_height = height_profiles[track_middle]
        free = heights & ~track_left
        while free:
            low = free & -free
            if (columns & per_height[low.bit_length() - 1]).bit_count() < min_c:
                heights ^= low
            free ^= low
        per_row = row_profiles[track_left]
        free = rows & ~track_middle
        while free:
            low = free & -free
            if (columns & per_row[low.bit_length() - 1]).bit_count() < min_c:
                rows ^= low
            free ^= low
        h_count = heights.bit_count()
        r_count = rows.bit_count()
        if (
            h_count < min_h
            or r_count < min_r
            or h_count * r_count * columns.bit_count() < min_volume
            or not heights & required_heights
        ):
            return None
        return heights, rows

    try:
        while stack:
            if frontier and len(stack) >= frontier:
                break
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
                # Survived every cutter: an all-ones frequent cube with a
                # closed column set.  Emit it if its heights and rows are
                # closed too (Lemmas 4-5).
                stats.kernel_ops += 1
                if not height_set_closed(dataset, heights, rows, columns):
                    stats.pruned_height_unclosed += 1
                    reason = "pruned_height_unclosed"
                else:
                    stats.kernel_ops += 1
                    if not row_set_closed(dataset, heights, rows, columns):
                        stats.pruned_row_unclosed += 1
                        reason = "pruned_row_unclosed"
                    else:
                        stats.leaves_emitted += 1
                        found.append(Cube(heights, rows, columns))
                        if sink is not None:
                            sink(node_event((heights, rows, columns, index, True)))
                        continue
                if sink is not None:
                    sink(node_event((heights, rows, columns, index, False)))
                    sink(prune_event(("leaf", reason, heights, rows, columns)))
                continue
            if sink is not None:
                sink(node_event((heights, rows, columns, index, False)))
            cutter = cutters[index]

            left_atom = 1 << cutter.height
            middle_atom = 1 << cutter.row
            next_index = index + 1
            if min_volume > 1:
                # Volume is monotone down the tree: each son loses cells.
                h_count = heights.bit_count()
                r_count = rows.bit_count()
                c_count = columns.bit_count()

            # Left son (H' \ W, R', C') — Algorithm 2 lines 9-14.
            son_heights = heights & ~left_atom
            if son_heights.bit_count() < min_h:
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
            else:
                stats.sons_left += 1
                push(((son_heights, rows, columns), next_index, track_left, track_middle))

            # Middle son (H', R' \ X, C') — lines 15-20.
            son_rows = rows & ~middle_atom
            if son_rows.bit_count() < min_r:
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
            else:
                son_columns = columns
                kept: tuple[int, int] | None = (heights, son_rows)
                if track_middle and not left_atom & track_left:
                    # W joins TL: AND in ones[W][i] for every i in TM.
                    son_columns &= height_profiles[track_middle][cutter.height]
                    kept = track_core(
                        heights, son_rows, son_columns, track_left | left_atom, track_middle
                    )
                if kept is None:
                    stats.pruned_track_core += 1
                    if sink is not None:
                        sink(prune_event(("middle", "pruned_track_core", heights, son_rows, columns)))
                else:
                    stats.sons_middle += 1
                    push(((*kept, son_columns), next_index, track_left | left_atom, track_middle))

            # Right son (H', R', C' \ Y) — lines 21-29.
            son_columns = columns & ~cutter.columns
            if son_columns.bit_count() < min_c:
                stats.pruned_min_c += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_min_c", heights, rows, son_columns)))
            elif (
                min_volume > 1
                and h_count * r_count * son_columns.bit_count() < min_volume
            ):
                stats.pruned_min_volume += 1
                if sink is not None:
                    sink(prune_event(("right", "pruned_min_volume", heights, rows, son_columns)))
            else:
                # W joins TL and X joins TM (at least one is new: the
                # cutter meets no node whose core holds both).
                core_columns = son_columns
                if track_middle and not left_atom & track_left:
                    core_columns &= height_profiles[track_middle][cutter.height]
                if track_left and not middle_atom & track_middle:
                    core_columns &= row_profiles[track_left][cutter.row]
                son_track_left = track_left | left_atom
                son_track_middle = track_middle | middle_atom
                kept = track_core(
                    heights, rows, core_columns, son_track_left, son_track_middle
                )
                if kept is None:
                    stats.pruned_track_core += 1
                    if sink is not None:
                        sink(prune_event(("right", "pruned_track_core", heights, rows, son_columns)))
                else:
                    stats.sons_right += 1
                    push(((*kept, core_columns), next_index, son_track_left, son_track_middle))
    except MiningCancelled as exc:
        exc.partial_cubes = found
        exc.metrics = stats
        raise
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
