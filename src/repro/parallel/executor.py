"""Parallel FCC mining with worker processes (Section 6, phases b-c).

Every worker sees the full dataset (matching the paper's "each
processor requires a copy of the entire dataset") and then executes its
allocated tasks without any inter-worker communication, so the task
chunks alone partition the work.  A pooled run publishes the dataset
once into shared memory (:mod:`repro.parallel.shm`) and ships workers
only an O(1) :class:`~repro.parallel.shm.ShmDatasetRef`; workers attach
the segment as their dataset's word storage with zero copies, and where
publishing fails (no ``/dev/shm``) the run falls back to pickling the
dataset into each worker.

* :func:`parallel_rsm_mine` — tasks are disjoint subtrees of RSM's
  base-subset walk (:func:`~repro.rsm.slices.split_subtrees`); a
  worker walks each one, cutting as a sequential run cuts, mines every
  surviving representative slice with the 2D miner and post-prunes
  locally.
* :func:`parallel_cubeminer_mine` — tasks are frontier branches of the
  splitting tree, which the driver grows by running the sequential
  engine breadth-first (:func:`~repro.cubeminer.algorithm.cubeminer_tasks`);
  a worker resumes that engine from the branch's node, cutter index and
  track sets.

Both drivers are thin fronts over one driver body (``_drive``): each
supplies its task list, its chunk worker and initializer state, its
triple→cube mapping and its ``extra`` fields.  The body dispatches the
task chunks through :func:`~repro.parallel.supervisor.run_supervised`,
which supervises the pool: worker crashes and hung chunks are detected,
failed chunks retry with exponential backoff under a bounded budget, a
poisoned pool is re-spawned (and, past ``max_pool_restarts``, the run
degrades to inline sequential execution), and completed chunks
optionally stream to a checkpoint journal so an interrupted run can
resume (``checkpoint_path=`` / ``resume=``).  ``n_workers == 1`` and
trivially small task lists run inline through the same code path, so
results and tests do not depend on multiprocessing availability and
both paths share one result/metrics shape — including on cancellation.

Instrumentation: each worker accumulates its own
:class:`~repro.obs.metrics.MiningMetrics` and ships it back with its
chunk result; the driver merges each chunk's tallies exactly once
(failed attempts return nothing), so a parallel run — even one that
retried faults — reports the counter totals a sequential run would,
except ``max_stack_depth`` (each chunk has its own stack) and the
pool-only ``workers_merged`` and ``shm_*``.  Progress checkpoints and deadlines
are evaluated in the driver between chunk completions (and inside the
engine on the inline path).  Worker-side event sinks, being arbitrary
callables, do not cross process boundaries and only fire on the inline
path; CubeMiner's frontier expansion and the supervision events
(``TaskFailed``, ``TaskRetried``, ``PoolRestarted``,
``CheckpointWritten``) fire driver-side and therefore always reach
``on_event``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from ..core.constraints import Thresholds
from ..core.cube import Cube
from ..core.dataset import Dataset3D
from ..core.dice import DICE_KEPT_SHAPE
from ..core.result import MiningResult, MiningStats
from ..cubeminer.algorithm import StackItem, _run, cubeminer_tasks, search_root
from ..cubeminer.cutter import HeightOrder
from ..fcp import get_fcp_miner
from ..obs import (
    EventSink,
    MineDone,
    MineStart,
    MiningCancelled,
    MiningMetrics,
    ProgressController,
    resolve_progress,
)
from ..rsm.algorithm import mine_slice, plan_subsets
from ..rsm.slices import count_height_subsets, iter_size_slices, split_subtrees
from .checkpoint import CheckpointJournal, run_fingerprint
from .faults import FaultPlan
from .shm import ShmDatasetRef, ShmError, ShmManager, attach_dataset, publish_dataset
from .supervisor import RetryPolicy, run_supervised

__all__ = ["parallel_rsm_mine", "parallel_cubeminer_mine"]

#: Task chunks handed to each worker (load-balancing granularity).
CHUNKS_PER_WORKER = 4
#: parallel-cubeminer and parallel-rsm split their trees into at least
#: this many tasks per worker.
TASKS_PER_WORKER = 8

Triple = tuple[int, int, int]

# ----------------------------------------------------------------------
# Worker-side state and functions (must be importable at top level).
# ----------------------------------------------------------------------
_worker_dataset: Dataset3D | None = None
_worker_thresholds: Thresholds | None = None
#: Per-algorithm worker state: the 2D miner name and the smallest subset
#: size for parallel-rsm, the cutter list for parallel-cubeminer.
_worker_context = None
_worker_attachment = None  # keeps a zero-copy shm segment mapped


def _init_worker(
    payload: "Dataset3D | ShmDatasetRef",
    thresholds: Thresholds,
    context,
) -> None:
    """Install this worker's dataset, thresholds and algorithm context.

    A :class:`ShmDatasetRef` attaches to the published segment (held
    open in ``_worker_attachment`` for the process lifetime); a plain
    dataset is the pickled fallback.
    """
    global _worker_dataset, _worker_thresholds, _worker_context
    global _worker_attachment
    if isinstance(payload, ShmDatasetRef):
        _worker_attachment = attach_dataset(payload)
        _worker_dataset = _worker_attachment.dataset
    else:
        _worker_dataset = payload
    _worker_thresholds = thresholds
    _worker_context = context


def _rsm_worker_chunk(
    subtrees: list[tuple[int, int]],
    progress: ProgressController | None = None,
    sink: EventSink | None = None,
    metrics: MiningMetrics | None = None,
) -> tuple[list[Triple], dict[str, int]]:
    """Walk and mine a chunk of subset subtrees.

    The chunk goes through :func:`~repro.rsm.slices.iter_size_slices`,
    which cuts and folds as a sequential run does.  Returns the raw
    cube triples plus the chunk's counter tallies (as a picklable
    dict).  ``progress``/``sink``/``metrics`` are only bound on the
    inline path — pool workers run with the defaults and the driver
    merges their returned tallies.
    """
    dataset = _worker_dataset
    thresholds = _worker_thresholds
    assert dataset is not None and thresholds is not None
    assert _worker_context is not None
    miner_name, min_size = _worker_context
    stats = metrics if metrics is not None else MiningMetrics()
    before = stats.copy()
    miner = get_fcp_miner(miner_name)
    total = sum(
        count_height_subsets(dataset.n_heights - lo, min_size - heights.bit_count())
        for heights, lo in subtrees
    )
    found: list[Triple] = []
    try:
        slices = iter_size_slices(
            dataset, thresholds, min_size, metrics=stats, subtrees=subtrees
        )
        for heights, rs in slices:
            for cube in mine_slice(dataset, heights, rs, thresholds, miner, stats, sink):
                found.append((cube.heights, cube.rows, cube.columns))
            if progress is not None:
                done = (
                    stats.rs_slices_mined
                    - before.rs_slices_mined
                    + stats.rs_slices_skipped
                    - before.rs_slices_skipped
                )
                progress.checkpoint(
                    stats, phase="parallel-rsm", done=done, total=total
                )
    except MiningCancelled as exc:
        exc.partial_cubes = found
        exc.metrics = stats
        raise
    return found, stats.as_dict()


def _cubeminer_worker_chunk(
    tasks: list[StackItem],
    progress: ProgressController | None = None,
    sink: EventSink | None = None,
    metrics: MiningMetrics | None = None,
) -> tuple[list[Triple], dict[str, int]]:
    """Resume the sequential engine on a chunk of tree branches."""
    dataset = _worker_dataset
    thresholds = _worker_thresholds
    cutters = _worker_context
    assert dataset is not None and thresholds is not None and cutters is not None
    stats = metrics if metrics is not None else MiningMetrics()
    stack = list(tasks)  # _run drains it; a retried chunk needs its tasks
    try:
        cubes, stats = _run(
            dataset, thresholds, cutters, stack, stats, sink=sink, progress=progress
        )
    except MiningCancelled as exc:
        exc.partial_cubes = [
            (cube.heights, cube.rows, cube.columns) for cube in exc.partial_cubes
        ]
        raise
    return [(cube.heights, cube.rows, cube.columns) for cube in cubes], stats.as_dict()


# ----------------------------------------------------------------------
# Driver body
# ----------------------------------------------------------------------
def _chunked(items: list, n_chunks: int) -> list[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    size, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for c in range(n_chunks):
        end = start + size + (1 if c < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def _prepare_transport(
    dataset: Dataset3D,
    n_workers: int,
    n_chunks: int,
    stats: MiningMetrics,
    extra: dict,
) -> "tuple[Dataset3D | ShmDatasetRef, ShmManager | None]":
    """Decide how the dataset reaches the workers and publish if shm.

    Shared memory is used exactly when a worker pool will actually run
    (more than one worker and chunk) and the dataset is non-empty; the
    decision is a pure function of the call configuration, so clean,
    faulty and resumed runs of one config report identical transport
    counters.  A publish failure (e.g. no ``/dev/shm``) falls back to
    the pickled dataset and is recorded in ``extra["shm"]["error"]``.
    """
    if not (n_workers > 1 and n_chunks > 1 and min(dataset.shape) > 0):
        extra["shm"] = {"enabled": False}
        return dataset, None
    manager = ShmManager()
    try:
        ref = publish_dataset(dataset, manager)
    except (ShmError, OSError) as exc:
        manager.cleanup()
        extra["shm"] = {"enabled": False, "error": repr(exc)}
        return dataset, None
    stats.shm_datasets_published += 1
    extra["shm"] = {
        "enabled": True,
        "segment": ref.segment,
        "nbytes": ref.nbytes,
    }
    return ref, manager


def _open_journal(
    checkpoint_path: "str | Path | None",
    *,
    algorithm: str,
    dataset_shape: tuple[int, int, int],
    thresholds: Thresholds,
    chunks: list[list],
    resume: bool,
) -> CheckpointJournal | None:
    if checkpoint_path is None:
        return None
    return CheckpointJournal.open(
        checkpoint_path,
        algorithm=algorithm,
        fingerprint=run_fingerprint(
            algorithm,
            dataset_shape,
            thresholds.as_tuple() + (thresholds.min_volume,),
            chunks,
        ),
        n_chunks=len(chunks),
        resume=resume,
    )


def _drive(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    algorithm: str,
    phase: str,
    plan: Callable[[], tuple[list, list[Cube], dict]],
    worker_fn: Callable,
    working: Dataset3D,
    worker_state: tuple,
    to_cube: Callable[[Triple], Cube],
    start: float,
    stats: MiningMetrics,
    n_workers: int,
    retries: int = 2,
    task_timeout: float | None = None,
    backoff: float = 0.1,
    checkpoint_path: "str | Path | None" = None,
    resume: bool = False,
    fault_plan: FaultPlan | None = None,
    on_event: EventSink | None = None,
    progress: "ProgressController | callable | None" = None,
    deadline: float | None = None,
) -> MiningResult:
    """Run one parallel mine; the public drivers differ only in the
    arguments they pass.

    The keyword arguments from ``retries`` on are the supervision and
    observability knobs both public drivers accept and forward here
    unchanged as ``**supervision``.

    ``plan()`` runs after the first deadline checkpoint and returns the
    task list, the cubes already found while planning (CubeMiner's
    frontier expansion) and the variant's ``extra`` fields.  Workers
    receive ``working`` (the dataset in the variant's axis order) and
    ``worker_state`` (thresholds and context for :func:`_init_worker`);
    ``to_cube`` maps their raw triples back to the caller's axes.
    """
    policy = RetryPolicy(retries=retries, task_timeout=task_timeout, backoff=backoff)
    controller = resolve_progress(progress, deadline)
    if on_event is not None:
        on_event(
            MineStart(
                algorithm,
                dataset.shape,
                thresholds.as_tuple() + (thresholds.min_volume,),
            )
        )
    tasks: list = []
    found: list[Cube] = []
    extra: dict = {}
    recovery: dict | None = None

    def finish(raw: list[Triple]) -> MiningResult:
        info: dict = {"n_tasks": len(tasks), "n_workers": n_workers, **extra}
        if recovery is not None:
            info["recovery"] = recovery
        return MiningResult(
            cubes=found + [to_cube(triple) for triple in raw],
            algorithm=algorithm,
            thresholds=thresholds,
            dataset_shape=dataset.shape,
            elapsed_seconds=time.perf_counter() - start,
            stats=MiningStats(metrics=stats, extra=info),
        )

    try:
        # Checkpoint before planning: RSM's subset enumeration is
        # exponential in the base dimension and CubeMiner's frontier
        # expansion mines real tree nodes, so an expired deadline must
        # abort before either.
        if controller is not None:
            controller.checkpoint(stats, phase=phase, done=0)
        tasks, found, extra = plan()
        if controller is not None:
            controller.checkpoint(stats, phase=phase, done=0, total=len(tasks))
        chunks = _chunked(tasks, n_workers * CHUNKS_PER_WORKER) if tasks else []
        # The journal stores the workers' raw triples; the fingerprint
        # binds it to this exact decomposition.  Cubes found while
        # planning are deterministic re-derivations on resume, so the
        # journal only needs the chunk results.
        journal = _open_journal(
            checkpoint_path,
            algorithm=algorithm,
            dataset_shape=dataset.shape,
            thresholds=thresholds,
            chunks=chunks,
            resume=resume,
        )
        payload, shm_manager = _prepare_transport(
            working, n_workers, len(chunks), stats, extra
        )
        try:
            raw, recovery = run_supervised(
                chunks,
                worker_fn,
                _init_worker,
                (payload,) + worker_state,
                n_workers,
                stats=stats,
                policy=policy,
                controller=controller,
                sink=on_event,
                phase=phase,
                journal=journal,
                fault_plan=fault_plan,
            )
        finally:
            if journal is not None:
                journal.close()
            if shm_manager is not None:
                shm_manager.cleanup()
    except MiningCancelled as exc:
        elapsed = time.perf_counter() - start
        exc.metrics = stats
        exc.partial = finish(list(exc.partial_cubes))
        if on_event is not None:
            on_event(MineDone(algorithm, len(exc.partial), elapsed, cancelled=True))
        raise

    result = finish(raw)
    if on_event is not None:
        on_event(MineDone(algorithm, len(result), result.elapsed_seconds))
    return result


# ----------------------------------------------------------------------
# Public drivers
# ----------------------------------------------------------------------
def parallel_rsm_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    n_workers: int = 2,
    base_axis: int | str = "auto",
    fcp_miner: str = "dminer",
    metrics: MiningMetrics | None = None,
    **supervision,
) -> MiningResult:
    """Parallel RSM: fan subtrees of the base-subset walk across processes.

    The walk is split into at least ``TASKS_PER_WORKER`` subtrees per
    worker; a task is a ``(heights, lo)`` pair, never a bare subset
    mask, so a checkpoint journal of a run that mined subset masks
    fails this run's fingerprint instead of being resumed.

    ``supervision`` takes ``retries``, ``task_timeout``, ``backoff``,
    ``checkpoint_path``, ``resume``, ``fault_plan``, ``on_event``,
    ``progress`` and ``deadline`` (see ``_drive``).
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    get_fcp_miner(fcp_miner)  # validate the name before forking
    start = time.perf_counter()
    base = plan_subsets(dataset, thresholds, base_axis)

    return _drive(
        dataset,
        thresholds,
        algorithm=f"parallel-rsm-{'hrc'[base.axis]}[{fcp_miner}]x{n_workers}",
        phase="parallel-rsm",
        plan=lambda: (
            split_subtrees(
                base.dataset.n_heights, base.min_size, TASKS_PER_WORKER * n_workers
            ),
            [],
            {},
        ),
        worker_fn=_rsm_worker_chunk,
        working=base.dataset,
        worker_state=(base.thresholds, (fcp_miner, base.min_size)),
        to_cube=lambda triple: base.to_caller(Cube(*triple)),
        start=start,
        stats=metrics if metrics is not None else MiningMetrics(),
        n_workers=n_workers,
        **supervision,
    )


def parallel_cubeminer_mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    n_workers: int = 2,
    order: HeightOrder = HeightOrder.ZERO_DECREASING,
    metrics: MiningMetrics | None = None,
    **supervision,
) -> MiningResult:
    """Parallel CubeMiner: fan tree branches across processes.

    ``supervision`` takes the same keywords as :func:`parallel_rsm_mine`.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    start = time.perf_counter()
    stats = metrics if metrics is not None else MiningMetrics()
    root, cutters = search_root(dataset, thresholds, order, metrics=stats)

    def plan() -> tuple[list[StackItem], list[Cube], dict]:
        tasks, done = cubeminer_tasks(
            dataset,
            thresholds,
            root,
            cutters,
            TASKS_PER_WORKER * n_workers,
            metrics=stats,
            on_event=supervision.get("on_event"),
        )
        return tasks, done, {
            "fccs_during_expansion": len(done),
            DICE_KEPT_SHAPE: list(root.shape),
        }

    return _drive(
        dataset,
        thresholds,
        algorithm=f"parallel-cubeminer[{order.value}]x{n_workers}",
        phase="parallel-cubeminer",
        plan=plan,
        worker_fn=_cubeminer_worker_chunk,
        working=dataset,
        worker_state=(thresholds, cutters),
        to_cube=lambda triple: Cube(*triple),
        start=start,
        stats=stats,
        n_workers=n_workers,
        **supervision,
    )
