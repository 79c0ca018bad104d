"""Deterministic multiprocessor simulation for the speedup experiments.

The paper's Figures 6 and 8 run on up to 32 processors.  Reproducing
those *curves* does not require 32 cores: both parallel schemes execute
independent tasks with no mid-run communication, so the parallel
response time is

    response(p) = communication(p) + makespan(task_times, p)

where ``makespan`` is classic list scheduling of the measured
*sequential* per-task times onto ``p`` identical processors.  This
module measures real per-task times once and replays them through a
greedy scheduler, which reproduces the paper's observed behaviour:
near-linear speedup while tasks outnumber processors, then saturation
once a few large tasks (stragglers) dominate — "beyond 8 processors the
speedup starts to degrade".

``CommunicationModel`` covers the paper's broadcast argument: the
dataset copy every processor needs is cheap but not free, and grows
with the processor count, so response time can tick back up at high p.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from ..core.constraints import Thresholds
from ..core.dataset import Dataset3D
from ..cubeminer.algorithm import _run, cubeminer_tasks, search_root
from ..cubeminer.cutter import HeightOrder
from ..fcp import get_fcp_miner
from ..obs.metrics import MiningMetrics
from ..rsm.algorithm import mine_slice, plan_subsets
from ..rsm.slices import iter_size_slices

__all__ = [
    "CommunicationModel",
    "schedule_makespan",
    "simulate_response_times",
    "measure_rsm_task_times",
    "measure_cubeminer_task_times",
]


@dataclass(frozen=True, slots=True)
class CommunicationModel:
    """Cost of shipping the dataset and dispatching tasks.

    ``broadcast_seconds_per_processor`` models sending the dataset copy
    to each processor (the paper notes it overlaps task generation and
    is small relative to mining); ``dispatch_seconds_per_task`` models
    per-task allocation overhead.
    """

    broadcast_seconds_per_processor: float = 0.0
    dispatch_seconds_per_task: float = 0.0

    def cost(self, n_processors: int, n_tasks: int) -> float:
        return (
            self.broadcast_seconds_per_processor * n_processors
            + self.dispatch_seconds_per_task * n_tasks
        )


def schedule_makespan(
    task_times: list[float], n_processors: int, *, strategy: str = "lpt"
) -> float:
    """Makespan of list-scheduling ``task_times`` onto identical processors.

    ``"lpt"`` (longest processing time first) is the classic 4/3
    approximation and models a work-stealing pool well; ``"fifo"``
    schedules tasks in the given order, modelling static allocation.
    """
    if n_processors < 1:
        raise ValueError(f"n_processors must be >= 1, got {n_processors}")
    for t in task_times:
        if t < 0:
            raise ValueError("task times must be non-negative")
    if not task_times:
        return 0.0
    if strategy == "lpt":
        ordered = sorted(task_times, reverse=True)
    elif strategy == "fifo":
        ordered = list(task_times)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; use 'lpt' or 'fifo'")
    loads = [0.0] * min(n_processors, len(ordered))
    heapq.heapify(loads)
    for duration in ordered:
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + duration)
    return max(loads)


def simulate_response_times(
    task_times: list[float],
    processor_counts: list[int],
    *,
    communication: CommunicationModel | None = None,
    strategy: str = "lpt",
) -> dict[int, float]:
    """Simulated parallel response time for each processor count."""
    comm = communication or CommunicationModel()
    return {
        p: comm.cost(p, len(task_times))
        + schedule_makespan(task_times, p, strategy=strategy)
        for p in processor_counts
    }


def measure_rsm_task_times(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    base_axis: int | str = "auto",
    fcp_miner: str = "dminer",
) -> list[float]:
    """Wall-clock time of every RSM task (one representative slice each).

    The tasks are the subsets RSM mines, those of at least
    :func:`~repro.rsm.slices.min_subset_size` heights, folded in
    enumeration order as a sequential run folds them.  A task's time
    covers its incremental fold step (about one AND over the slice,
    since consecutive subsets share their prefix) plus its 2D mine and
    post-prune, so the times sum to the sequential RSM mining time;
    feeding them to :func:`simulate_response_times` reproduces parallel
    RSM.
    """
    base = plan_subsets(dataset, thresholds, base_axis)
    miner = get_fcp_miner(fcp_miner)
    metrics = MiningMetrics()
    times: list[float] = []
    t0 = time.perf_counter()
    for heights, rs in iter_size_slices(base.dataset, base.subsets()):
        mine_slice(base.dataset, heights, rs, base.thresholds, miner, metrics)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        t0 = t1
    return times


def measure_cubeminer_task_times(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    order: HeightOrder = HeightOrder.ZERO_DECREASING,
    min_tasks: int = 64,
) -> list[float]:
    """Wall-clock time of every CubeMiner branch task.

    The tree is expanded to at least ``min_tasks`` branches (as the
    parallel driver does) and each branch is run to completion
    sequentially, timed individually.
    """
    root, cutters = search_root(dataset, thresholds, order)
    tasks, _done = cubeminer_tasks(dataset, thresholds, root, cutters, min_tasks)
    times: list[float] = []
    for task in tasks:
        t0 = time.perf_counter()
        _run(dataset, thresholds, cutters, [task], MiningMetrics())
        times.append(time.perf_counter() - t0)
    return times
