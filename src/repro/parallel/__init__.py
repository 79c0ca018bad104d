"""Parallel FCC mining (Section 6): supervised pools, checkpointing,
fault injection, and a scheduler simulator."""

from ..cubeminer.algorithm import cubeminer_tasks
from .checkpoint import (
    CheckpointJournal,
    CheckpointMismatchError,
    load_journal,
    run_fingerprint,
)
from .executor import parallel_cubeminer_mine, parallel_rsm_mine
from .faults import FAULT_KINDS, Fault, FaultInjected, FaultPlan
from .shm import (
    SHM_PREFIX,
    ShmAttachment,
    ShmDatasetRef,
    ShmError,
    ShmManager,
    active_segments,
    attach_dataset,
    publish_dataset,
)
from .simulator import (
    CommunicationModel,
    measure_cubeminer_task_times,
    measure_rsm_task_times,
    schedule_makespan,
    simulate_response_times,
)
from .supervisor import RetryPolicy, TaskFailedError, run_supervised

__all__ = [
    "parallel_cubeminer_mine",
    "parallel_rsm_mine",
    "CheckpointJournal",
    "CheckpointMismatchError",
    "load_journal",
    "run_fingerprint",
    "FAULT_KINDS",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "RetryPolicy",
    "TaskFailedError",
    "run_supervised",
    "CommunicationModel",
    "measure_cubeminer_task_times",
    "measure_rsm_task_times",
    "schedule_makespan",
    "simulate_response_times",
    "cubeminer_tasks",
    "SHM_PREFIX",
    "ShmAttachment",
    "ShmDatasetRef",
    "ShmError",
    "ShmManager",
    "active_segments",
    "attach_dataset",
    "publish_dataset",
]
