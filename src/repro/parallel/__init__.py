"""Parallel FCC mining (Section 6): supervised pools, checkpointing,
fault injection, and a scheduler simulator.

The public names load lazily (:mod:`repro._lazy`): importing this
package imports none of its modules, so the daemon, which needs only
the checkpoint journal and shared-memory cleanup, never loads the pool
supervisor or ``concurrent.futures``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "parallel_cubeminer_mine": ".executor",
    "parallel_rsm_mine": ".executor",
    "CheckpointJournal": ".checkpoint",
    "CheckpointMismatchError": ".checkpoint",
    "load_journal": ".checkpoint",
    "run_fingerprint": ".checkpoint",
    "FAULT_KINDS": ".faults",
    "Fault": ".faults",
    "FaultInjected": ".faults",
    "FaultPlan": ".faults",
    "RetryPolicy": ".supervisor",
    "TaskFailedError": ".supervisor",
    "run_supervised": ".supervisor",
    "CommunicationModel": ".simulator",
    "measure_cubeminer_task_times": ".simulator",
    "measure_rsm_task_times": ".simulator",
    "schedule_makespan": ".simulator",
    "simulate_response_times": ".simulator",
    "cubeminer_tasks": "..cubeminer.algorithm",
    "SHM_PREFIX": ".shm",
    "ShmAttachment": ".shm",
    "ShmDatasetRef": ".shm",
    "ShmError": ".shm",
    "ShmManager": ".shm",
    "active_segments": ".shm",
    "attach_dataset": ".shm",
    "publish_dataset": ".shm",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
