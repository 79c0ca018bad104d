"""The job queue: mining runs in worker processes, resumable on disk.

Every job owns one directory under the manager's root::

    jobs/<id>/job.json          daemon-owned lifecycle record (JobRecord)
    jobs/<id>/task.json         worker manifest (spec + dataset grid path)
    jobs/<id>/events.jsonl      worker-appended typed events + progress
    jobs/<id>/checkpoint.jsonl  parallel chunk journal (when enabled)
    jobs/<id>/result.json       MiningResult payload as a checksummed
                                result document, written atomically
    jobs/<id>/error.json        failure record, written atomically
    jobs/quarantined/<id>/      poison jobs, moved aside with a manifest

Job directories written by older daemons may instead hold a plain
``result.json`` next to a ``result.sha256`` digest sidecar; those
results are still checked against the sidecar.

The split keeps exactly one writer per file: the daemon owns
``job.json``, the worker owns everything it produces.  A daemon killed
at any instant therefore leaves a consistent tree — on restart,
:meth:`JobManager.recover` requeues every ``queued``/``running`` job,
and a requeued parallel job re-enters :func:`repro.mine` with
``resume=True`` on its journal, so chunks finished before the crash are
replayed, not re-mined (``stats.extra["recovery"]["chunks_resumed"]``
counts them).

The manager is hardened against its own infrastructure failing:

* **Retry budget.** A worker crash, a stuck worker killed by the
  heartbeat watchdog, or a storage fault (``OSError`` /
  :class:`~repro.chaos.io.StoreCorruptionError`) requeues the job with
  exponential backoff, spending its per-job ``retries`` budget.
  Deterministic mining errors fail immediately — re-running a bug does
  not fix it.
* **Poison-job quarantine.** A job that exhausts its budget moves to
  ``quarantined/<id>/`` with a ``quarantine.json`` manifest (reason,
  attempts, last error, fault trace).  Quarantined jobs are never
  requeued and never block the queue — :meth:`JobManager.recover`
  loads them back as terminal history only.
* **Admission control.** With ``max_queued`` set, submissions past the
  bound are rejected with HTTP 429 and a ``Retry-After`` hint instead
  of growing the queue without limit.
* **Watchdog.** Workers heartbeat into their event journal; a worker
  silent past ``heartbeat_timeout`` is killed and its job retried.

Workers fork from one ``multiprocessing`` forkserver per interpreter.
The first manager starts it, and the server imports this module — and
with it numpy and :mod:`repro.api` — plus :mod:`repro.stream.maintain`,
:mod:`repro.parallel.executor` and the daemon's main script once, off
the request path, so a job pays for a ``fork()`` rather than an
interpreter start.  Later managers reuse the server, and an
``atexit`` hook stops and reaps it.  There is still one process per
job, and none is ever forked from the daemon's own threaded process.

All daemon-side disk traffic goes through an injectable
:class:`~repro.chaos.io.IOShim`.  Results are written and read through
its one result-document writer and reader
(:meth:`~repro.chaos.io.IOShim.write_document` /
:meth:`~repro.chaos.io.IOShim.read_document`), the same pair the result
cache uses, so every read is verified — the chaos battery in
``tests/test_chaos.py`` drives faults through exactly these seams.

Workers stream :mod:`repro.obs` events as JSON lines
(:func:`repro.obs.events.event_to_dict` plus ``progress`` snapshots);
the per-node ``node``/``prune`` firehose is filtered out so the journal
stays proportional to coarse work units, not tree size.  Jobs answered
by the threshold-lattice cache never reach a worker at all: they are
born ``done`` with ``cache_hit`` provenance.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import signal
import sys
import time
import threading
import uuid
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..chaos.io import IOShim, StoreCorruptionError
from ..core.result import MiningResult
from ..obs import MiningCancelled, event_to_dict
from ..obs.metrics import ChaosCounters
from ..options import options_from_dict
from ..parallel.checkpoint import journal_status
from ..stream.store import open_entry
from .cache import ThresholdLatticeCache
from .registry import DatasetRegistry
from .schemas import JobRecord, JobSpec, ServiceError

if TYPE_CHECKING:
    import multiprocessing

__all__ = ["JobManager", "read_job_result", "run_job_worker"]

#: Event kinds too hot to journal (one line per tree node).
_FIREHOSE_KINDS = frozenset({"node", "prune"})

#: Algorithms whose jobs can checkpoint/resume chunk-by-chunk.
_PARALLEL_ALGORITHMS = frozenset({"parallel-cubeminer", "parallel-rsm"})

#: Subdirectory of the jobs root holding poison jobs (never requeued).
QUARANTINE_DIR = "quarantined"

#: Retry backoff schedule: attempt ``n`` waits
#: ``min(retry_backoff * BACKOFF_FACTOR**(n-1), MAX_BACKOFF)`` seconds.
BACKOFF_FACTOR = 2.0
MAX_BACKOFF = 30.0

#: ``error.json`` code of a worker whose dataset failed verification.
STORE_CORRUPT = "store-corrupt"

#: Pid of the process that imported this module.  A worker forked from
#: the preloaded forkserver inherits the server's value, so it differs
#: from the worker's own pid exactly when the preload took.
_IMPORT_PID = os.getpid()

#: Guards the forkserver start (and its short ``os.environ`` edit).
_SERVER_LOCK = threading.Lock()

#: Modules the forkserver imports before it forks any worker: this one
#: (and with it numpy and :mod:`repro.api`), what maintenance and
#: parallel jobs run, and last the daemon's main script
#: (:mod:`repro.service._preload_main`).
_PRELOAD = (
    __name__,
    "repro.stream.maintain",
    "repro.parallel.executor",
    "repro.service._preload_main",
)

#: The preparation data a worker re-runs the main script from.
_MAIN_KEYS = ("init_main_from_name", "init_main_from_path", "sys_argv", "sys_path")


# ----------------------------------------------------------------------
# The forkserver every worker forks from
# ----------------------------------------------------------------------
def _forkserver_context() -> multiprocessing.context.BaseContext:
    """The ``forkserver`` context, its server running with the workers' modules loaded.

    Starts the interpreter's one server on first use (about 1 ms on a
    2-vCPU Linux host; the server imports in its own process) and
    restarts one that died.  The server preloads :data:`_PRELOAD`.
    The server's ``main`` ignores the ``sys_path`` it is handed
    (Python 3.10-3.13), so a caller that found ``repro`` through a
    ``sys.path`` insert would get a silently failed preload: the
    directory holding the package is put on ``PYTHONPATH`` for the
    start only.  The data a worker re-runs the main script from rides
    in the environment the same way (:mod:`repro.service._preload_main`).
    ``os.environ`` is restored before returning.
    """
    import multiprocessing
    from multiprocessing import forkserver, spawn

    from ._preload_main import HANDOFF

    context = multiprocessing.get_context("forkserver")
    with _SERVER_LOCK:
        context.set_forkserver_preload(list(_PRELOAD))
        data = spawn.get_preparation_data("forkserver")
        package_root = str(Path(__file__).resolve().parents[2])
        previous = {name: os.environ.get(name) for name in ("PYTHONPATH", HANDOFF)}
        search_path = previous["PYTHONPATH"]
        os.environ["PYTHONPATH"] = (
            package_root if not search_path else package_root + os.pathsep + search_path
        )
        os.environ[HANDOFF] = json.dumps({key: data[key] for key in _MAIN_KEYS if key in data})
        try:
            forkserver.ensure_running()
        finally:
            for name, value in previous.items():
                if value is None:
                    del os.environ[name]
                else:
                    os.environ[name] = value
    return context


def _signal_worker(process, signum: int) -> None:
    """Send ``signum`` to a live worker and to the pool it started.

    The worker leads its own process group; one that has not called
    ``setpgid`` yet has no pool, and is signalled alone.
    """
    if not process.is_alive():
        return
    try:
        os.killpg(process.pid, signum)
    except ProcessLookupError:
        try:
            os.kill(process.pid, signum)
        except ProcessLookupError:
            pass  # exited in between


@atexit.register
def _stop_forkserver() -> None:
    """Stop this interpreter's forkserver, if it started one, and reap it."""
    forkserver = sys.modules.get("multiprocessing.forkserver")
    stop = getattr(getattr(forkserver, "_forkserver", None), "_stop", None)
    if stop is None:
        return
    try:
        stop()
    except OSError:
        pass  # its socket file went with a temp dir removed before exit


# ----------------------------------------------------------------------
# Worker process entry point
# ----------------------------------------------------------------------
def _write_error(
    directory: Path,
    emit,
    message: str,
    *,
    retryable: bool = False,
    code: "str | None" = None,
) -> None:
    """Persist a typed failure record for the daemon to classify.

    ``retryable`` marks infrastructure faults (storage, corruption) the
    manager may spend retry budget on; deterministic mining errors leave
    it unset and fail the job on the first attempt.
    """
    doc: dict = {"error": message}
    if retryable:
        doc["retryable"] = True
    if code:
        doc["code"] = code
    tmp = directory / ".error.json.tmp"
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, directory / "error.json")
    emit({"kind": "job-failed", "error": message, "retryable": retryable})


def run_job_worker(job_dir: str) -> int:
    """Execute one job inside a worker process.

    Reads the ``task.json`` manifest, mines, streams events (plus a
    periodic heartbeat for the manager's watchdog), and writes
    ``result.json`` (a checksummed result document) or ``error.json``.
    The manager runs it in a child of the forkserver, which has already
    imported this module; the journal's first line, ``worker-start``,
    records the worker's pid and whether that preload took
    (``preloaded``).
    """
    directory = Path(job_dir)
    try:
        manifest = json.loads((directory / "task.json").read_text())
        spec = JobSpec.from_dict(manifest["spec"])
    except Exception as error:  # noqa: BLE001 - corrupt manifest, typed exit
        # A torn or bit-flipped task.json must fail typed (and
        # retryable — the manager rewrites the manifest on requeue),
        # not as a raw traceback from a dying process.
        _write_error(
            directory,
            lambda payload: None,
            f"unreadable task manifest: {type(error).__name__}: {error}",
            retryable=True,
        )
        return 1

    # Injected worker faults cross the process boundary through the
    # manifest (the worker has no shim): a crash exits before any
    # output, a hang stalls before the event journal even opens — so
    # neither leaves a worker-start stamp or a heartbeat, exactly like
    # the real failure.
    fault = manifest.get("chaos") or None
    if fault:
        if fault.get("kind") == "crash":
            os._exit(13)
        if fault.get("kind") == "hang":
            time.sleep(float(fault.get("seconds", 30.0)))

    events_path = directory / "events.jsonl"
    heartbeat_interval = float(manifest.get("heartbeat_interval", 1.0))

    with open(events_path, "a") as events:
        emit_lock = threading.Lock()

        def emit(payload: dict) -> None:
            payload.setdefault("t", time.time())
            line = json.dumps(payload) + "\n"
            with emit_lock:
                try:
                    events.write(line)
                    events.flush()
                except ValueError:
                    pass  # handle closed while the heartbeat was racing teardown

        emit(
            {
                "kind": "worker-start",
                "pid": os.getpid(),
                "preloaded": os.getpid() != _IMPORT_PID,
            }
        )

        def on_event(event) -> None:
            if event.kind in _FIREHOSE_KINDS:
                return
            emit(event_to_dict(event))

        def on_progress(update) -> None:
            emit(
                {
                    "kind": "progress",
                    "phase": update.phase,
                    "done": update.done,
                    "total": update.total,
                    "elapsed_seconds": update.elapsed_seconds,
                }
            )

        stop_beating = threading.Event()

        def beat() -> None:
            while not stop_beating.wait(heartbeat_interval):
                emit({"kind": "heartbeat"})

        heartbeat = threading.Thread(
            target=beat, name="repro-job-heartbeat", daemon=True
        )
        heartbeat.start()

        try:
            try:
                from ..api import mine
                from ..obs import ProgressController

                result = None
                if manifest.get("maintain") is not None:
                    result = _run_maintenance(manifest, spec, emit)
                if result is None:
                    dataset = open_entry(manifest["dataset_path"], spec.dataset)
                    options = options_from_dict(spec.algorithm, spec.options)
                    checkpoint_path = manifest.get("checkpoint_path")
                    if checkpoint_path is not None:
                        options = replace(
                            options,
                            checkpoint_path=checkpoint_path,
                            resume=Path(checkpoint_path).exists(),
                        )
                    result = mine(
                        dataset,
                        spec.thresholds,
                        algorithm=spec.algorithm,
                        options=options,
                        on_event=on_event,
                        progress=ProgressController(
                            on_progress=on_progress,
                            min_interval=0.2,
                            deadline=spec.deadline_seconds,
                        ),
                    )
            except MiningCancelled as error:
                # A deadline is a property of the request, not an
                # infrastructure fault: never retried.
                _write_error(
                    directory, emit, str(error), code="deadline-exceeded"
                )
                return 1
            except (StoreCorruptionError, OSError) as error:
                _write_error(
                    directory,
                    emit,
                    f"{type(error).__name__}: {error}",
                    retryable=True,
                    code=(
                        STORE_CORRUPT
                        if isinstance(error, StoreCorruptionError)
                        else None
                    ),
                )
                return 1
            except Exception as error:  # noqa: BLE001 - one failure channel
                _write_error(
                    directory, emit, f"{type(error).__name__}: {error}"
                )
                return 1
            IOShim().write_document(
                "jobs", directory / "result.json", result.to_payload()
            )
            emit({"kind": "job-done", "n_cubes": len(result)})
        finally:
            stop_beating.set()
            heartbeat.join(timeout=1.0)
    return 0


def _worker_main(job_dir: str) -> None:
    """The worker process's target: set the process up, run the job."""
    # Lead a process group, so a kill from the manager (_signal_worker)
    # also reaches the pool a parallel job starts.  That pool spawns its
    # workers: this process has a heartbeat thread, so it must not fork,
    # and the forkserver method it inherits would start a second server.
    import multiprocessing

    os.setpgid(0, 0)
    multiprocessing.set_start_method("spawn", force=True)
    run_job_worker(job_dir)


def _run_maintenance(manifest: dict, spec: JobSpec, emit) -> "MiningResult | None":
    """Patch the base dataset's cached result through the delta batch.

    Returns ``None`` — telling the caller to mine fresh — whenever the
    incremental path cannot be trusted: base dataset or base result
    missing/unreadable, thresholds drifted, or the maintained dataset's
    fingerprint disagreeing with the one the job was submitted for.
    """
    from ..io import dataset_fingerprint
    from ..stream.delta import deltas_from_payload
    from ..stream.maintain import maintain

    maintenance = manifest["maintain"]
    base_dataset_path = maintenance.get("base_dataset_path")
    base_result_path = maintenance.get("base_result_path")
    if not base_dataset_path or not base_result_path:
        emit({"kind": "maintain-fallback", "reason": "base unavailable"})
        return None
    try:
        base_dataset = open_entry(base_dataset_path, str(maintenance["base"]))
        base_result = MiningResult.from_payload(
            IOShim().read_document("cache", base_result_path)
        )
        deltas = deltas_from_payload(maintenance.get("deltas") or [])
    except Exception as error:  # noqa: BLE001 - any unreadable base mines fresh
        # A corrupt base result is a reason to mine fresh, not to fail.
        emit({"kind": "maintain-fallback", "reason": str(error)})
        return None
    if base_result.thresholds != spec.thresholds:
        emit({"kind": "maintain-fallback", "reason": "threshold mismatch"})
        return None
    new_dataset, result = maintain(
        base_dataset, base_result, deltas, spec.thresholds
    )
    fingerprint = dataset_fingerprint(new_dataset)
    if fingerprint != spec.dataset:
        # The delta batch does not lead from the recorded base to the
        # dataset this job targets — a stale log, not a mining bug.
        emit(
            {
                "kind": "maintain-fallback",
                "reason": f"maintained fingerprint {fingerprint[:12]} "
                f"!= target {spec.dataset[:12]}",
            }
        )
        return None
    stream_stats = result.stats.extra.get("stream", {})
    emit({"kind": "maintain-done", **stream_stats})
    return result


def read_job_result(io: IOShim, directory: Path) -> dict:
    """The verified result payload of one job directory.

    The one job-result load helper, shared by the manager and
    ``repro-fcc fsck``.  Reads ``result.json`` through
    :meth:`~repro.chaos.io.IOShim.read_document`; a plain ``result.json``
    written by an older daemon is checked against the ``result.sha256``
    sidecar it wrote next to it.  Raises :class:`OSError` or
    :class:`~repro.chaos.io.StoreCorruptionError`.
    """
    sidecar = directory / "result.sha256"
    legacy_digest = None
    if sidecar.exists():
        try:
            legacy_digest = sidecar.read_text().strip() or None
        except OSError:
            pass
    return io.read_document(
        "jobs", directory / "result.json", legacy_digest=legacy_digest
    )


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class JobManager:
    """FIFO job queue over worker processes, persistent across restarts.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per job.
    registry, cache:
        The shared dataset registry and threshold-lattice result cache.
    max_workers:
        Concurrent worker processes (further jobs wait queued), each
        forked from the interpreter's one preloaded forkserver
        (:func:`_forkserver_context`).
    max_queued:
        Admission-control bound: submissions arriving with this many
        jobs already queued are rejected with HTTP 429 and a
        ``Retry-After`` hint.  ``None`` (the default) keeps the queue
        unbounded.
    max_retries:
        Per-job retry budget for *infrastructure* failures (worker
        crashes, watchdog kills, storage faults).  Exhausting it
        quarantines the job.  Deterministic mining errors never retry.
    retry_backoff:
        First delay of the exponential-backoff schedule between
        retries: attempt ``n`` waits
        ``min(retry_backoff * BACKOFF_FACTOR**(n-1), MAX_BACKOFF)``
        seconds before redispatching.
    heartbeat_interval:
        How often workers append a heartbeat event (seconds).
    heartbeat_timeout:
        Watchdog threshold: a running worker whose event journal has
        been silent this long is killed and its job retried.  ``None``
        (the default) disables the watchdog.
    io:
        The :class:`~repro.chaos.io.IOShim` all daemon-side disk
        traffic routes through (the hardened production shim by
        default; tests pass a :class:`~repro.chaos.io.ChaosShim`).
    chaos:
        Shared :class:`~repro.obs.metrics.ChaosCounters` — rejections,
        retries, quarantines, watchdog kills and corruption recoveries
        land here and surface in ``/health`` and result stats.
    """

    def __init__(
        self,
        root: str | Path,
        registry: DatasetRegistry,
        cache: ThresholdLatticeCache,
        *,
        max_workers: int = 2,
        max_queued: "int | None" = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: "float | None" = None,
        io: "IOShim | None" = None,
        chaos: "ChaosCounters | None" = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_queued is not None and max_queued < 1:
            raise ValueError(f"max_queued must be >= 1 or None, got {max_queued}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0 or None, got {heartbeat_timeout}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.registry = registry
        self.cache = cache
        self.max_workers = int(max_workers)
        self.max_queued = max_queued
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = heartbeat_timeout
        self.io = io if io is not None else IOShim()
        self.chaos = chaos if chaos is not None else ChaosCounters()
        _forkserver_context()  # start the server now, off the request path
        self._lock = threading.Condition()
        self._records: dict[str, JobRecord] = {}
        self._queue: deque[str] = deque()
        self._procs: dict[str, multiprocessing.process.BaseProcess] = {}
        self._not_before: dict[str, float] = {}
        self._watchdog_killed: set[str] = set()
        self._closed = False
        self._draining = False
        self.jobs_run = 0
        self.recover()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-job-dispatcher", daemon=True
        )
        self._dispatcher.start()
        self._watchdog: "threading.Thread | None" = None
        if self.heartbeat_timeout is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-job-watchdog", daemon=True
            )
            self._watchdog.start()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _dir(self, job_id: str) -> Path:
        primary = self.root / job_id
        if not primary.exists():
            quarantined = self.root / QUARANTINE_DIR / job_id
            if quarantined.exists():
                return quarantined
        return primary

    def _save(self, record: JobRecord) -> None:
        directory = self._dir(record.id)
        directory.mkdir(parents=True, exist_ok=True)
        self.io.atomic_write_text(
            "jobs", directory / "job.json", json.dumps(record.to_dict(), indent=2)
        )

    def _save_safe(self, record: JobRecord) -> None:
        """Best-effort persistence on supervision threads.

        The in-memory record stays authoritative while the daemon
        lives; if the disk rejects the write, a restart simply requeues
        from the stale on-disk status — consistent, just older.
        """
        try:
            self._save(record)
        except OSError:
            pass

    def recover(self) -> int:
        """Reload persisted jobs; requeue interrupted ones.

        Called at construction: ``done``/``failed``/``cancelled`` jobs
        load as history, while ``queued`` and ``running`` jobs (the
        daemon died under them) go back on the queue in creation order.
        Quarantined jobs load as terminal history only — poison stays
        contained across restarts.  Returns the number of requeued
        jobs.
        """
        requeued = []
        for job_json in sorted(self.root.glob("*/job.json")):
            try:
                record = JobRecord.from_dict(json.loads(job_json.read_text()))
            except (ValueError, KeyError):
                continue
            if record.id != job_json.parent.name or record.id in self._records:
                continue
            self._records[record.id] = record
            if record.status in ("queued", "running"):
                if record.status == "running":
                    result, _problem = self._load_result(record.id)
                    if result is not None:
                        # The worker finished right as the old daemon
                        # died: finalize instead of re-running.
                        record.status = "done"
                        record.finished = time.time()
                        record.n_cubes = len(result)
                        try:
                            self.cache.put(
                                record.spec.dataset, record.spec.algorithm, result
                            )
                        except OSError:
                            pass
                        self._save_safe(record)
                        continue
                record.status = "queued"
                self._save_safe(record)
                requeued.append(record)
        for job_json in sorted(self.root.glob(f"{QUARANTINE_DIR}/*/job.json")):
            try:
                record = JobRecord.from_dict(json.loads(job_json.read_text()))
            except (ValueError, KeyError):
                continue
            if record.id != job_json.parent.name or record.id in self._records:
                continue
            record.status = "quarantined"
            self._records[record.id] = record
        requeued.sort(key=lambda r: r.created)
        for record in requeued:
            self._queue.append(record.id)
        return len(requeued)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Queue one job — or answer it instantly from the cache."""
        with self._lock:
            if self._closed:
                raise ServiceError(503, "shutting-down", "daemon is shutting down")
            if self._draining:
                raise ServiceError(
                    503, "draining", "daemon is draining; not accepting jobs"
                )
        try:
            spec.validate()
        except ValueError as error:
            raise ServiceError(400, "bad-spec", str(error)) from None
        if spec.dataset not in self.registry:
            raise ServiceError(
                404,
                "unknown-dataset",
                f"dataset {spec.dataset!r} is not registered",
            )
        record = JobRecord(
            id=uuid.uuid4().hex[:12],
            spec=spec,
            status="queued",
            created=time.time(),
        )
        if spec.use_cache:
            answer = self.cache.lookup(spec.dataset, spec.algorithm, spec.thresholds)
            if answer is not None:
                now = time.time()
                record.status = "done"
                record.started = now
                record.finished = now
                record.cache_hit = True
                record.filtered_from = answer.filtered_from
                record.n_cubes = len(answer.payload["cubes"])
                directory = self._dir(record.id)
                directory.mkdir(parents=True, exist_ok=True)
                self.io.write_document(
                    "jobs", directory / "result.json", answer.payload
                )
                with open(directory / "events.jsonl", "a") as events:
                    self.io.append_line(
                        "jobs",
                        events,
                        json.dumps(
                            {
                                "kind": "cache-hit",
                                "t": now,
                                "exact": answer.exact,
                                "filtered_from": answer.filtered_from.to_dict(),
                                "cubes_filtered": answer.cubes_filtered,
                            }
                        ),
                    )
                self._save(record)
                with self._lock:
                    self._records[record.id] = record
                return record
        with self._lock:
            if self.max_queued is not None and len(self._queue) >= self.max_queued:
                self.chaos.jobs_rejected += 1
                # A slot frees when a running job finishes; hint the
                # client to come back after roughly one queue turn.
                retry_after = round(
                    max(1.0, (len(self._queue) + 1) / max(1, self.max_workers)), 1
                )
                raise ServiceError(
                    429,
                    "over-capacity",
                    f"job queue is full ({len(self._queue)} queued, "
                    f"max_queued={self.max_queued})",
                    retry_after=retry_after,
                )
        self._save(record)
        with self._lock:
            self._records[record.id] = record
            self._queue.append(record.id)
            self._lock.notify_all()
        return record

    # ------------------------------------------------------------------
    # Dispatch & supervision
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                job_id: "str | None" = None
                while not self._closed:
                    if self._queue and len(self._procs) < self.max_workers:
                        now = time.monotonic()
                        for candidate in self._queue:
                            if self._not_before.get(candidate, 0.0) <= now:
                                job_id = candidate
                                break
                        if job_id is not None:
                            self._queue.remove(job_id)
                            self._not_before.pop(job_id, None)
                            break
                    self._lock.wait(timeout=0.1)
                if self._closed:
                    return
                record = self._records[job_id]
            try:
                self._start(record)
            except Exception as error:  # noqa: BLE001 - must not kill dispatch
                # Starting the job failed before a worker existed —
                # storage faults are retryable, anything else is not.
                self._handle_failure(
                    record,
                    f"failed to start: {type(error).__name__}: {error}",
                    retryable=isinstance(error, (OSError, StoreCorruptionError)),
                )

    def _start(self, record: JobRecord) -> None:
        directory = self._dir(record.id)
        spec = record.spec
        manifest = {
            "spec": spec.to_dict(),
            "dataset_path": str(self.registry.path(spec.dataset)),
            "checkpoint_path": (
                str(directory / "checkpoint.jsonl")
                if spec.checkpoint and spec.algorithm in _PARALLEL_ALGORITHMS
                else None
            ),
            "maintain": self._maintain_manifest(spec),
            "heartbeat_interval": self.heartbeat_interval,
            "chaos": self.io.worker_fault(record.id),
        }
        self.io.atomic_write_text(
            "jobs", directory / "task.json", json.dumps(manifest, indent=2)
        )
        record.status = "running"
        record.started = time.time()
        record.attempts += 1
        self._save(record)
        # Checked per job: a server that died restarts with the preload.
        process = _forkserver_context().Process(
            target=_worker_main, args=(str(directory),), daemon=False
        )
        process.start()
        with self._lock:
            self._procs[record.id] = process
            self.jobs_run += 1
        watcher = threading.Thread(
            target=self._watch, args=(record.id, process), daemon=True
        )
        watcher.start()

    def _maintain_manifest(self, spec: JobSpec) -> dict | None:
        """Resolve a spec's ``maintain`` block into worker-local paths."""
        if spec.maintain is None:
            return None
        base = str(spec.maintain.get("base", ""))
        base_dataset_path = (
            str(self.registry.path(base)) if base in self.registry else None
        )
        base_result_path = self.cache.entry_path(
            base, spec.algorithm, spec.thresholds
        )
        return {
            "base": base,
            "deltas": list(spec.maintain.get("deltas") or []),
            "base_dataset_path": base_dataset_path,
            "base_result_path": (
                str(base_result_path) if base_result_path is not None else None
            ),
        }

    def _watch(self, job_id: str, process) -> None:
        process.join()
        # A killed parallel job never unlinked the dataset segment its
        # driver published (and a forked worker runs no atexit hooks).
        from ..parallel.shm import unlink_segments_of

        unlink_segments_of(process.pid)
        with self._lock:
            self._procs.pop(job_id, None)
            record = self._records.get(job_id)
            closed = self._closed
            watchdog_killed = job_id in self._watchdog_killed
            self._watchdog_killed.discard(job_id)
            self._lock.notify_all()
        if record is None or closed:
            # Shutdown path: leave the persisted status untouched so a
            # restarted daemon requeues (and resumes) the job.
            return
        if record.status == "cancelled":
            self._save_safe(record)
            return
        directory = self._dir(job_id)
        if (directory / "result.json").exists():
            result, problem = self._load_result(job_id)
            if result is not None:
                # Cache before publishing "done": a client that sees the
                # job finished must find its result in the cache.
                try:
                    self.cache.put(record.spec.dataset, record.spec.algorithm, result)
                except OSError:
                    pass  # result still served from the job dir
                record.finished = time.time()
                record.error = None
                record.n_cubes = len(result)
                record.status = "done"
                self._save_safe(record)
                with self._lock:
                    self._lock.notify_all()
                return
            # A result exists but fails verification: storage corrupted
            # it, not the miner — retry.
            self._handle_failure(record, problem, retryable=True)
            return
        error_path = directory / "error.json"
        message: "str | None" = None
        retryable = False
        if error_path.exists():
            try:
                doc = json.loads(self.io.read_text("jobs", error_path))
                message = doc.get("error") or "worker failed"
                retryable = bool(doc.get("retryable", False))
                if doc.get("code") == STORE_CORRUPT:
                    # The worker's verified read caught a damaged dataset.
                    self.chaos.corruption_detected += 1
            except (OSError, ValueError):
                message = "worker failed (unreadable error record)"
                retryable = True
        if message is None:
            if watchdog_killed:
                message = (
                    f"worker killed by watchdog after {self.heartbeat_timeout}s "
                    "without a heartbeat"
                )
            else:
                message = (
                    f"worker exited with code {process.exitcode} "
                    "without a result"
                )
            retryable = True
        self._handle_failure(record, message, retryable=retryable)

    def _handle_failure(
        self, record: JobRecord, message: str, *, retryable: bool
    ) -> None:
        """Route one failed attempt: retry with backoff, quarantine, or fail.

        Only infrastructure failures spend retry budget; a
        deterministic mining error fails the job immediately because
        re-running a bug does not fix it.
        """
        record.error = message
        if retryable and record.retries < self.max_retries:
            record.retries += 1
            record.status = "queued"
            record.started = None
            delay = min(
                self.retry_backoff * BACKOFF_FACTOR ** (record.retries - 1),
                MAX_BACKOFF,
            )
            self.chaos.jobs_retried += 1
            self._save_safe(record)
            with self._lock:
                self._not_before[record.id] = time.monotonic() + delay
                self._queue.append(record.id)
                self._lock.notify_all()
            return
        if retryable:
            self._quarantine(record, message)
            return
        record.status = "failed"
        record.finished = time.time()
        self._save_safe(record)
        with self._lock:
            self._lock.notify_all()

    def _quarantine(self, record: JobRecord, reason: str) -> None:
        """Move a poison job aside, with the evidence needed to replay it.

        Quarantine is the last-resort containment path: it bypasses the
        IO shim on purpose, so an injected fault can never keep a
        poison job in the queue.
        """
        source = self.root / record.id
        record.finished = time.time()
        record.error = reason
        self.chaos.jobs_quarantined += 1
        manifest = {
            "id": record.id,
            "reason": reason,
            "attempts": record.attempts,
            "retries": record.retries,
            "quarantined_at": record.finished,
            "last_error": reason,
            "fault_trace": self._fault_trace(record.id),
        }
        # Serialize with the terminal status but only flip the live
        # record after the move: pollers treat a terminal status as "the
        # manifest is readable", so the flip must come last.
        record_dict = record.to_dict()
        record_dict["status"] = "quarantined"
        try:
            source.mkdir(parents=True, exist_ok=True)
            tmp = source / ".quarantine.json.tmp"
            tmp.write_text(json.dumps(manifest, indent=2))
            os.replace(tmp, source / "quarantine.json")
            tmp = source / ".job.json.tmp"
            tmp.write_text(json.dumps(record_dict, indent=2))
            os.replace(tmp, source / "job.json")
            target_root = self.root / QUARANTINE_DIR
            target_root.mkdir(parents=True, exist_ok=True)
            target = target_root / record.id
            if not target.exists():
                shutil.move(str(source), str(target))
        except OSError:
            pass  # left in place, still terminal; fsck will flag the debris
        record.status = "quarantined"
        with self._lock:
            self._not_before.pop(record.id, None)
            self._lock.notify_all()

    def _fault_trace(self, job_id: str) -> dict:
        """The evidence bundle stamped into a quarantine manifest."""
        events_tail: list[dict] = []
        try:
            lines = (self._dir(job_id) / "events.jsonl").read_text().splitlines()
            for line in lines[-20:]:
                try:
                    events_tail.append(json.loads(line))
                except ValueError:
                    continue
        except OSError:
            pass
        return {
            "events_tail": events_tail,
            "io_faults": self.io.trace()[-20:],
        }

    def _watchdog_loop(self) -> None:
        """Kill running workers silent past ``heartbeat_timeout``."""
        assert self.heartbeat_timeout is not None
        interval = max(0.05, self.heartbeat_timeout / 4)
        while True:
            with self._lock:
                if self._closed:
                    return
                procs = dict(self._procs)
            now = time.time()
            for job_id, process in procs.items():
                record = self._records.get(job_id)
                if record is None or record.status != "running":
                    continue
                events_path = self._dir(job_id) / "events.jsonl"
                try:
                    last_sign_of_life = events_path.stat().st_mtime
                except OSError:
                    last_sign_of_life = record.started or now
                if now - last_sign_of_life > self.heartbeat_timeout:
                    with self._lock:
                        if self._closed:
                            return
                        self._watchdog_killed.add(job_id)
                    self.chaos.watchdog_kills += 1
                    _signal_worker(process, signal.SIGKILL)
            time.sleep(interval)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        """The job's current record, with live progress filled in."""
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise ServiceError(404, "unknown-job", f"no job {job_id!r}")
        if record.status == "running":
            record.progress = self._live_progress(job_id)
        return record

    def _live_progress(self, job_id: str) -> dict:
        directory = self._dir(job_id)
        progress: dict = {}
        events_path = directory / "events.jsonl"
        if events_path.exists():
            last = None
            try:
                with open(events_path) as handle:
                    for line in handle:
                        line = line.strip()
                        if '"progress"' in line:
                            last = line
                if last:
                    payload = json.loads(last)
                    progress = {
                        "phase": payload.get("phase"),
                        "done": payload.get("done"),
                        "total": payload.get("total"),
                        "elapsed_seconds": payload.get("elapsed_seconds"),
                    }
            except (OSError, ValueError):
                progress = {}
        checkpoint = directory / "checkpoint.jsonl"
        if checkpoint.exists():
            status = journal_status(checkpoint)
            if status["exists"]:
                progress["chunks_completed"] = status["completed"]
                progress["n_chunks"] = status["n_chunks"]
        return progress

    def list_jobs(self) -> list[JobRecord]:
        """All known jobs, newest first."""
        with self._lock:
            records = list(self._records.values())
        return sorted(records, key=lambda r: r.created, reverse=True)

    def _read_result(self, job_id: str) -> dict:
        """:func:`read_job_result`, counting ``corruption_detected``."""
        try:
            return read_job_result(self.io, self._dir(job_id))
        except StoreCorruptionError:
            self.chaos.corruption_detected += 1
            raise

    def _load_result(self, job_id: str) -> "tuple[MiningResult | None, str]":
        """Read + verify a job's result; ``(None, why)`` on any problem."""
        try:
            return MiningResult.from_payload(self._read_result(job_id)), ""
        except OSError as error:
            return None, f"result of job {job_id} is unreadable: {error}"
        except StoreCorruptionError as error:
            return None, f"result of job {job_id} failed verification: {error.detail}"
        except (ValueError, KeyError, TypeError) as error:
            self.chaos.corruption_detected += 1
            return None, f"result of job {job_id} is not a valid payload: {error}"

    def result_payload(self, job_id: str) -> dict:
        """The stored result document of a finished job, verified.

        The payload's ``stats.extra["chaos"]`` is stamped with the
        manager's live :class:`~repro.obs.metrics.ChaosCounters`, so
        every served result says what the runtime survived to produce
        it.
        """
        record = self.get(job_id)
        if record.status != "done":
            raise ServiceError(
                409,
                "not-done",
                f"job {job_id} is {record.status}, not done",
            )
        try:
            payload = self._read_result(job_id)
        except OSError:
            raise ServiceError(
                500, "result-unreadable", f"result of job {job_id} is unreadable"
            ) from None
        except StoreCorruptionError:
            raise ServiceError(
                500,
                "result-corrupt",
                f"result of job {job_id} failed verification",
            ) from None
        stats = payload.setdefault("stats", {})
        if isinstance(stats, dict):
            stats.setdefault("extra", {})["chaos"] = self.chaos.as_dict()
        return payload

    def events(
        self,
        job_id: str,
        *,
        after: int = 0,
        wait: float | None = None,
        poll_interval: float = 0.05,
    ) -> tuple[list[dict], int]:
        """Journalled events past index ``after``; optional long-poll.

        Returns ``(events, next_index)``.  With ``wait``, blocks up to
        that many seconds for new lines (returning early the moment the
        job reaches a terminal state with nothing new to say).
        """
        self.get(job_id)  # 404 on unknown ids
        path = self._dir(job_id) / "events.jsonl"
        deadline = None if wait is None else time.monotonic() + wait
        while True:
            lines: list[str] = []
            if path.exists():
                with open(path) as handle:
                    lines = handle.read().splitlines()
            if after < len(lines):
                events = []
                for line in lines[after:]:
                    try:
                        events.append(json.loads(line))
                    except ValueError:
                        continue  # torn tail line: caller re-polls
                return events, len(lines)
            record = self.get(job_id)
            if deadline is None or record.terminal or time.monotonic() >= deadline:
                return [], len(lines)
            time.sleep(poll_interval)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued or running job (terminal jobs are left alone)."""
        record = self.get(job_id)
        with self._lock:
            if record.terminal:
                return record
            record.status = "cancelled"
            record.finished = time.time()
            if job_id in self._queue:
                self._queue.remove(job_id)
            self._not_before.pop(job_id, None)
            process = self._procs.get(job_id)
        if process is not None:
            _signal_worker(process, signal.SIGTERM)
        self._save_safe(record)
        return record

    def counts(self) -> dict:
        """Job totals by status, for ``/health``."""
        with self._lock:
            records = list(self._records.values())
        out = {
            status: 0
            for status in (
                "queued",
                "running",
                "done",
                "failed",
                "cancelled",
                "quarantined",
            )
        }
        for record in records:
            out[record.status] = out.get(record.status, 0) + 1
        out["jobs_run"] = self.jobs_run
        return out

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting jobs and wait for the queue to empty.

        Returns ``True`` once nothing is queued or running, ``False``
        if ``timeout`` elapsed first (remaining jobs keep their
        persisted state for the next daemon to resume).
        """
        with self._lock:
            self._draining = True
            self._lock.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                busy = bool(self._queue or self._procs)
            if not busy:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.05)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def queue_depth(self) -> int:
        """Jobs waiting for a worker (the admission-control quantity)."""
        with self._lock:
            return len(self._queue)

    def shutdown(self) -> None:
        """Stop dispatching and kill live workers.

        Running jobs keep their persisted ``running`` status, so a new
        manager over the same root requeues and resumes them — this is
        the daemon-restart story, not data loss.  The forkserver stays
        up: other managers in this interpreter may still fork from it,
        and it is stopped at interpreter exit.
        """
        with self._lock:
            self._closed = True
            procs = dict(self._procs)
            self._lock.notify_all()
        for process in procs.values():
            _signal_worker(process, signal.SIGTERM)
        for process in procs.values():
            process.join(timeout=5)
        self._dispatcher.join(timeout=5)
        if self._watchdog is not None:
            self._watchdog.join(timeout=5)

    def kill_workers(self) -> int:
        """SIGKILL every live worker (crash simulation for tests).

        Flags the manager closed first, exactly as if the daemon died
        with its workers: the watcher threads must not finalize the
        killed jobs as ``failed``, because their persisted ``running``
        status is what restart recovery keys on.
        """
        with self._lock:
            self._closed = True
            procs = dict(self._procs)
            self._lock.notify_all()
        killed = 0
        for process in procs.values():
            if process.is_alive():
                _signal_worker(process, signal.SIGKILL)
                killed += 1
        for process in procs.values():
            process.join(timeout=5)
        return killed
