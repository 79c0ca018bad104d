"""Typed request/response schemas shared by the daemon and the client.

Everything crossing the wire is a versioned JSON document built from
(and parsed back into) the dataclasses here, so the server and the
typed client cannot drift apart: :class:`JobSpec` is what ``POST
/v1/jobs`` accepts, :class:`JobRecord` is what every job endpoint
returns, and mining results travel as
:meth:`repro.core.result.MiningResult.to_payload` documents — a service
response and a library object are the same shape.

:class:`ServiceError` is the one error channel: handlers raise it with
an HTTP status and a stable machine-readable ``code``; the app renders
it as ``{"error": {"code": ..., "message": ...}}`` and the client
re-raises it as :class:`~repro.service.client.ServiceClientError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import get_algorithm
from ..core.constraints import Thresholds
from ..options import options_from_dict

__all__ = [
    "SCHEMA_VERSION",
    "JOB_STATUSES",
    "ServiceError",
    "JobSpec",
    "JobRecord",
]

#: Version tag of every service JSON document.
SCHEMA_VERSION = 1

#: Lifecycle states of a job, in order of progression.  ``queued`` and
#: ``running`` jobs survive a daemon restart (they are requeued and —
#: for checkpointed parallel jobs — resume from their journal);
#: ``done`` / ``failed`` / ``cancelled`` / ``quarantined`` are terminal.
#: ``quarantined`` marks a poison job that exhausted its retry budget:
#: its directory moves under ``jobs/quarantined/`` with a manifest and
#: fault trace, and it is never requeued again.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled", "quarantined")

#: Parallel options the daemon sets itself (the journal lives in the
#: job directory); a request that sets one away from its default is
#: rejected.  Typed clients serialize every field, so the defaults
#: (``None``/``False``) must pass.
_DAEMON_OWNED_OPTIONS = ("checkpoint_path", "resume")


class ServiceError(Exception):
    """A request-level failure with an HTTP status and a stable code.

    ``retry_after`` (seconds) rides along on backpressure rejections
    (HTTP 429) and renders as a ``Retry-After`` response header.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def to_payload(self) -> dict:
        detail: dict = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            detail["retry_after"] = self.retry_after
        return {"error": detail}


@dataclass(frozen=True)
class JobSpec:
    """What a client asks for: one mining run over a registered dataset.

    ``options`` stays a plain JSON dict here (validated against the
    algorithm's typed options class at submit time via
    :func:`repro.options.options_from_dict`); ``use_cache`` lets a
    caller force a fresh mine past the threshold-lattice cache, and
    ``checkpoint`` controls whether parallel jobs journal their chunks
    for crash resume (on by default).

    ``maintain`` turns the job into an *incremental maintenance* run:
    ``{"base": <fingerprint>, "deltas": [...]}`` asks the worker to
    patch the base dataset's cached result through
    :func:`repro.stream.maintain` instead of mining ``dataset`` from
    scratch (falling back to a fresh mine when the base result is
    unavailable).  The field is omitted from the wire form when unset,
    so pre-existing clients and persisted jobs parse unchanged.
    """

    dataset: str
    thresholds: Thresholds
    algorithm: str = "cubeminer"
    options: dict = field(default_factory=dict)
    use_cache: bool = True
    checkpoint: bool = True
    maintain: dict | None = None
    #: Per-request wall-clock budget (seconds).  The worker passes it to
    #: ``mine(deadline=...)``; a run cut short fails with a typed
    #: ``deadline-exceeded`` error (never retried — a deadline is a
    #: property of the request, not an infrastructure fault).  Omitted
    #: from the wire form when unset.
    deadline_seconds: float | None = None

    def validate(self) -> None:
        """Fail loudly on an unknown algorithm or malformed options."""
        get_algorithm(self.algorithm)  # raises ValueError on unknown names
        owned = [key for key in _DAEMON_OWNED_OPTIONS if self.options.get(key)]
        if owned:
            # The daemon picks the journal path inside the job directory;
            # a client path would let a request overwrite any file.
            raise ValueError(
                f"option(s) {owned} are set by the daemon, not the client; "
                "use the job's 'checkpoint' flag to turn journaling on or off"
            )
        options_from_dict(self.algorithm, self.options)
        if self.deadline_seconds is not None and not self.deadline_seconds > 0:
            raise ValueError(
                f"'deadline_seconds' must be positive, got {self.deadline_seconds!r}"
            )
        if self.maintain is not None:
            if not isinstance(self.maintain, dict):
                raise ValueError("'maintain' must be a JSON object")
            base = self.maintain.get("base")
            if not isinstance(base, str) or not base:
                raise ValueError("'maintain' needs a 'base' fingerprint string")
            from ..stream.delta import deltas_from_payload

            deltas_from_payload(self.maintain.get("deltas") or [])

    def to_dict(self) -> dict:
        payload = {
            "schema": SCHEMA_VERSION,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "thresholds": self.thresholds.to_dict(),
            "options": dict(self.options),
            "use_cache": self.use_cache,
            "checkpoint": self.checkpoint,
        }
        if self.maintain is not None:
            payload["maintain"] = dict(self.maintain)
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"job spec must be a JSON object, got {payload!r}")
        dataset = payload.get("dataset")
        if not isinstance(dataset, str) or not dataset:
            raise ValueError("job spec needs a 'dataset' fingerprint string")
        raw_thresholds = payload.get("thresholds")
        if raw_thresholds is None:
            raise ValueError("job spec needs 'thresholds'")
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError(f"'options' must be a JSON object, got {options!r}")
        maintain = payload.get("maintain")
        if maintain is not None and not isinstance(maintain, dict):
            raise ValueError(f"'maintain' must be a JSON object, got {maintain!r}")
        deadline = payload.get("deadline_seconds")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise ValueError(
                    f"'deadline_seconds' must be a number, got {deadline!r}"
                ) from None
        return cls(
            dataset=dataset,
            thresholds=Thresholds.from_dict(raw_thresholds),
            algorithm=str(payload.get("algorithm", "cubeminer")),
            options=dict(options),
            use_cache=bool(payload.get("use_cache", True)),
            checkpoint=bool(payload.get("checkpoint", True)),
            maintain=dict(maintain) if maintain is not None else None,
            deadline_seconds=deadline,
        )


@dataclass
class JobRecord:
    """One job's full lifecycle state, as persisted and as served.

    ``progress`` mirrors the latest
    :class:`~repro.obs.progress.ProgressUpdate` streamed by the worker
    (``{"phase", "done", "total", "elapsed_seconds"}``) plus — for
    checkpointed parallel jobs — the journal's completed-chunk count.
    ``cache_hit`` / ``filtered_from`` carry the provenance of a job
    answered by the threshold-lattice cache instead of a fresh mine.
    ``attempts`` counts daemon-side (re)starts: a job requeued after a
    daemon restart shows ``attempts > 1``.  ``retries`` counts
    *failure-driven* requeues only (crash/infrastructure errors spent
    against the manager's retry budget) — a restart requeue is free,
    a retry is not, and a job whose retries exceed the budget is
    quarantined.
    """

    id: str
    spec: JobSpec
    status: str = "queued"
    created: float = 0.0
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    cache_hit: bool = False
    filtered_from: Thresholds | None = None
    n_cubes: int | None = None
    attempts: int = 0
    retries: int = 0
    progress: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "id": self.id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "filtered_from": (
                self.filtered_from.to_dict()
                if self.filtered_from is not None
                else None
            ),
            "n_cubes": self.n_cubes,
            "attempts": self.attempts,
            "retries": self.retries,
            "progress": dict(self.progress),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        status = payload.get("status")
        if status not in JOB_STATUSES:
            raise ValueError(f"unknown job status {status!r}")
        raw_filtered = payload.get("filtered_from")
        return cls(
            id=str(payload["id"]),
            spec=JobSpec.from_dict(payload["spec"]),
            status=status,
            created=float(payload.get("created", 0.0)),
            started=payload.get("started"),
            finished=payload.get("finished"),
            error=payload.get("error"),
            cache_hit=bool(payload.get("cache_hit", False)),
            filtered_from=(
                Thresholds.from_dict(raw_filtered)
                if raw_filtered is not None
                else None
            ),
            n_cubes=payload.get("n_cubes"),
            attempts=int(payload.get("attempts", 0)),
            retries=int(payload.get("retries", 0)),
            progress=dict(payload.get("progress") or {}),
        )

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self.status in ("done", "failed", "cancelled", "quarantined")
