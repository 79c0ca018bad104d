"""The typed client for the mining daemon.

:class:`ServiceClient` speaks the exact schemas of
:mod:`repro.service.schemas` over stdlib ``urllib`` — no dependencies —
and hands back *library* objects: datasets register from
:class:`~repro.core.dataset.Dataset3D`, jobs come back as
:class:`~repro.service.schemas.JobRecord`, and results arrive as plain
:class:`~repro.core.result.MiningResult` values wrapped in a
:class:`ServiceResult` carrying the cache provenance.  Server-side
errors re-raise as :class:`ServiceClientError` with the HTTP status and
the machine-readable error code.

Transport faults on *idempotent* requests (every GET) are retried with
bounded exponential backoff plus jitter: a connection reset, a dropped
socket or an unreachable daemon gets ``retries`` more chances before
surfacing as a :class:`ServiceClientError`.  Non-idempotent requests
(``POST /v1/jobs`` and friends) are never retried — a resubmitted job
is a duplicate job, so that call stays single-shot.

The one-call convenience::

    client = ServiceClient("http://127.0.0.1:8765")
    served = client.mine(dataset, Thresholds(2, 2, 2))
    served.result        # MiningResult — same type mine() returns
    served.cache_hit     # True when the threshold lattice answered
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

from ..core.constraints import Thresholds
from ..core.dataset import Dataset3D
from ..core.result import MiningResult
from ..io import dataset_to_payload
from ..options import AlgorithmOptions, options_to_dict
from .registry import DatasetEntry
from .schemas import JobRecord, JobSpec

__all__ = ["ServiceClient", "ServiceClientError", "ServiceResult"]


class ServiceClientError(RuntimeError):
    """An error response from the daemon (or a transport failure).

    ``retry_after`` carries the daemon's backpressure hint (seconds)
    when the error is an admission-control rejection (HTTP 429).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: "float | None" = None,
    ) -> None:
        super().__init__(f"[{status}/{code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


@dataclass(frozen=True)
class ServiceResult:
    """A mining result as served, with its cache provenance."""

    result: MiningResult
    cache_hit: bool
    filtered_from: Thresholds | None
    job: JobRecord | None = None


class ServiceClient:
    """Typed HTTP client bound to one daemon."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        retries: int = 3,
        retry_backoff: float = 0.1,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        *,
        payload: dict | None = None,
        query: dict | None = None,
        timeout: float | None = None,
        idempotent: "bool | None" = None,
    ) -> dict:
        """One round-trip; idempotent calls retry transient faults.

        ``idempotent`` defaults to ``method == "GET"``.  Only transport
        failures (reset/dropped connections, timeouts, an unreachable
        daemon) are retried — an HTTP error is the daemon *answering*,
        and is raised immediately with its typed code.  The stdlib HTTP
        client loads on the first request, not with this module.
        """
        import http.client
        import urllib.error
        import urllib.request

        if idempotent is None:
            idempotent = method == "GET"
        url = self.base_url + path
        if query:
            pairs = "&".join(f"{k}={v}" for k, v in query.items())
            url += f"?{pairs}"
        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            url,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        attempts = self.retries + 1 if idempotent else 1
        last_error: "Exception | None" = None
        for attempt in range(attempts):
            try:
                with urllib.request.urlopen(
                    request,
                    timeout=timeout if timeout is not None else self.timeout,
                ) as response:
                    return json.loads(response.read().decode())
            except urllib.error.HTTPError as error:
                try:
                    detail = json.loads(error.read().decode()).get("error", {})
                except ValueError:
                    detail = {}
                retry_after = detail.get("retry_after")
                raise ServiceClientError(
                    error.code,
                    detail.get("code", "http-error"),
                    detail.get("message", str(error)),
                    retry_after=(
                        float(retry_after) if retry_after is not None else None
                    ),
                ) from None
            except (
                urllib.error.URLError,
                ConnectionResetError,
                http.client.HTTPException,
                TimeoutError,
            ) as error:
                last_error = error
                if attempt + 1 >= attempts:
                    break
                # Bounded exponential backoff with jitter so a fleet of
                # clients does not re-land on the daemon in lockstep.
                time.sleep(
                    self.retry_backoff
                    * (2**attempt)
                    * (1 + 0.25 * random.random())
                )
        reason = getattr(last_error, "reason", None) or last_error
        raise ServiceClientError(
            0, "unreachable", f"cannot reach {self.base_url}: {reason}"
        ) from None

    # ------------------------------------------------------------------
    # Health & datasets
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/health")

    def register_dataset(self, dataset: Dataset3D) -> DatasetEntry:
        """Upload a dataset; returns its registry entry (idempotent)."""
        payload = self._request(
            "POST", "/v1/datasets", payload=dataset_to_payload(dataset)
        )
        return DatasetEntry.from_dict(payload)

    def datasets(self) -> list[DatasetEntry]:
        payload = self._request("GET", "/v1/datasets")
        return [DatasetEntry.from_dict(entry) for entry in payload["datasets"]]

    def dataset(self, fingerprint: str) -> DatasetEntry:
        return DatasetEntry.from_dict(
            self._request("GET", f"/v1/datasets/{fingerprint}")
        )

    def update_dataset(self, fingerprint: str, deltas) -> dict:
        """Apply a delta batch to a registered dataset.

        ``deltas`` is a list of :mod:`repro.stream` delta objects (or
        their JSON dict forms).  Returns the server's update document:
        the successor dataset's ``fingerprint``/``shape`` and the
        queued maintenance ``jobs`` patching the result cache forward.
        """
        from ..stream.delta import delta_to_dict

        payload = [
            delta if isinstance(delta, dict) else delta_to_dict(delta)
            for delta in deltas
        ]
        return self._request(
            "POST",
            f"/v1/datasets/{fingerprint}/updates",
            payload={"deltas": payload},
        )

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def submit(
        self,
        dataset: Dataset3D | str,
        thresholds: Thresholds,
        *,
        algorithm: str = "cubeminer",
        options: AlgorithmOptions | dict | None = None,
        use_cache: bool = True,
        checkpoint: bool = True,
        deadline_seconds: float | None = None,
    ) -> JobRecord:
        """Submit one mining job.

        ``dataset`` may be a fingerprint of an already-registered
        dataset or a :class:`Dataset3D` (registered on the fly);
        ``options`` may be the typed dataclass or its JSON dict form.
        A submission the cache can answer returns an already-``done``
        record with ``cache_hit`` set.
        """
        if isinstance(dataset, Dataset3D):
            fingerprint = self.register_dataset(dataset).fingerprint
        else:
            fingerprint = dataset
        if options is None:
            options_payload: dict = {}
        elif isinstance(options, dict):
            options_payload = dict(options)
        else:
            options_payload = options_to_dict(options)
        spec = JobSpec(
            dataset=fingerprint,
            thresholds=thresholds,
            algorithm=algorithm,
            options=options_payload,
            use_cache=use_cache,
            checkpoint=checkpoint,
            deadline_seconds=deadline_seconds,
        )
        return JobRecord.from_dict(
            self._request("POST", "/v1/jobs", payload=spec.to_dict())
        )

    def job(self, job_id: str) -> JobRecord:
        return JobRecord.from_dict(self._request("GET", f"/v1/jobs/{job_id}"))

    def jobs(self) -> list[JobRecord]:
        payload = self._request("GET", "/v1/jobs")
        return [JobRecord.from_dict(entry) for entry in payload["jobs"]]

    def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll_interval: float = 0.2,
    ) -> JobRecord:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record.terminal:
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record.status} after {timeout}s"
                )
            time.sleep(poll_interval)

    def events(
        self,
        job_id: str,
        *,
        after: int = 0,
        wait: float | None = None,
    ) -> tuple[list[dict], int]:
        """Fetch journalled events past ``after``; ``wait`` long-polls."""
        query: dict = {"after": after}
        if wait is not None:
            query["wait"] = wait
        payload = self._request(
            "GET",
            f"/v1/jobs/{job_id}/events",
            query=query,
            timeout=self.timeout + (wait or 0.0),
        )
        return payload["events"], payload["next"]

    def cancel(self, job_id: str) -> JobRecord:
        return JobRecord.from_dict(
            self._request("POST", f"/v1/jobs/{job_id}/cancel")
        )

    def result(self, job_id: str) -> ServiceResult:
        """The result of a ``done`` job, as library objects."""
        payload = self._request("GET", f"/v1/jobs/{job_id}/result")
        raw_filtered = payload.get("filtered_from")
        return ServiceResult(
            result=MiningResult.from_payload(payload["result"]),
            cache_hit=bool(payload.get("cache_hit")),
            filtered_from=(
                Thresholds.from_dict(raw_filtered)
                if raw_filtered is not None
                else None
            ),
            job=JobRecord.from_dict(payload["job"]),
        )

    # ------------------------------------------------------------------
    # Cache-only queries & the one-call path
    # ------------------------------------------------------------------
    def query(
        self,
        fingerprint: str,
        thresholds: Thresholds,
        *,
        algorithm: str = "cubeminer",
    ) -> ServiceResult | None:
        """Ask the threshold-lattice cache; ``None`` on a miss."""
        try:
            payload = self._request(
                "POST",
                "/v1/query",
                payload={
                    "dataset": fingerprint,
                    "algorithm": algorithm,
                    "thresholds": thresholds.to_dict(),
                },
            )
        except ServiceClientError as error:
            if error.code == "cache-miss":
                return None
            raise
        return ServiceResult(
            result=MiningResult.from_payload(payload["result"]),
            cache_hit=True,
            filtered_from=Thresholds.from_dict(payload["filtered_from"]),
        )

    def mine(
        self,
        dataset: Dataset3D | str,
        thresholds: Thresholds,
        *,
        algorithm: str = "cubeminer",
        options: AlgorithmOptions | dict | None = None,
        use_cache: bool = True,
        timeout: float | None = None,
        deadline_seconds: float | None = None,
    ) -> ServiceResult:
        """Submit, wait, and fetch — the service twin of :func:`repro.mine`."""
        record = self.submit(
            dataset,
            thresholds,
            algorithm=algorithm,
            options=options,
            use_cache=use_cache,
            deadline_seconds=deadline_seconds,
        )
        record = self.wait(record.id, timeout=timeout)
        if record.status != "done":
            raise ServiceClientError(
                409, "job-" + record.status, record.error or record.status
            )
        return self.result(record.id)
