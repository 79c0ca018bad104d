"""The HTTP/JSON core of the mining daemon.

:class:`ServiceApp` is a zero-dependency WSGI-style router: a pure
``handle(method, path, query, body) -> Response`` function over the
registry, job manager and result cache, with no socket code in sight —
tests drive it in-process, and the thin :func:`serve` adapter mounts
the very same object on a stdlib :class:`ThreadingHTTPServer` (one
thread per request, which is what lets ``/events`` long-poll without
blocking the daemon).

Endpoints (all JSON; see ``docs/service.md`` for full schemas)::

    GET  /health                     liveness + job/cache counters
    GET  /v1/datasets                registry listing
    POST /v1/datasets                register (sparse JSON payload)
    GET  /v1/datasets/{fp}           one registry entry
    POST /v1/jobs                    submit a JobSpec (may answer from cache)
    GET  /v1/jobs                    all jobs, newest first
    GET  /v1/jobs/{id}               job state + live progress
    GET  /v1/jobs/{id}/result        result document of a done job
    GET  /v1/jobs/{id}/events        event journal; ?after=N&wait=S long-polls
    POST /v1/jobs/{id}/cancel        cancel a queued/running job
    POST /v1/query                   cache-only query (404 "cache-miss" on miss)
    POST /v1/datasets/{fp}/updates   apply a delta batch (registers the
                                     successor dataset, journals the
                                     deltas, queues maintenance jobs
                                     that patch the cache forward)

Two bare probes ride alongside (no ``/v1`` prefix, trivial bodies)::

    GET  /healthz                    liveness: 200 while the process serves
    GET  /readyz                     readiness: 503 while draining or at
                                     admission-control capacity

Errors are ``{"error": {"code", "message"}}`` with a meaningful HTTP
status; a :class:`~repro.service.schemas.ServiceError` raised anywhere
in a handler renders that way automatically (backpressure rejections
also carry a ``Retry-After`` header).  Storage failing under a handler
degrades, typed, instead of crashing the daemon: a
:class:`~repro.chaos.io.StoreCorruptionError` renders as HTTP 500
``store-corrupt``, any other ``OSError`` as HTTP 503
``storage-unavailable``.

All disk and transport traffic routes through one injectable
:class:`~repro.chaos.io.IOShim` shared by the registry, cache and job
manager; the chaos battery swaps in a
:class:`~repro.chaos.io.ChaosShim` to prove those degradations hold.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable
from urllib.parse import parse_qsl, urlsplit

from .. import __version__
from ..chaos.io import IOShim, StoreCorruptionError
from ..core.constraints import Thresholds
from ..io import DatasetFormatError, dataset_from_payload
from ..obs.metrics import ChaosCounters
from .cache import ThresholdLatticeCache
from .jobs import JobManager
from .registry import DatasetRegistry
from .schemas import SCHEMA_VERSION, JobSpec, ServiceError

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = ["Request", "Response", "ServiceApp", "serve"]


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request, transport-free."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        """The body as a JSON object (400 on anything else)."""
        if not self.body:
            raise ServiceError(400, "empty-body", "request needs a JSON body")
        try:
            payload = json.loads(self.body)
        except ValueError:
            raise ServiceError(400, "bad-json", "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise ServiceError(400, "bad-json", "request body must be a JSON object")
        return payload


@dataclass(frozen=True)
class Response:
    """One JSON response: status code, payload document, extra headers."""

    status: int
    payload: dict
    headers: dict[str, str] = field(default_factory=dict)

    def body(self) -> bytes:
        return (json.dumps(self.payload) + "\n").encode()


class ServiceApp:
    """The daemon's request router over one data directory.

    ``data_dir`` gains three subtrees: ``datasets/`` (the registry, one
    packed word grid per dataset, always mined memory-mapped),
    ``cache/`` (the threshold lattice) and ``jobs/`` (job state).  All
    three persist across restarts — constructing a new app over an old
    directory recovers every dataset, cache entry and unfinished job.
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        max_workers: int = 2,
        max_queued: "int | None" = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        heartbeat_timeout: "float | None" = None,
        io: "IOShim | None" = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.io = io if io is not None else IOShim()
        self.chaos = ChaosCounters()
        self.registry = DatasetRegistry(
            self.data_dir / "datasets", io=self.io, chaos=self.chaos
        )
        self.cache = ThresholdLatticeCache(
            self.data_dir / "cache", io=self.io, chaos=self.chaos
        )
        self.jobs = JobManager(
            self.data_dir / "jobs",
            self.registry,
            self.cache,
            max_workers=max_workers,
            max_queued=max_queued,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            heartbeat_timeout=heartbeat_timeout,
            io=self.io,
            chaos=self.chaos,
        )
        self.started = time.time()
        self._routes: list[tuple[str, re.Pattern, Callable]] = [
            ("GET", re.compile(r"^/health$"), self._health),
            ("GET", re.compile(r"^/healthz$"), self._healthz),
            ("GET", re.compile(r"^/readyz$"), self._readyz),
            ("GET", re.compile(r"^/v1/datasets$"), self._list_datasets),
            ("POST", re.compile(r"^/v1/datasets$"), self._register_dataset),
            (
                "GET",
                re.compile(r"^/v1/datasets/(?P<fp>[0-9a-f]{64})$"),
                self._get_dataset,
            ),
            (
                "POST",
                re.compile(r"^/v1/datasets/(?P<fp>[0-9a-f]{64})/updates$"),
                self._post_updates,
            ),
            ("POST", re.compile(r"^/v1/jobs$"), self._submit_job),
            ("GET", re.compile(r"^/v1/jobs$"), self._list_jobs),
            ("GET", re.compile(r"^/v1/jobs/(?P<job>[0-9a-f]+)$"), self._get_job),
            (
                "GET",
                re.compile(r"^/v1/jobs/(?P<job>[0-9a-f]+)/result$"),
                self._job_result,
            ),
            (
                "GET",
                re.compile(r"^/v1/jobs/(?P<job>[0-9a-f]+)/events$"),
                self._job_events,
            ),
            (
                "POST",
                re.compile(r"^/v1/jobs/(?P<job>[0-9a-f]+)/cancel$"),
                self._cancel_job,
            ),
            ("POST", re.compile(r"^/v1/query$"), self._query),
        ]

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Route one request; every failure becomes a JSON error.

        The one exception: a :class:`ConnectionResetError` (injected at
        the ``http`` chaos site or raised by the socket) propagates so
        the transport adapter drops the connection — the client sees
        the reset it would see in production and retries.
        """
        try:
            self.io.check("http", "handle", request.path)
            for method, pattern, handler in self._routes:
                match = pattern.match(request.path)
                if match is None:
                    continue
                if request.method != method:
                    continue
                return handler(request, **match.groupdict())
            raise ServiceError(
                404, "not-found", f"no route for {request.method} {request.path}"
            )
        except ServiceError as error:
            headers = {}
            if error.retry_after is not None:
                headers["Retry-After"] = str(error.retry_after)
            return Response(error.status, error.to_payload(), headers)
        except DatasetFormatError as error:
            return Response(
                400, {"error": {"code": "bad-dataset", "message": str(error)}}
            )
        except ConnectionResetError:
            raise
        except StoreCorruptionError as error:
            self.chaos.corruption_detected += 1
            return Response(
                500, {"error": {"code": "store-corrupt", "message": str(error)}}
            )
        except OSError as error:
            return Response(
                503,
                {"error": {"code": "storage-unavailable", "message": str(error)}},
            )
        except (ValueError, KeyError, TypeError) as error:
            return Response(
                400, {"error": {"code": "bad-request", "message": str(error)}}
            )

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting jobs and wait for in-flight work to finish."""
        return self.jobs.drain(timeout)

    def close(self) -> None:
        """Stop the job manager (workers killed, resumable state kept)."""
        self.jobs.shutdown()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _health(self, request: Request) -> Response:
        return Response(
            200,
            {
                "schema": SCHEMA_VERSION,
                "status": "ok",
                "version": __version__,
                "uptime_seconds": time.time() - self.started,
                "datasets": len(self.registry),
                "jobs": self.jobs.counts(),
                "cache": self.cache.stats(),
                "chaos": self.chaos.as_dict(),
                "draining": self.jobs.draining,
            },
        )

    def _healthz(self, request: Request) -> Response:
        """Liveness: the process is up and routing requests."""
        return Response(200, {"status": "ok"})

    def _readyz(self, request: Request) -> Response:
        """Readiness: would a job submitted right now be admitted?"""
        if self.jobs.draining:
            return Response(503, {"status": "draining"})
        if (
            self.jobs.max_queued is not None
            and self.jobs.queue_depth() >= self.jobs.max_queued
        ):
            return Response(503, {"status": "over-capacity"})
        return Response(200, {"status": "ready"})

    def _list_datasets(self, request: Request) -> Response:
        return Response(
            200,
            {
                "schema": SCHEMA_VERSION,
                "datasets": [entry.to_dict() for entry in self.registry.list()],
            },
        )

    def _register_dataset(self, request: Request) -> Response:
        dataset = dataset_from_payload(request.json())
        entry = self.registry.register(dataset)
        return Response(201, {"schema": SCHEMA_VERSION, **entry.to_dict()})

    def _get_dataset(self, request: Request, fp: str) -> Response:
        try:
            entry = self.registry.get(fp)
        except KeyError:
            raise ServiceError(
                404, "unknown-dataset", f"dataset {fp!r} is not registered"
            ) from None
        return Response(200, {"schema": SCHEMA_VERSION, **entry.to_dict()})

    def _post_updates(self, request: Request, fp: str) -> Response:
        """Evolve a registered dataset through a delta batch.

        The successor dataset is registered under its own fingerprint,
        the batch is journalled in the per-base :class:`DeltaLog`, and
        one incremental-maintenance job is queued for every cached
        result of the base — so the threshold lattice follows the data
        instead of being invalidated by it.
        """
        from ..stream.delta import (
            DeltaLog,
            apply_deltas,
            deltas_from_payload,
            deltas_to_payload,
        )

        if fp not in self.registry:
            raise ServiceError(
                404, "unknown-dataset", f"dataset {fp!r} is not registered"
            )
        payload = request.json()
        raw_deltas = payload.get("deltas")
        if not isinstance(raw_deltas, list) or not raw_deltas:
            raise ServiceError(
                400, "bad-deltas", "request needs a non-empty 'deltas' list"
            )
        try:
            deltas = deltas_from_payload(raw_deltas)
            base = self.registry.load(fp)
            application = apply_deltas(base, deltas)
        except ValueError as error:
            raise ServiceError(400, "bad-deltas", str(error)) from None
        entry = self.registry.register(application.dataset)
        log = self._delta_log_for(fp, base.shape)
        log.append(deltas, fingerprint=entry.fingerprint)
        jobs = []
        for algorithm, thresholds, _path in self.cache.entries(fp):
            spec = JobSpec(
                dataset=entry.fingerprint,
                thresholds=thresholds,
                algorithm=algorithm,
                use_cache=False,
                checkpoint=False,
                maintain={"base": fp, "deltas": deltas_to_payload(deltas)},
            )
            jobs.append(self.jobs.submit(spec).to_dict())
        return Response(
            202,
            {
                "schema": SCHEMA_VERSION,
                "base": fp,
                "fingerprint": entry.fingerprint,
                "shape": list(entry.shape),
                "deltas_applied": application.n_deltas,
                "dirty_heights": application.dirty_heights.bit_count(),
                "jobs": jobs,
            },
        )

    def _delta_log_for(self, fp: str, shape: tuple[int, int, int]):
        """Pick the journal a batch applying to ``fp`` belongs to.

        Each log file is a linear chain: batch *k* applies to the
        tensor batch *k-1* produced.  A batch targeting ``fp``
        therefore extends the log whose tip is ``fp`` when one exists;
        otherwise it starts a new chain rooted at ``fp`` in a fresh
        file, so divergent branches from the same base never share a
        journal (which would break :meth:`DeltaLog.replay`).
        """
        from ..stream.delta import DeltaLog

        root = self.data_dir / "deltas"
        root.mkdir(parents=True, exist_ok=True)
        for path in sorted(root.glob("*.jsonl")):
            try:
                log = DeltaLog.open(path, io=self.io)
            except (ValueError, OSError):
                continue
            if log.tip_fingerprint() == fp:
                return log
        stem, counter = fp, 1
        while (root / f"{stem}.jsonl").exists():
            counter += 1
            stem = f"{fp}.{counter}"
        return DeltaLog.open(
            root / f"{stem}.jsonl", fingerprint=fp, shape=shape, io=self.io
        )

    def _submit_job(self, request: Request) -> Response:
        spec = JobSpec.from_dict(request.json())
        record = self.jobs.submit(spec)
        return Response(
            202 if not record.terminal else 200,
            record.to_dict(),
        )

    def _list_jobs(self, request: Request) -> Response:
        return Response(
            200,
            {
                "schema": SCHEMA_VERSION,
                "jobs": [record.to_dict() for record in self.jobs.list_jobs()],
            },
        )

    def _get_job(self, request: Request, job: str) -> Response:
        return Response(200, self.jobs.get(job).to_dict())

    def _job_result(self, request: Request, job: str) -> Response:
        record = self.jobs.get(job)
        payload = self.jobs.result_payload(job)
        return Response(
            200,
            {
                "schema": SCHEMA_VERSION,
                "job": record.to_dict(),
                "cache_hit": record.cache_hit,
                "filtered_from": (
                    record.filtered_from.to_dict()
                    if record.filtered_from is not None
                    else None
                ),
                "result": payload,
            },
        )

    def _job_events(self, request: Request, job: str) -> Response:
        try:
            after = int(request.query.get("after", "0"))
        except ValueError:
            raise ServiceError(400, "bad-query", "'after' must be an integer") from None
        wait: float | None = None
        if "wait" in request.query:
            try:
                wait = min(float(request.query["wait"]), 60.0)
            except ValueError:
                raise ServiceError(
                    400, "bad-query", "'wait' must be a number of seconds"
                ) from None
        events, next_index = self.jobs.events(job, after=after, wait=wait)
        return Response(
            200,
            {"schema": SCHEMA_VERSION, "events": events, "next": next_index},
        )

    def _cancel_job(self, request: Request, job: str) -> Response:
        return Response(200, self.jobs.cancel(job).to_dict())

    def _query(self, request: Request) -> Response:
        payload = request.json()
        fp = payload.get("dataset")
        if not isinstance(fp, str) or not fp:
            raise ServiceError(400, "bad-query", "query needs a 'dataset' fingerprint")
        if fp not in self.registry:
            raise ServiceError(
                404, "unknown-dataset", f"dataset {fp!r} is not registered"
            )
        algorithm = str(payload.get("algorithm", "cubeminer"))
        thresholds = Thresholds.from_dict(payload.get("thresholds") or {})
        answer = self.cache.lookup(fp, algorithm, thresholds)
        if answer is None:
            raise ServiceError(
                404,
                "cache-miss",
                "no cached result dominates these thresholds; submit a job",
            )
        return Response(
            200,
            {
                "schema": SCHEMA_VERSION,
                "cache_hit": True,
                "exact": answer.exact,
                "filtered_from": answer.filtered_from.to_dict(),
                "cubes_filtered": answer.cubes_filtered,
                "result": answer.payload,
            },
        )


# ----------------------------------------------------------------------
# The thin HTTP adapter
# ----------------------------------------------------------------------
def serve(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Bind the app to a socket and return the (not yet running) server.

    ``port=0`` picks an ephemeral port (read it back from
    ``server.server_address``).  The caller owns the loop::

        server = serve(app, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown(); app.close()

    The stdlib HTTP server loads here, not when the module is imported.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _Handler(BaseHTTPRequestHandler):
        server: "_Server"

        protocol_version = "HTTP/1.1"

        def _dispatch(self) -> None:
            parts = urlsplit(self.path)
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            request = Request(
                method=self.command,
                path=parts.path,
                query=dict(parse_qsl(parts.query)),
                body=body,
            )
            try:
                response = self.server.app.handle(request)
            except ConnectionResetError:
                # Injected (or real) transport fault: drop the
                # connection without a response, exactly what the
                # client's retry path is built to absorb.
                self.close_connection = True
                return
            data = response.body()
            self.send_response(response.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        do_GET = _dispatch
        do_POST = _dispatch

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            if self.server.verbose:
                super().log_message(format, *args)

    class _Server(ThreadingHTTPServer):
        daemon_threads = True
        allow_reuse_address = True

        def __init__(self, address, app: ServiceApp, *, verbose: bool = False) -> None:
            super().__init__(address, _Handler)
            self.app = app
            self.verbose = verbose

    return _Server((host, port), app, verbose=verbose)
