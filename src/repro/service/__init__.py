"""Mining-as-a-service: a persistent FCC mining daemon.

The service layer turns the library into a long-running system serving
repeat mining traffic:

* :mod:`repro.service.registry` — datasets uploaded once, keyed by the
  sha256 *content* fingerprint (:func:`repro.io.dataset_fingerprint`)
  and kept as packed word grids that every job mines memory-mapped.
* :mod:`repro.service.jobs` — a job queue running :func:`repro.mine`
  in worker processes, streaming typed events/progress as JSON lines
  and resuming interrupted parallel jobs from their checkpoint journal.
* :mod:`repro.service.cache` — the threshold-lattice result cache:
  threshold monotonicity means a result mined at loose thresholds
  answers every element-wise tighter query by filtering, so repeat
  queries become lookups instead of mines.
* :mod:`repro.service.app` — the zero-dependency HTTP/JSON core
  (:class:`ServiceApp`, a pure ``Request -> Response`` router) plus the
  thin :class:`ThreadingHTTPServer` adapter.
* :mod:`repro.service.client` — the typed client
  (:class:`ServiceClient`), speaking the same schemas the server does.

Quickstart::

    # terminal 1
    $ repro-fcc serve --data-dir /var/lib/repro --port 8765

    # terminal 2 (or any python process)
    from repro.service import ServiceClient
    client = ServiceClient("http://127.0.0.1:8765")
    fp = client.register_dataset(dataset)
    job = client.submit(fp, Thresholds(2, 2, 2))
    outcome = client.wait(job.id)
    served = client.result(job.id)           # ServiceResult
    served.result                            # a plain MiningResult

The runtime is hardened against its own storage and workers:
admission control (HTTP 429 + ``Retry-After``), per-job deadlines,
retry budgets with poison-job quarantine, worker heartbeats with a
stuck-job watchdog, verify-on-read checksums on every store, and
graceful drain — see ``docs/robustness.md`` for the full fault model
and :mod:`repro.chaos` for the fault-injection harness that tests it.

See ``docs/service.md`` for endpoints, JSON schemas, cache semantics
and the resume story.  The public names load lazily
(:mod:`repro._lazy`): a client process never imports the job runner,
and the HTTP server module loads only in :func:`serve`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ServiceApp": ".app",
    "Request": ".app",
    "Response": ".app",
    "serve": ".app",
    "ServiceClient": ".client",
    "ServiceClientError": ".client",
    "ServiceResult": ".client",
    "JobManager": ".jobs",
    "DatasetRegistry": ".registry",
    "DatasetEntry": ".registry",
    "ThresholdLatticeCache": ".cache",
    "CacheAnswer": ".cache",
    "load_entry_payload": ".cache",
    "JobSpec": ".schemas",
    "JobRecord": ".schemas",
    "JOB_STATUSES": ".schemas",
    "SCHEMA_VERSION": ".schemas",
    "ServiceError": ".schemas",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
