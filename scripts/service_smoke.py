"""End-to-end smoke test of the mining service daemon.

Boots a daemon on an ephemeral port, then exercises the full client
path the way CI's ``service`` job expects:

1. register a dataset (content-fingerprinted),
2. submit a mining job at loose thresholds and wait for it; its
   worker's ``worker-start`` event must say it forked from the
   preloaded forkserver,
3. re-query at element-wise tighter thresholds and assert the answer
   comes from the threshold-lattice cache (``cache_hit``) and is
   bit-identical to a fresh sequential mine,
4. hit the cache-only ``/v1/query`` endpoint twice: the second answer
   must come from the cache's decoded copy of the entry
   (``decoded_reused``) and match a fresh mine bit for bit,
5. check the health counters moved,
6. fsck the data directory after shutdown — a clean end-to-end run
   must leave a clean store (no stray temps, no checksum drift).

Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import sys
import tempfile
import threading

import numpy as np

from repro import mine
from repro.chaos import fsck_data_dir
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.service import ServiceApp, ServiceClient, serve


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"ok: {message}")


def cube_set(result) -> list[tuple[int, int, int]]:
    return sorted((c.heights, c.rows, c.columns) for c in result)


def main() -> int:
    rng = np.random.default_rng(7)
    dataset = Dataset3D(rng.random((4, 10, 10)) < 0.4)

    data_dir = tempfile.mkdtemp(prefix="repro-service-smoke-")
    app = ServiceApp(data_dir, max_workers=2)
    server = serve(app, port=0)
    port = server.server_address[1]
    threading.Thread(target=server.serve_forever, daemon=True).start()

    try:
        client = ServiceClient(f"http://127.0.0.1:{port}")
        check(client.health()["status"] == "ok", "daemon is healthy")

        entry = client.register_dataset(dataset)
        check(len(entry.fingerprint) == 64, "dataset registered by fingerprint")
        again = client.register_dataset(dataset)
        check(
            again.fingerprint == entry.fingerprint,
            "re-registration is idempotent",
        )

        loose = Thresholds(1, 2, 2)
        served = client.mine(entry.fingerprint, loose, timeout=300)
        check(not served.cache_hit, "first mine at loose thresholds is fresh")
        check(len(served.result) > 0, "loose mine found cubes")
        events, _ = client.events(served.job.id)
        check(
            bool(events)
            and events[0]["kind"] == "worker-start"
            and events[0]["preloaded"] is True,
            "the cold job's worker forked from the preloaded forkserver",
        )

        tight = Thresholds(2, 2, 2, min_volume=8)
        cached = client.mine(entry.fingerprint, tight, timeout=300)
        check(cached.cache_hit, "tighter re-query is a cache hit")
        check(len(cached.result) > 0, "tight query still has cubes to compare")
        check(
            cached.filtered_from == loose,
            "provenance names the loose source thresholds",
        )
        fresh = mine(dataset, tight)
        check(
            cube_set(cached.result) == cube_set(fresh),
            "cached+filtered cubes are bit-identical to a fresh mine",
        )

        answer = client.query(entry.fingerprint, Thresholds(2, 2, 2))
        check(
            answer is not None and answer.cache_hit,
            "cache-only /v1/query answers a dominated query",
        )
        reused = client.health()["cache"]["decoded_reused"]
        again = client.query(entry.fingerprint, Thresholds(2, 2, 2))
        check(
            client.health()["cache"]["decoded_reused"] == reused + 1,
            "a second /v1/query on the same entry reuses its decoded copy",
        )
        check(
            again is not None
            and cube_set(again.result) == cube_set(mine(dataset, Thresholds(2, 2, 2))),
            "the memo-served cubes are bit-identical to a fresh mine",
        )
        miss = client.query(entry.fingerprint, Thresholds(1, 1, 1))
        check(miss is None, "cache-only query misses below the stored lattice")

        health = client.health()
        check(health["cache"]["hits"] >= 2, "health reports cache hits")
        check(health["jobs"]["done"] >= 1, "health reports completed jobs")
    finally:
        server.shutdown()
        server.server_close()
        app.close()

    report = fsck_data_dir(data_dir)
    check(report.clean, f"data dir fscks clean after shutdown ({report.summary()})")

    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
