"""The chaos battery: injected faults must never cost a cube.

Every test here drives a scripted (or seeded-random)
:class:`~repro.chaos.plan.ChaosPlan` through the
:class:`~repro.chaos.io.ChaosShim` seam and asserts the recovery
contract of ISSUE 9: after the fault, the system either produces a
result **bit-identical** to a clean mine, or surfaces a **typed**
error — never silent cube loss, duplication, an unbounded retry loop,
or a stranded ``running`` job.

Layout mirrors the stack: plan/shim semantics, per-store hardening
(registry, cache, mmap store, delta log, checkpoint journal), the
hardened service runtime (admission control, retry budget, quarantine,
watchdog, drain), restart recovery races, the retrying client, and the
``fsck`` scan/repair cycle with its CLI exit codes.  Worker-process
tests are marked ``slow``, matching the repo convention.
"""

from __future__ import annotations

import io as io_module
import json
import os
import random
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import mine
from repro.chaos import (
    CHAOS_FAULT_KINDS,
    ChaosPlan,
    ChaosRule,
    ChaosShim,
    IOShim,
    StoreCorruptionError,
    fsck_data_dir,
    sha256_bytes,
)
from repro.cli import main as cli_main
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.result import MiningResult
from repro.io import dataset_fingerprint
from repro.obs.metrics import ChaosCounters
from repro.parallel.checkpoint import CheckpointJournal, load_journal
from repro.service import (
    DatasetRegistry,
    JobManager,
    JobSpec,
    Request,
    ServiceApp,
    ServiceClient,
    ServiceClientError,
    ServiceError,
    ThresholdLatticeCache,
    load_entry_payload,
)
from repro.service.jobs import run_job_worker
from repro.stream.delta import DeltaLog, SetCell
from repro.stream.store import MmapDatasetStore


def small_dataset(seed: int = 11) -> Dataset3D:
    rng = np.random.default_rng(seed)
    return Dataset3D(rng.random((3, 6, 6)) < 0.5)


def cube_set(result) -> set:
    return {(c.heights, c.rows, c.columns) for c in result}


def post(app: ServiceApp, path: str, payload: dict):
    return app.handle(
        Request(method="POST", path=path, body=json.dumps(payload).encode())
    )


def get(app: ServiceApp, path: str, query: dict | None = None):
    return app.handle(Request(method="GET", path=path, query=query or {}))


def wait_terminal(app_or_jobs, job_id: str, timeout: float = 120.0):
    jobs = getattr(app_or_jobs, "jobs", app_or_jobs)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = jobs.get(job_id)
        if record.terminal:
            return record
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} never finished")


def submit_job(app: ServiceApp, fp: str, thresholds: Thresholds, **extra):
    payload = {"dataset": fp, "thresholds": thresholds.to_dict(), **extra}
    return post(app, "/v1/jobs", payload)


def flip_byte(path, offset: int = 40) -> None:
    data = bytearray(path.read_bytes())
    offset %= max(1, len(data))
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def flipped_copies(data: bytes, *, head: int = 128, sample: int = 256, seed: int = 0):
    """``data`` with one bit flipped: every bit of the first ``head``
    bytes, then a seeded sample of the bits after them."""
    head_bits = min(len(data), head) * 8
    rest = range(head_bits, len(data) * 8)
    sampled = random.Random(seed).sample(rest, min(sample, len(rest)))
    bits = [*range(head_bits), *sampled]
    for bit in bits:
        buf = bytearray(data)
        buf[bit // 8] ^= 1 << (bit % 8)
        yield bit, bytes(buf)


def worker_job(data_dir):
    """A ``done`` job directory whose result was written by the real
    worker code, run in-process."""
    registry = DatasetRegistry(data_dir / "datasets")
    cache = ThresholdLatticeCache(data_dir / "cache")
    dataset = small_dataset()
    fp = registry.register(dataset).fingerprint
    spec = JobSpec(dataset=fp, thresholds=Thresholds(1, 2, 2))
    job_id = "feedface0001"
    job_dir = data_dir / "jobs" / job_id
    job_dir.mkdir(parents=True)
    (job_dir / "task.json").write_text(
        json.dumps(
            {"spec": spec.to_dict(), "dataset_path": str(registry.path(fp))}
        )
    )
    assert run_job_worker(str(job_dir)) == 0
    (job_dir / "job.json").write_text(
        json.dumps(
            {
                "schema": 1,
                "id": job_id,
                "spec": spec.to_dict(),
                "status": "done",
                "created": time.time() - 10,
                "started": time.time() - 5,
                "finished": time.time(),
            }
        )
    )
    return registry, cache, dataset, job_id, job_dir


# ----------------------------------------------------------------------
# ChaosPlan semantics
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_scripted_rule_fires_on_selected_call_only(self):
        plan = ChaosPlan.single("eio", site="cache", op="write", call=1)
        assert plan.draw("cache", "write", "a.json") is None
        fault = plan.draw("cache", "write", "b.json")
        assert fault is not None and fault.kind == "eio"
        assert plan.draw("cache", "write", "c.json") is None
        assert plan.trace() == [
            {"site": "cache", "op": "write", "path": "b.json", "kind": "eio", "call": 1}
        ]

    def test_counters_are_per_site_op_pair(self):
        plan = ChaosPlan.single("eio", site="cache", op="write", call=0)
        # Draws at other (site, op) pairs do not advance cache/write's
        # counter, so the scripted call index stays addressable.
        assert plan.draw("registry", "write") is None
        assert plan.draw("cache", "read") is None
        assert plan.draw("cache", "write").kind == "eio"

    def test_path_substring_filter(self):
        rule = ChaosRule("eio", site="jobs", path="result.json", calls=None)
        plan = ChaosPlan((rule,))
        assert plan.draw("jobs", "write", "/x/job.json") is None
        assert plan.draw("jobs", "write", "/x/result.json").kind == "eio"

    def test_random_plan_reproducible_from_seed(self):
        sequence = [("cache", "write"), ("jobs", "append"), ("mmap", "finalize")] * 20
        draws = []
        for _ in range(2):
            plan = ChaosPlan.random(seed=7, rate=0.5)
            draws.append(
                [
                    fault.kind if fault else None
                    for fault in (plan.draw(s, o) for s, o in sequence)
                ]
            )
        assert draws[0] == draws[1]
        assert any(draws[0])  # rate=0.5 over 60 draws fires with p ~ 1

    def test_sites_filter_confines_random_faults(self):
        plan = ChaosPlan.random(seed=1, rate=1.0, sites=("cache",))
        assert plan.draw("registry", "write") is None
        assert plan.draw("cache", "write") is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChaosRule("meteor-strike")
        with pytest.raises(ValueError):
            ChaosPlan.random(seed=0, kinds=("eio", "nope"))
        assert "enospc" in CHAOS_FAULT_KINDS


# ----------------------------------------------------------------------
# IOShim fault semantics
# ----------------------------------------------------------------------
class TestIOShim:
    def test_production_shim_atomic_write(self, tmp_path):
        shim = IOShim()
        shim.atomic_write_text("cache", tmp_path / "x.json", '{"a": 1}')
        assert json.loads((tmp_path / "x.json").read_text()) == {"a": 1}
        assert list(tmp_path.glob(".*")) == []

    def test_enospc_rolls_back_temp(self, tmp_path):
        shim = ChaosShim(ChaosPlan.single("enospc", site="cache", op="write"))
        with pytest.raises(OSError):
            shim.atomic_write_text("cache", tmp_path / "x.json", "payload")
        # Neither the destination nor any temp debris survives.
        assert list(tmp_path.iterdir()) == []

    def test_torn_write_commits_prefix(self, tmp_path):
        shim = ChaosShim(ChaosPlan.single("torn-write", site="cache", op="write"))
        shim.atomic_write_bytes("cache", tmp_path / "x.json", b"0123456789")
        assert (tmp_path / "x.json").read_bytes() == b"01234"

    def test_bit_flip_corrupts_one_bit(self, tmp_path):
        data = b"\x00" * 16
        shim = ChaosShim(ChaosPlan.single("bit-flip", site="cache", op="write"))
        shim.atomic_write_bytes("cache", tmp_path / "x.bin", data)
        stored = (tmp_path / "x.bin").read_bytes()
        assert len(stored) == len(data)
        assert sum(bin(b).count("1") for b in stored) == 1

    def test_stale_tmp_commits_then_leaves_debris(self, tmp_path):
        shim = ChaosShim(ChaosPlan.single("stale-tmp", site="cache", op="write"))
        shim.atomic_write_bytes("cache", tmp_path / "x.json", b"ok")
        assert (tmp_path / "x.json").read_bytes() == b"ok"
        assert len(list(tmp_path.glob(".*.tmp"))) == 1

    def test_finalize_failure_unlinks_temp(self, tmp_path):
        shim = ChaosShim(ChaosPlan.single("eio", site="mmap", op="finalize"))
        tmp = tmp_path / ".x.tmp"
        tmp.write_bytes(b"payload")
        with pytest.raises(OSError):
            shim.atomic_finalize("mmap", tmp, tmp_path / "x.npy")
        assert not tmp.exists()
        assert not (tmp_path / "x.npy").exists()

    def test_torn_append_leaves_partial_tail(self, tmp_path):
        shim = ChaosShim(ChaosPlan.single("torn-write", site="delta", op="append"))
        path = tmp_path / "log.jsonl"
        with open(path, "a") as handle:
            with pytest.raises(OSError):
                shim.append_line("delta", handle, json.dumps({"k": "v"}))
        tail = path.read_text()
        assert tail and not tail.endswith("\n")

    def test_read_bit_flip_corrupts_copy_not_file(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"\xff" * 8)
        shim = ChaosShim(ChaosPlan.single("bit-flip", site="jobs", op="read"))
        assert shim.read_bytes("jobs", path) != b"\xff" * 8
        assert path.read_bytes() == b"\xff" * 8

    def test_check_raises_typed_faults(self, tmp_path):
        shim = ChaosShim(ChaosPlan.single("reset", site="http", op="handle"))
        with pytest.raises(ConnectionResetError):
            shim.check("http", "handle", "/v1/jobs")

    def test_worker_fault_manifest(self):
        shim = ChaosShim(ChaosPlan.single("crash", site="worker", op="start"))
        assert shim.worker_fault("job1") == {"kind": "crash"}
        assert shim.worker_fault("job2") is None
        hang = ChaosShim(
            ChaosPlan.single("hang", site="worker", op="start", seconds=2.0)
        )
        assert hang.worker_fault("job3") == {"kind": "hang", "seconds": 2.0}


# ----------------------------------------------------------------------
# Store hardening: registry, cache, mmap, delta log, checkpoint journal
# ----------------------------------------------------------------------
class TestRegistryChaos:
    def test_enospc_register_then_retry_succeeds(self, tmp_path):
        shim = ChaosShim(ChaosPlan.single("enospc", site="registry", op="finalize"))
        registry = DatasetRegistry(tmp_path, io=shim)
        dataset = small_dataset()
        with pytest.raises(OSError):
            registry.register(dataset)
        assert list(tmp_path.glob(".*")) == []  # rollback left no temp
        entry = registry.register(dataset)  # fault was call 0 only
        assert entry.fingerprint == dataset_fingerprint(dataset)
        loaded = registry.load(entry.fingerprint)
        assert np.array_equal(loaded.data, dataset.data)

    def test_verify_on_read_catches_corruption(self, tmp_path):
        counters = ChaosCounters()
        registry = DatasetRegistry(tmp_path, chaos=counters)
        fp = registry.register(small_dataset()).fingerprint
        flip_byte(tmp_path / f"{fp}.npy", offset=200)
        with pytest.raises(StoreCorruptionError):
            registry.load(fp)
        assert counters.corruption_detected == 1

    def test_metadata_that_is_not_an_object_is_skipped(self, tmp_path):
        fp = DatasetRegistry(tmp_path).register(small_dataset()).fingerprint
        (tmp_path / f"{fp}.json").write_text("[1, 2]")
        assert fp not in DatasetRegistry(tmp_path)


class TestCacheChaos:
    def _result(self):
        dataset = small_dataset()
        return dataset, mine(dataset, Thresholds(1, 2, 2))

    def test_envelope_roundtrip(self, tmp_path):
        dataset, result = self._result()
        cache = ThresholdLatticeCache(tmp_path)
        cache.put("fp", "cubeminer", result)
        answer = cache.lookup("fp", "cubeminer", Thresholds(1, 2, 2))
        assert answer is not None and answer.exact
        assert cube_set(answer.result) == cube_set(result)
        # The stored file is a checksummed envelope.
        path = next(tmp_path.glob("fp/cubeminer/*.json"))
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert doc["sha256"] == sha256_bytes(json.dumps(doc["payload"]).encode())

    def test_corrupt_entry_degrades_to_miss_and_evicts(self, tmp_path):
        dataset, result = self._result()
        counters = ChaosCounters()
        cache = ThresholdLatticeCache(tmp_path, chaos=counters)
        cache.put("fp", "cubeminer", result)
        path = next(tmp_path.glob("fp/cubeminer/*.json"))
        flip_byte(path, offset=len(path.read_bytes()) // 2)
        assert cache.lookup("fp", "cubeminer", Thresholds(1, 2, 2)) is None
        assert counters.corruption_detected == 1
        assert counters.corruption_evicted == 1
        assert not path.exists()  # a restart cannot resurrect the entry
        # The store still accepts a fresh result afterwards.
        cache.put("fp", "cubeminer", result)
        assert cache.lookup("fp", "cubeminer", Thresholds(1, 2, 2)) is not None

    def test_legacy_plain_payload_still_parses(self, tmp_path):
        dataset, result = self._result()
        cache = ThresholdLatticeCache(tmp_path)
        entry_dir = tmp_path / "fp" / "cubeminer"
        entry_dir.mkdir(parents=True)
        key = (
            f"{result.thresholds.min_h}-{result.thresholds.min_r}-"
            f"{result.thresholds.min_c}-{result.thresholds.min_volume}"
        )
        (entry_dir / f"{key}.json").write_text(json.dumps(result.to_payload()))
        fresh = ThresholdLatticeCache(tmp_path)
        answer = fresh.lookup("fp", "cubeminer", result.thresholds)
        assert answer is not None
        assert cube_set(answer.result) == cube_set(result)

    def test_every_bit_flip_is_detected_or_harmless(self, tmp_path):
        # The first 128 bytes hold the envelope's keys and digest: a flip
        # there (say "sha256" -> "sha257") must not demote the entry to a
        # plain payload served without its cubes.
        dataset, result = self._result()
        ThresholdLatticeCache(tmp_path).put("fp", "cubeminer", result)
        path = next(tmp_path.glob("fp/cubeminer/*.json"))
        clean = path.read_bytes()
        for bit, data in flipped_copies(clean):
            path.write_bytes(data)
            counters = ChaosCounters()
            cache = ThresholdLatticeCache(tmp_path, chaos=counters)
            answer = cache.lookup("fp", "cubeminer", Thresholds(1, 2, 2))
            if answer is None:
                assert counters.corruption_detected == 1, bit
            else:
                assert cube_set(answer.result) == cube_set(result), bit

    def test_load_entry_payload_raises_typed(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(
            json.dumps({"schema": 1, "sha256": "0" * 64, "payload": {"x": 1}})
        )
        with pytest.raises(StoreCorruptionError):
            load_entry_payload(path)


class TestMmapStoreChaos:
    def test_verify_catches_bit_rot(self, tmp_path):
        counters = ChaosCounters()
        store = MmapDatasetStore(tmp_path, chaos=counters)
        fp = store.register(small_dataset()).fingerprint
        store.load(fp)  # clean
        flip_byte(store.path(fp), offset=200)
        with pytest.raises(StoreCorruptionError):
            store.load(fp)
        assert counters.corruption_detected == 1

    def test_stale_temp_swept_on_open(self, tmp_path):
        store = MmapDatasetStore(tmp_path)
        store.register(small_dataset())
        debris = tmp_path / ".deadbeef.tmp.npy"
        debris.write_bytes(b"\x00" * 32)
        past = time.time() - 3600
        os.utime(debris, (past, past))
        counters = ChaosCounters()
        MmapDatasetStore(tmp_path, chaos=counters)
        assert not debris.exists()
        assert counters.stale_temps_swept == 1

    def test_no_baseline_no_sweep(self, tmp_path):
        # Without any committed entry, a temp might be an in-flight
        # writer: it must survive the open.
        debris = tmp_path / ".inflight.tmp.npy"
        tmp_path.mkdir(exist_ok=True)
        debris.write_bytes(b"\x00")
        MmapDatasetStore(tmp_path)
        assert debris.exists()


class TestJournalChaos:
    def test_delta_log_survives_torn_append(self, tmp_path):
        dataset = small_dataset()
        path = tmp_path / "log.jsonl"
        log = DeltaLog.open(path, dataset=dataset)
        log.append([SetCell(0, 0, 0)], fingerprint="f" * 64)
        torn = DeltaLog.open(
            path,
            dataset=dataset,
            io=ChaosShim(ChaosPlan.single("torn-write", site="delta", op="append")),
        )
        with pytest.raises(OSError):
            torn.append([SetCell(1, 1, 1)], fingerprint="e" * 64)
        # Committed batches replay; the torn tail is dropped, typed, gone.
        recovered = DeltaLog.open(path, dataset=dataset)
        assert len(recovered) == 1
        assert recovered.tip_fingerprint() == "f" * 64

    def test_checkpoint_journal_survives_eio_append(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        shim = ChaosShim(
            ChaosPlan.single("eio", site="checkpoint", op="append", call=1)
        )
        with CheckpointJournal.open(
            path, algorithm="parallel-cubeminer", fingerprint="fp", n_chunks=3, io=shim
        ) as journal:
            journal.record(0, [(1, 2, 3)], {"n": 1})
            with pytest.raises(OSError):
                journal.record(1, [(4, 5, 6)], {"n": 1})
        header, completed = load_journal(path)
        assert header is not None
        assert set(completed) == {0}  # chunk 0 committed, chunk 1 cleanly absent


# ----------------------------------------------------------------------
# Hardened service runtime (in-process routing; no workers)
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_429_with_retry_after(self, tmp_path, monkeypatch):
        app = ServiceApp(tmp_path / "data", max_workers=1, max_queued=1)
        try:
            monkeypatch.setattr(app.jobs, "max_workers", 0)  # stall dispatch
            fp = app.registry.register(small_dataset()).fingerprint
            first = submit_job(app, fp, Thresholds(1, 2, 2))
            assert first.status == 202
            second = submit_job(app, fp, Thresholds(2, 2, 2))
            assert second.status == 429
            assert second.payload["error"]["code"] == "over-capacity"
            assert float(second.payload["error"]["retry_after"]) > 0
            assert float(second.headers["Retry-After"]) > 0
            assert app.chaos.jobs_rejected == 1
            assert get(app, "/health").payload["chaos"]["jobs_rejected"] == 1
        finally:
            app.close()

    def test_probes(self, tmp_path, monkeypatch):
        app = ServiceApp(tmp_path / "data", max_workers=1, max_queued=1)
        try:
            assert get(app, "/healthz").payload == {"status": "ok"}
            assert get(app, "/readyz").status == 200
            monkeypatch.setattr(app.jobs, "max_workers", 0)
            fp = app.registry.register(small_dataset()).fingerprint
            submit_job(app, fp, Thresholds(1, 2, 2))
            ready = get(app, "/readyz")
            assert ready.status == 503
            assert ready.payload["status"] == "over-capacity"
            assert get(app, "/healthz").status == 200  # liveness unaffected
        finally:
            app.close()

    def test_draining_rejects_submissions(self, tmp_path):
        app = ServiceApp(tmp_path / "data", max_workers=1)
        try:
            fp = app.registry.register(small_dataset()).fingerprint
            assert app.drain(timeout=5.0)
            ready = get(app, "/readyz")
            assert ready.status == 503
            assert ready.payload["status"] == "draining"
            rejected = submit_job(app, fp, Thresholds(1, 2, 2))
            assert rejected.status == 503
            assert rejected.payload["error"]["code"] == "draining"
        finally:
            app.close()

    def test_injected_reset_propagates_to_transport(self, tmp_path):
        shim = ChaosShim(
            ChaosPlan.single("reset", site="http", op="handle", path="/health")
        )
        app = ServiceApp(tmp_path / "data", max_workers=1, io=shim)
        try:
            with pytest.raises(ConnectionResetError):
                get(app, "/health")
            assert get(app, "/health").status == 200  # next call is clean
        finally:
            app.close()

    def test_storage_fault_under_handler_is_503(self, tmp_path):
        app = ServiceApp(tmp_path / "data", max_workers=1)
        try:
            fp = app.registry.register(small_dataset()).fingerprint
            shim = ChaosShim(
                ChaosPlan((ChaosRule("enospc", site="jobs", op="write", calls=None),))
            )
            app.jobs.io = shim
            response = submit_job(app, fp, Thresholds(1, 2, 2))
            assert response.status == 503
            assert response.payload["error"]["code"] == "storage-unavailable"
        finally:
            app.jobs.io = IOShim()
            app.close()


# ----------------------------------------------------------------------
# Restart recovery races (no real workers: _start is stubbed)
# ----------------------------------------------------------------------
class TestRecoverRaces:
    def _seed_running_job(self, data_dir, status="running"):
        registry = DatasetRegistry(data_dir / "datasets")
        cache = ThresholdLatticeCache(data_dir / "cache")
        dataset = small_dataset()
        fp = registry.register(dataset).fingerprint
        spec = JobSpec(dataset=fp, thresholds=Thresholds(1, 2, 2))
        job_id = "deadbeef0001"
        job_dir = data_dir / "jobs" / job_id
        job_dir.mkdir(parents=True)
        record = {
            "schema": 1,
            "id": job_id,
            "spec": spec.to_dict(),
            "status": status,
            "created": time.time() - 10,
            "started": time.time() - 5,
        }
        (job_dir / "job.json").write_text(json.dumps(record))
        return registry, cache, dataset, job_id, job_dir

    def test_recover_races_live_event_journal(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        registry, cache, _dataset, job_id, job_dir = self._seed_running_job(data)
        starts: list[str] = []
        monkeypatch.setattr(
            JobManager, "_start", lambda self, record: starts.append(record.id)
        )
        stop = threading.Event()

        def appender() -> None:
            # A worker orphaned by the dead daemon is still appending
            # heartbeats while the new daemon recovers the tree.
            with open(job_dir / "events.jsonl", "a") as handle:
                while not stop.is_set():
                    handle.write(json.dumps({"kind": "heartbeat"}) + "\n")
                    handle.flush()
                    time.sleep(0.001)

        thread = threading.Thread(target=appender, daemon=True)
        thread.start()
        try:
            manager = JobManager(data / "jobs", registry, cache, max_workers=1)
            try:
                deadline = time.monotonic() + 10
                while not starts and time.monotonic() < deadline:
                    time.sleep(0.01)
                # Requeued and dispatched exactly once, despite the race.
                assert starts == [job_id]
                assert manager.recover() == 0  # idempotent: already loaded
                assert starts == [job_id]
            finally:
                manager.shutdown()
        finally:
            stop.set()
            thread.join(timeout=5)

    def test_recover_finalizes_completed_running_job(self, tmp_path, monkeypatch):
        # The worker wrote result.json + sidecar right as the old daemon
        # died with the record still 'running': recovery must finalize,
        # not re-run.
        data = tmp_path / "data"
        registry, cache, dataset, job_id, job_dir = self._seed_running_job(data)
        result = mine(dataset, Thresholds(1, 2, 2))
        payload = json.dumps(result.to_payload()).encode()
        (job_dir / "result.sha256").write_text(sha256_bytes(payload))
        (job_dir / "result.json").write_bytes(payload)
        monkeypatch.setattr(
            JobManager,
            "_start",
            lambda self, record: pytest.fail("finalized job must not re-run"),
        )
        manager = JobManager(data / "jobs", registry, cache, max_workers=1)
        try:
            record = manager.get(job_id)
            assert record.status == "done"
            assert record.n_cubes == len(result)
            served = manager.result_payload(job_id)
            assert served["stats"]["extra"]["chaos"] == manager.chaos.as_dict()
            # The finalized result also re-entered the lattice cache.
            assert cache.lookup(record.spec.dataset, "cubeminer", Thresholds(1, 2, 2))
        finally:
            manager.shutdown()

    def test_recover_with_corrupt_result_requeues_once(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        registry, cache, dataset, job_id, job_dir = self._seed_running_job(data)
        (job_dir / "result.sha256").write_text("0" * 64)
        (job_dir / "result.json").write_bytes(b'{"not": "a result"}')
        starts: list[str] = []
        monkeypatch.setattr(
            JobManager, "_start", lambda self, record: starts.append(record.id)
        )
        manager = JobManager(data / "jobs", registry, cache, max_workers=1)
        try:
            deadline = time.monotonic() + 10
            while not starts and time.monotonic() < deadline:
                time.sleep(0.01)
            assert starts == [job_id]
            assert manager.chaos.corruption_detected >= 1
        finally:
            manager.shutdown()

    def test_every_result_bit_flip_is_detected_or_harmless(
        self, tmp_path, monkeypatch
    ):
        data = tmp_path / "data"
        registry, cache, dataset, job_id, job_dir = worker_job(data)
        assert not (job_dir / "result.sha256").exists()
        expected = cube_set(mine(dataset, Thresholds(1, 2, 2)))
        monkeypatch.setattr(
            JobManager,
            "_start",
            lambda self, record: pytest.fail("a done job must not re-run"),
        )
        manager = JobManager(data / "jobs", registry, cache, max_workers=1)
        try:
            result_path = job_dir / "result.json"
            clean = result_path.read_bytes()
            for bit, flipped in flipped_copies(clean):
                result_path.write_bytes(flipped)
                # The requeue decision (watcher and restart recovery).
                before = manager.chaos.corruption_detected
                loaded, _why = manager._load_result(job_id)
                if loaded is None:
                    assert manager.chaos.corruption_detected == before + 1, bit
                else:
                    assert cube_set(loaded) == expected, bit
                # The served document.
                before = manager.chaos.corruption_detected
                try:
                    payload = manager.result_payload(job_id)
                except ServiceError as error:
                    assert error.code == "result-corrupt", bit
                    assert manager.chaos.corruption_detected == before + 1, bit
                else:
                    assert cube_set(MiningResult.from_payload(payload)) == expected
        finally:
            manager.shutdown()

    def test_quarantined_jobs_stay_contained_across_restart(self, tmp_path):
        data = tmp_path / "data"
        registry, cache, _dataset, job_id, job_dir = self._seed_running_job(
            data, status="running"
        )
        # Relocate the seeded job into quarantine, as _quarantine would.
        quarantine = data / "jobs" / "quarantined" / job_id
        quarantine.parent.mkdir(parents=True)
        job_dir.rename(quarantine)
        manager = JobManager(data / "jobs", registry, cache, max_workers=1)
        try:
            record = manager.get(job_id)
            assert record.status == "quarantined"
            assert record.terminal
            assert manager.queue_depth() == 0
            assert manager.counts()["quarantined"] == 1
        finally:
            manager.shutdown()


# ----------------------------------------------------------------------
# The retrying client (no sockets: urlopen is stubbed)
# ----------------------------------------------------------------------
class _FakeResponse:
    def __init__(self, payload: dict) -> None:
        self._data = json.dumps(payload).encode()

    def read(self) -> bytes:
        return self._data

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class TestClientRetries:
    def test_idempotent_get_retries_transient_faults(self, monkeypatch):
        calls = {"n": 0}

        def flaky(request, timeout=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConnectionResetError(104, "reset by peer")
            if calls["n"] == 2:
                raise urllib.error.URLError(OSError(111, "refused"))
            return _FakeResponse({"status": "ok"})

        monkeypatch.setattr(urllib.request, "urlopen", flaky)
        client = ServiceClient("http://daemon", retries=3, retry_backoff=0.001)
        assert client.health() == {"status": "ok"}
        assert calls["n"] == 3

    def test_post_is_never_retried(self, monkeypatch):
        calls = {"n": 0}

        def always_reset(request, timeout=None):
            calls["n"] += 1
            raise ConnectionResetError(104, "reset by peer")

        monkeypatch.setattr(urllib.request, "urlopen", always_reset)
        client = ServiceClient("http://daemon", retries=5, retry_backoff=0.001)
        with pytest.raises(ServiceClientError) as err:
            client._request("POST", "/v1/jobs", payload={})
        assert err.value.code == "unreachable"
        assert calls["n"] == 1  # a resubmitted job is a duplicate job

    def test_get_exhausts_budget_with_typed_error(self, monkeypatch):
        calls = {"n": 0}

        def always_reset(request, timeout=None):
            calls["n"] += 1
            raise ConnectionResetError(104, "reset by peer")

        monkeypatch.setattr(urllib.request, "urlopen", always_reset)
        client = ServiceClient("http://daemon", retries=2, retry_backoff=0.001)
        with pytest.raises(ServiceClientError) as err:
            client.health()
        assert err.value.code == "unreachable"
        assert calls["n"] == 3  # 1 try + 2 retries, bounded

    def test_http_errors_never_retried_and_carry_retry_after(self, monkeypatch):
        calls = {"n": 0}
        detail = {"error": {"code": "over-capacity", "message": "full",
                            "retry_after": 2.5}}

        def rejected(request, timeout=None):
            calls["n"] += 1
            raise urllib.error.HTTPError(
                "http://daemon/health", 429, "Too Many Requests", None,
                io_module.BytesIO(json.dumps(detail).encode()),
            )

        monkeypatch.setattr(urllib.request, "urlopen", rejected)
        client = ServiceClient("http://daemon", retries=5, retry_backoff=0.001)
        with pytest.raises(ServiceClientError) as err:
            client.health()
        assert calls["n"] == 1  # the daemon answered; honor the answer
        assert err.value.status == 429
        assert err.value.code == "over-capacity"
        assert err.value.retry_after == 2.5


# ----------------------------------------------------------------------
# fsck: scan, repair, exit codes
# ----------------------------------------------------------------------
class TestFsck:
    def _populated_data_dir(self, tmp_path):
        data = tmp_path / "data"
        registry = DatasetRegistry(data / "datasets")
        cache = ThresholdLatticeCache(data / "cache")
        dataset = small_dataset()
        fp = registry.register(dataset).fingerprint
        cache.put(fp, "cubeminer", mine(dataset, Thresholds(1, 2, 2)))
        DeltaLog.open(data / "deltas" / f"{fp}.jsonl", dataset=dataset)
        return data, fp

    def test_clean_tree_reports_clean(self, tmp_path):
        data, _fp = self._populated_data_dir(tmp_path)
        report = fsck_data_dir(data)
        assert report.clean
        assert report.scanned["datasets"] == 1
        assert report.scanned["cache_entries"] == 1
        assert report.scanned["delta_logs"] == 1

    def test_damage_found_then_repaired(self, tmp_path):
        data, fp = self._populated_data_dir(tmp_path)
        cache_entry = next((data / "cache").glob("*/*/*.json"))
        # Silent payload drift: valid JSON whose digest no longer matches.
        doc = json.loads(cache_entry.read_text())
        doc["payload"]["cubes"] = doc["payload"]["cubes"] + [[1, 1, 1]]
        cache_entry.write_text(json.dumps(doc))
        (data / "datasets" / ".stale.tmp.json").write_text("debris")
        (data / "deltas" / "dangling.jsonl").write_text(
            json.dumps(
                {
                    "kind": "header",
                    "version": 1,
                    "fingerprint": "0" * 64,
                    "shape": [1, 1, 1],
                }
            )
            + "\n"
        )
        report = fsck_data_dir(data)
        kinds = {issue.kind for issue in report.issues}
        assert not report.clean
        assert "checksum-mismatch" in kinds
        assert "stale-temp" in kinds
        assert "dangling-log" in kinds
        assert len(report.errors) == 1  # only the checksum break is an error

        repaired = fsck_data_dir(data, repair=True)
        assert repaired.repaired >= 3
        assert not cache_entry.exists()
        quarantined = list((data / "quarantined" / "fsck").iterdir())
        assert quarantined  # damage is moved aside, never deleted
        assert fsck_data_dir(data).clean

    def test_structural_scan_skips_checksums(self, tmp_path):
        data, fp = self._populated_data_dir(tmp_path)
        flip_byte(data / "datasets" / f"{fp}.npy", offset=200)
        # Content damage is invisible structurally, by design: serve's
        # startup check is cheap and verify-on-read covers the rest.
        assert fsck_data_dir(data, verify_checksums=False).clean
        assert not fsck_data_dir(data, verify_checksums=True).clean

    def test_resumable_jobs_are_not_issues(self, tmp_path):
        data, fp = self._populated_data_dir(tmp_path)
        job_dir = data / "jobs" / "cafecafe0001"
        job_dir.mkdir(parents=True)
        spec = JobSpec(dataset=fp, thresholds=Thresholds(1, 2, 2))
        (job_dir / "job.json").write_text(
            json.dumps(
                {
                    "schema": 1,
                    "id": "cafecafe0001",
                    "spec": spec.to_dict(),
                    "status": "running",
                    "created": time.time(),
                }
            )
        )
        report = fsck_data_dir(data)
        assert report.clean
        assert report.scanned["jobs_resumable"] == 1

    def test_corrupt_envelope_job_result_is_checksum_mismatch(self, tmp_path):
        data = tmp_path / "data"
        _registry, _cache, _dataset, job_id, job_dir = worker_job(data)
        assert fsck_data_dir(data).clean
        result = job_dir / "result.json"
        flip_byte(result, offset=len(result.read_bytes()) // 2)
        assert fsck_data_dir(data, verify_checksums=False).clean
        report = fsck_data_dir(data)
        assert [(i.store, i.kind) for i in report.errors] == [
            ("jobs", "checksum-mismatch")
        ]

    def test_cache_hit_job_result_is_an_envelope(self, tmp_path):
        data, fp = self._populated_data_dir(tmp_path)
        registry = DatasetRegistry(data / "datasets")
        cache = ThresholdLatticeCache(data / "cache")
        manager = JobManager(data / "jobs", registry, cache, max_workers=1)
        try:
            record = manager.submit(
                JobSpec(dataset=fp, thresholds=Thresholds(1, 2, 3))
            )
            assert record.cache_hit
            job_dir = data / "jobs" / record.id
            assert not (job_dir / "result.sha256").exists()
            assert (job_dir / "result.json").read_bytes().startswith(
                b'{"schema": 1, "sha256": "'
            )
            payload = IOShim().read_document("jobs", job_dir / "result.json")
            assert len(MiningResult.from_payload(payload)) == record.n_cubes
        finally:
            manager.shutdown()
        assert fsck_data_dir(data).clean

    def test_cli_exit_codes(self, tmp_path, capsys):
        data, _fp = self._populated_data_dir(tmp_path)
        assert cli_main(["fsck", "--data-dir", str(data)]) == 0
        assert "clean" in capsys.readouterr().out

        cache_entry = next((data / "cache").glob("*/*/*.json"))
        flip_byte(cache_entry, offset=len(cache_entry.read_bytes()) // 2)
        assert cli_main(["fsck", "--data-dir", str(data), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is False

        assert cli_main(["fsck", "--data-dir", str(data), "--repair"]) == 0
        capsys.readouterr()

        with pytest.raises(SystemExit) as exit_info:
            cli_main(["fsck", "--data-dir", str(tmp_path / "nope")])
        assert exit_info.value.code == 65

    @pytest.mark.parametrize("store", ["datasets"])
    def test_metadata_that_is_not_an_object_is_bad_meta(self, tmp_path, store):
        data, fp = self._populated_data_dir(tmp_path)
        (data / store / f"{fp}.json").write_text("[1, 2]")
        report = fsck_data_dir(data)
        assert [(i.store, i.kind) for i in report.errors] == [(store, "bad-meta")]

    def test_serve_refuses_corrupt_store(self, tmp_path, capsys):
        data, fp = self._populated_data_dir(tmp_path)
        # Structural damage: registry metadata that is not JSON at all.
        (data / "datasets" / f"{fp}.json").write_text("{broken")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["serve", "--data-dir", str(data), "--port", "0"])
        assert exit_info.value.code == 65
        err = capsys.readouterr().err
        assert "corrupt store" in err
        assert "--repair" in err


# ----------------------------------------------------------------------
# The full battery: real workers under scripted fault schedules
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestServiceUnderChaos:
    def _app(self, tmp_path, plan=None, **kwargs):
        io = ChaosShim(plan) if plan is not None else None
        kwargs.setdefault("max_workers", 1)
        kwargs.setdefault("retry_backoff", 0.05)
        return ServiceApp(tmp_path / "data", io=io, **kwargs)

    def test_worker_crash_retried_bit_identical(self, tmp_path):
        dataset = small_dataset()
        clean = mine(dataset, Thresholds(1, 2, 2))
        plan = ChaosPlan.single("crash", site="worker", op="start", call=0)
        app = self._app(tmp_path, plan)
        try:
            fp = app.registry.register(dataset).fingerprint
            job_id = submit_job(app, fp, Thresholds(1, 2, 2)).payload["id"]
            record = wait_terminal(app, job_id)
            assert record.status == "done"
            assert record.retries == 1
            assert record.attempts == 2
            assert app.chaos.jobs_retried == 1
            payload = get(app, f"/v1/jobs/{job_id}/result").payload
            from repro.core.result import MiningResult

            assert cube_set(MiningResult.from_payload(payload["result"])) == cube_set(
                clean
            )
            # Every served result reports what the runtime survived.
            assert payload["result"]["stats"]["extra"]["chaos"]["jobs_retried"] == 1
        finally:
            app.close()

    def test_poison_job_quarantined_not_looped(self, tmp_path):
        plan = ChaosPlan(
            (ChaosRule("crash", site="worker", op="start", calls=None),)
        )
        app = self._app(tmp_path, plan, max_retries=1)
        try:
            fp = app.registry.register(small_dataset()).fingerprint
            job_id = submit_job(app, fp, Thresholds(1, 2, 2)).payload["id"]
            record = wait_terminal(app, job_id)
            assert record.status == "quarantined"
            assert record.retries == 1  # budget spent, then contained
            assert app.chaos.jobs_quarantined == 1
            assert app.jobs.queue_depth() == 0  # no unbounded retry loop
            quarantine_dir = tmp_path / "data" / "jobs" / "quarantined" / job_id
            manifest = json.loads((quarantine_dir / "quarantine.json").read_text())
            assert manifest["id"] == job_id
            assert manifest["retries"] == 1
            # The fault trace carries the injected faults for replay.
            kinds = {f["kind"] for f in manifest["fault_trace"]["io_faults"]}
            assert "crash" in kinds
        finally:
            app.close()
        # A restarted daemon keeps the poison contained.
        fresh = ServiceApp(tmp_path / "data", max_workers=1)
        try:
            assert fresh.jobs.get(job_id).status == "quarantined"
            assert fresh.jobs.queue_depth() == 0
        finally:
            fresh.close()

    def test_watchdog_kills_hung_worker_then_retry_succeeds(self, tmp_path):
        dataset = small_dataset()
        clean = mine(dataset, Thresholds(1, 2, 2))
        plan = ChaosPlan.single(
            "hang", site="worker", op="start", call=0, seconds=60.0
        )
        app = self._app(tmp_path, plan, heartbeat_timeout=1.0)
        try:
            fp = app.registry.register(dataset).fingerprint
            job_id = submit_job(app, fp, Thresholds(1, 2, 2)).payload["id"]
            record = wait_terminal(app, job_id)
            assert record.status == "done"
            assert app.chaos.watchdog_kills >= 1
            assert record.retries >= 1  # the kill was retried, not terminal
            from repro.core.result import MiningResult

            payload = get(app, f"/v1/jobs/{job_id}/result").payload
            assert cube_set(MiningResult.from_payload(payload["result"])) == cube_set(
                clean
            )
        finally:
            app.close()

    def test_deadline_exceeded_is_typed_and_never_retried(self, tmp_path):
        rng = np.random.default_rng(5)
        dataset = Dataset3D(rng.random((8, 24, 24)) < 0.45)
        app = self._app(tmp_path)
        try:
            fp = app.registry.register(dataset).fingerprint
            job_id = submit_job(
                app, fp, Thresholds(1, 1, 1), deadline_seconds=1e-6
            ).payload["id"]
            record = wait_terminal(app, job_id)
            assert record.status == "failed"  # not quarantined, not retried
            assert record.retries == 0
            error_doc = json.loads(
                (tmp_path / "data" / "jobs" / job_id / "error.json").read_text()
            )
            assert error_doc["code"] == "deadline-exceeded"
            assert "retryable" not in error_doc
        finally:
            app.close()

    def test_corrupt_result_served_as_typed_500(self, tmp_path):
        app = self._app(tmp_path)
        try:
            fp = app.registry.register(small_dataset()).fingerprint
            job_id = submit_job(app, fp, Thresholds(1, 2, 2)).payload["id"]
            assert wait_terminal(app, job_id).status == "done"
            result_path = tmp_path / "data" / "jobs" / job_id / "result.json"
            flip_byte(result_path, offset=len(result_path.read_bytes()) // 2)
            response = get(app, f"/v1/jobs/{job_id}/result")
            assert response.status == 500
            assert response.payload["error"]["code"] == "result-corrupt"
            assert app.chaos.corruption_detected >= 1
        finally:
            app.close()

    def test_corrupt_cache_entry_triggers_clean_remine(self, tmp_path):
        dataset = small_dataset()
        clean = mine(dataset, Thresholds(1, 2, 2))
        app = self._app(tmp_path)
        try:
            fp = app.registry.register(dataset).fingerprint
            job_id = submit_job(app, fp, Thresholds(1, 2, 2)).payload["id"]
            assert wait_terminal(app, job_id).status == "done"
            entry = next((tmp_path / "data" / "cache").glob("*/*/*.json"))
            flip_byte(entry, offset=len(entry.read_bytes()) // 2)
            # The poisoned entry degrades to a miss: the resubmission is
            # a fresh mine (202, not an instant cache answer) and the
            # re-mined result is bit-identical.
            response = submit_job(app, fp, Thresholds(1, 2, 2))
            assert response.status == 202
            record = wait_terminal(app, response.payload["id"])
            assert record.status == "done"
            assert not record.cache_hit
            assert app.chaos.corruption_evicted >= 1
            from repro.core.result import MiningResult

            payload = get(app, f"/v1/jobs/{record.id}/result").payload
            assert cube_set(MiningResult.from_payload(payload["result"])) == cube_set(
                clean
            )
        finally:
            app.close()

    def test_kill_workers_then_restart_resumes_exactly_once(self, tmp_path):
        dataset = small_dataset()
        clean = mine(dataset, Thresholds(1, 2, 2))
        plan = ChaosPlan.single(
            "hang", site="worker", op="start", call=0, seconds=120.0
        )
        app = self._app(tmp_path, plan)
        try:
            fp = app.registry.register(dataset).fingerprint
            job_id = submit_job(app, fp, Thresholds(1, 2, 2)).payload["id"]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with app.jobs._lock:
                    if job_id in app.jobs._procs:
                        break
                time.sleep(0.05)
            assert app.jobs.kill_workers() == 1
        finally:
            app.close()
        # The persisted status is still 'running' — the restart contract.
        on_disk = json.loads(
            (tmp_path / "data" / "jobs" / job_id / "job.json").read_text()
        )
        assert on_disk["status"] == "running"
        fresh = ServiceApp(tmp_path / "data", max_workers=1)
        try:
            assert fresh.jobs.recover() == 0  # __init__ already requeued it
            record = wait_terminal(fresh, job_id)
            assert record.status == "done"
            assert record.attempts == 2  # restart requeue, not a retry
            assert record.retries == 0
            from repro.core.result import MiningResult

            payload = get(fresh, f"/v1/jobs/{job_id}/result").payload
            assert cube_set(MiningResult.from_payload(payload["result"])) == cube_set(
                clean
            )
        finally:
            fresh.close()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_random_storage_faults_never_lose_cubes(self, tmp_path, seed):
        dataset = small_dataset(seed)
        thresholds = Thresholds(1, 2, 2)
        clean = mine(dataset, thresholds)
        plan = ChaosPlan.random(
            seed,
            rate=0.05,
            kinds=("enospc", "eio", "torn-write", "bit-flip", "stale-tmp"),
            sites=("cache", "jobs", "registry"),
        )
        app = self._app(tmp_path, plan, max_retries=3)
        try:
            fp = None
            for _ in range(5):  # registration itself may hit a fault
                try:
                    fp = app.registry.register(dataset).fingerprint
                    break
                except OSError:
                    continue
            assert fp is not None
            response = submit_job(app, fp, thresholds)
            if response.status == 503:
                return  # typed storage rejection is an allowed outcome
            assert response.status in (200, 202)
            record = wait_terminal(app, response.payload["id"])
            assert record.status in ("done", "quarantined", "failed")
            if record.status == "done":
                payload = get(app, f"/v1/jobs/{record.id}/result")
                if payload.status == 200:
                    from repro.core.result import MiningResult

                    assert cube_set(
                        MiningResult.from_payload(payload.payload["result"])
                    ) == cube_set(clean)
                else:  # corrupted at rest, detected — typed, not silent
                    assert payload.payload["error"]["code"] in (
                        "result-corrupt",
                        "result-unreadable",
                    )
            # Whatever happened, fsck must agree nothing is silently
            # broken beyond what verify-on-read already flagged.
            report = fsck_data_dir(tmp_path / "data", repair=True)
            assert fsck_data_dir(tmp_path / "data").clean
        finally:
            app.close()
