"""Service integration of ``repro.stream``: the updates endpoint,
maintenance jobs, cache patch-forward, and the daemon's mapped dataset
grids (verified reads, migration of NPZ-layout data dirs)."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import mine
from repro.chaos import fsck_data_dir
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.result import MiningResult
from repro.io import dataset_fingerprint, dataset_to_payload
from repro.service import Request, ServiceApp
from repro.service.schemas import JobSpec
from repro.stream import DeltaLog


def small_dataset(seed: int = 21) -> Dataset3D:
    rng = np.random.default_rng(seed)
    return Dataset3D(rng.random((3, 6, 6)) < 0.55)


def cube_keys(result):
    return [(c.heights, c.rows, c.columns) for c in result.cubes]


def post(app: ServiceApp, path: str, payload: dict):
    return app.handle(
        Request(method="POST", path=path, body=json.dumps(payload).encode())
    )


def get(app: ServiceApp, path: str):
    return app.handle(Request(method="GET", path=path))


def wait_done(app: ServiceApp, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = get(app, f"/v1/jobs/{job_id}").payload
        if record["status"] in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.1)
    raise TimeoutError(job_id)


@pytest.fixture
def app(tmp_path):
    application = ServiceApp(tmp_path / "data", max_workers=1)
    yield application
    application.close()


DELTAS = [
    {"op": "set-cell", "height": 0, "row": 0, "column": 0},
    {"op": "clear-cell", "height": 2, "row": 5, "column": 5},
]


class TestUpdatesEndpoint:
    def _register_and_mine(self, app, ds, th):
        fp = post(app, "/v1/datasets", dataset_to_payload(ds)).payload[
            "fingerprint"
        ]
        record = post(
            app,
            "/v1/jobs",
            {"dataset": fp, "thresholds": th.to_dict(), "algorithm": "rsm"},
        ).payload
        assert wait_done(app, record["id"])["status"] == "done"
        return fp

    def test_update_patches_cache_forward(self, app, tmp_path):
        ds = small_dataset()
        th = Thresholds(2, 2, 2)
        fp = self._register_and_mine(app, ds, th)

        response = post(app, f"/v1/datasets/{fp}/updates", {"deltas": DELTAS})
        assert response.status == 202
        doc = response.payload
        assert doc["base"] == fp
        assert doc["deltas_applied"] == 2
        assert len(doc["jobs"]) == 1
        maintenance = doc["jobs"][0]
        assert maintenance["spec"]["maintain"]["base"] == fp
        assert wait_done(app, maintenance["id"])["status"] == "done"

        # The maintained result is cached under the successor fingerprint
        # and equals a fresh mine of the edited tensor, bit for bit.
        query = post(
            app,
            "/v1/query",
            {
                "dataset": doc["fingerprint"],
                "algorithm": "rsm",
                "thresholds": th.to_dict(),
            },
        )
        assert query.status == 200
        served = MiningResult.from_payload(query.payload["result"])
        edited = np.array(ds.data, dtype=bool)
        edited[0, 0, 0] = True
        edited[2, 5, 5] = False
        fresh = mine(Dataset3D(edited), th, algorithm="rsm")
        assert cube_keys(served) == cube_keys(fresh)

        # The worker went through the maintainer, not a fresh mine.
        events = get(app, f"/v1/jobs/{maintenance['id']}/events").payload[
            "events"
        ]
        assert any(e.get("kind") == "maintain-done" for e in events)

    def test_update_journals_the_delta_log(self, app):
        ds = small_dataset()
        fp = post(app, "/v1/datasets", dataset_to_payload(ds)).payload[
            "fingerprint"
        ]
        # Updating the successor extends the same chained journal.
        doc = post(app, f"/v1/datasets/{fp}/updates", {"deltas": DELTAS}).payload
        successor = doc["fingerprint"]
        post(app, f"/v1/datasets/{successor}/updates", {"deltas": DELTAS[:1]})
        log = DeltaLog.open(app.data_dir / "deltas" / f"{fp}.jsonl")
        assert len(log) == 2
        assert log.fingerprint == fp
        assert log.replay(ds) is not None

    def test_divergent_updates_get_separate_journals(self, app):
        # Two batches posted against the SAME base are branches, not a
        # chain — each lands in its own replayable journal.
        ds = small_dataset()
        fp = post(app, "/v1/datasets", dataset_to_payload(ds)).payload[
            "fingerprint"
        ]
        post(app, f"/v1/datasets/{fp}/updates", {"deltas": DELTAS})
        post(app, f"/v1/datasets/{fp}/updates", {"deltas": DELTAS[:1]})
        logs = sorted((app.data_dir / "deltas").glob("*.jsonl"))
        assert len(logs) == 2
        for path in logs:
            log = DeltaLog.open(path)
            assert len(log) == 1
            assert log.fingerprint == fp
            assert log.replay(ds) is not None

    def test_update_without_cached_results_queues_no_jobs(self, app):
        ds = small_dataset()
        fp = post(app, "/v1/datasets", dataset_to_payload(ds)).payload[
            "fingerprint"
        ]
        response = post(app, f"/v1/datasets/{fp}/updates", {"deltas": DELTAS})
        assert response.status == 202
        assert response.payload["jobs"] == []
        # The successor dataset is still registered.
        assert (
            get(app, f"/v1/datasets/{response.payload['fingerprint']}").status
            == 200
        )

    def test_update_unknown_dataset_404(self, app):
        response = post(
            app, "/v1/datasets/" + "0" * 64 + "/updates", {"deltas": DELTAS}
        )
        assert response.status == 404
        assert response.payload["error"]["code"] == "unknown-dataset"

    def test_update_bad_deltas_400(self, app):
        ds = small_dataset()
        fp = post(app, "/v1/datasets", dataset_to_payload(ds)).payload[
            "fingerprint"
        ]
        for bad in (
            {"deltas": []},
            {"deltas": [{"op": "warp"}]},
            {"deltas": [{"op": "set-cell", "height": 99, "row": 0, "column": 0}]},
            {},
        ):
            response = post(app, f"/v1/datasets/{fp}/updates", bad)
            assert response.status == 400, bad
            assert response.payload["error"]["code"] == "bad-deltas"

    def test_maintenance_falls_back_when_base_vanishes(self, app):
        # A maintain spec whose base was never cached: the worker falls
        # back to a fresh mine and the job still completes correctly.
        ds = small_dataset()
        th = Thresholds(2, 2, 2)
        fp = post(app, "/v1/datasets", dataset_to_payload(ds)).payload[
            "fingerprint"
        ]
        edited = np.array(ds.data, dtype=bool)
        edited[0, 0, 0] = True
        new_fp = post(
            app, "/v1/datasets", dataset_to_payload(Dataset3D(edited))
        ).payload["fingerprint"]
        spec = JobSpec(
            dataset=new_fp,
            thresholds=th,
            algorithm="rsm",
            use_cache=False,
            maintain={
                "base": fp,
                "deltas": [
                    {"op": "set-cell", "height": 0, "row": 0, "column": 0}
                ],
            },
        )
        record = post(app, "/v1/jobs", spec.to_dict()).payload
        assert wait_done(app, record["id"])["status"] == "done"
        events = get(app, f"/v1/jobs/{record['id']}/events").payload["events"]
        assert any(e.get("kind") == "maintain-fallback" for e in events)
        result = MiningResult.from_payload(
            get(app, f"/v1/jobs/{record['id']}/result").payload["result"]
        )
        assert cube_keys(result) == cube_keys(
            mine(Dataset3D(edited), th, algorithm="rsm")
        )


class TestJobSpecMaintain:
    def test_wire_round_trip(self):
        spec = JobSpec(
            dataset="a" * 64,
            thresholds=Thresholds(2, 2, 2),
            maintain={"base": "b" * 64, "deltas": DELTAS},
        )
        restored = JobSpec.from_dict(spec.to_dict())
        assert restored.maintain == spec.maintain

    def test_maintain_omitted_when_unset(self):
        spec = JobSpec(dataset="a" * 64, thresholds=Thresholds(2, 2, 2))
        assert "maintain" not in spec.to_dict()
        assert JobSpec.from_dict(spec.to_dict()).maintain is None

    def test_validate_rejects_malformed_maintain(self):
        for maintain in (
            {"deltas": DELTAS},  # no base
            {"base": "b" * 64, "deltas": [{"op": "warp"}]},
        ):
            spec = JobSpec(
                dataset="a" * 64,
                thresholds=Thresholds(2, 2, 2),
                maintain=maintain,
            )
            with pytest.raises(ValueError):
                spec.validate()


class TestMmapMode:
    def test_mmap_job_mines_identically(self, tmp_path):
        app = ServiceApp(tmp_path / "data", max_workers=1)
        try:
            ds = small_dataset(seed=31)
            th = Thresholds(2, 2, 2)
            fp = post(app, "/v1/datasets", dataset_to_payload(ds)).payload[
                "fingerprint"
            ]
            record = post(
                app,
                "/v1/jobs",
                {
                    "dataset": fp,
                    "thresholds": th.to_dict(),
                    "algorithm": "rsm",
                    "use_cache": False,
                },
            ).payload
            assert wait_done(app, record["id"])["status"] == "done"
            # The dataset is stored once, as its packed grid.
            assert (app.data_dir / "datasets" / f"{fp}.npy").exists()
            result = MiningResult.from_payload(
                get(app, f"/v1/jobs/{record['id']}/result").payload["result"]
            )
            assert cube_keys(result) == cube_keys(
                mine(ds, th, algorithm="rsm")
            )
        finally:
            app.close()

    def test_flipped_grid_byte_never_reaches_a_miner(self, tmp_path):
        app = ServiceApp(
            tmp_path / "data", max_workers=1, max_retries=1, retry_backoff=0.05
        )
        try:
            fp = app.registry.register(small_dataset(seed=31)).fingerprint
            grid = app.data_dir / "datasets" / f"{fp}.npy"
            data = bytearray(grid.read_bytes())
            data[200] ^= 0xFF  # a packed word, past the .npy header
            grid.write_bytes(bytes(data))
            record = post(
                app,
                "/v1/jobs",
                {
                    "dataset": fp,
                    "thresholds": Thresholds(2, 2, 2).to_dict(),
                    "use_cache": False,
                },
            ).payload
            deadline = time.monotonic() + 120
            while not app.jobs.get(record["id"]).terminal:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            job = app.jobs.get(record["id"])
            # Both attempts failed verification in the worker: retried
            # once, then quarantined, and each detection counted.
            assert job.status == "quarantined"
            assert job.retries == 1
            assert "sha256" in job.error
            assert app.chaos.corruption_detected == 2
        finally:
            app.close()


def _legacy_data_dir(tmp_path, pairs):
    """A data dir in the older NPZ layout: ``<fp>.npz`` plus the
    four-field sidecar, for each ``(fingerprint, dataset, created)``."""
    data = tmp_path / "data"
    root = data / "datasets"
    root.mkdir(parents=True)
    for fp, dataset, created in pairs:
        dataset.save_npz(root / f"{fp}.npz")
        sidecar = {
            "fingerprint": fp,
            "shape": list(dataset.shape),
            "n_ones": dataset.count_ones(),
            "created": created,
        }
        (root / f"{fp}.json").write_text(json.dumps(sidecar, indent=2))
    return data


class TestNpzMigration:
    def test_npz_entries_become_grids(self, tmp_path):
        ds = Dataset3D(
            small_dataset(seed=41).data,
            height_labels=["t0", "t1", "t2"],
        )
        other = small_dataset(seed=43)
        pairs = [
            (dataset_fingerprint(ds), ds, 100.0),
            (dataset_fingerprint(other), other, 200.0),
        ]
        data = _legacy_data_dir(tmp_path, pairs)
        th = Thresholds(2, 2, 2)
        app = ServiceApp(data, max_workers=1)
        try:
            listed = get(app, "/v1/datasets").payload["datasets"]
            assert [(d["fingerprint"], d["created"]) for d in listed] == [
                (pairs[1][0], 200.0),
                (pairs[0][0], 100.0),
            ]
            fp = pairs[0][0]
            assert app.registry.load(fp) == ds  # labels survive
            record = post(
                app,
                "/v1/jobs",
                {"dataset": fp, "thresholds": th.to_dict(), "use_cache": False},
            ).payload
            assert wait_done(app, record["id"])["status"] == "done"
            result = MiningResult.from_payload(
                get(app, f"/v1/jobs/{record['id']}/result").payload["result"]
            )
            assert cube_keys(result) == cube_keys(mine(ds, th))
        finally:
            app.close()
        root = data / "datasets"
        assert sorted(p.name for p in root.iterdir()) == sorted(
            f"{fp}{suffix}" for fp, _, _ in pairs for suffix in (".json", ".npy")
        )
        assert fsck_data_dir(data).clean

    def test_pair_failing_its_hash_stays_and_is_reported(self, tmp_path):
        fp = dataset_fingerprint(small_dataset(seed=41))
        data = _legacy_data_dir(tmp_path, [(fp, small_dataset(seed=42), 1.0)])
        root = data / "datasets"
        app = ServiceApp(data, max_workers=1)
        try:
            assert fp not in app.registry
            assert get(app, "/v1/datasets").payload["datasets"] == []
        finally:
            app.close()
        for repair in (False, True, False):
            report = fsck_data_dir(data, repair=repair)
            assert [(i.store, i.kind, i.severity, i.repaired) for i in report.issues] == [
                ("datasets", "unmigrated", "warn", False)
            ]
        assert sorted(p.name for p in root.iterdir()) == [f"{fp}.json", f"{fp}.npz"]
