"""Differential tests for the shared-memory dataset hand-off.

The acceptance bar: a pooled run that ships workers a
:class:`~repro.parallel.shm.ShmDatasetRef` must be *bit-identical* to
the pickled-dataset fallback (taken when publishing fails) and to the
sequential miner — same cube list, same mining counters — and it
must clean up after itself: after every run (clean, cancelled, or fault-recovered)
the process-wide segment registry is empty and ``/dev/shm`` holds no
``repro-fcc-`` leftovers.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core.constraints import Thresholds
from repro.cubeminer.algorithm import cubeminer_mine
from repro.datasets import paper_example, random_tensor
from repro.parallel import (
    SHM_PREFIX,
    FaultPlan,
    ShmDatasetRef,
    ShmError,
    ShmManager,
    active_segments,
    attach_dataset,
    parallel_cubeminer_mine,
    parallel_rsm_mine,
    publish_dataset,
)
from repro.parallel import executor
from repro.rsm.algorithm import rsm_mine
from tests.conftest import STORAGES, in_storage

DRIVERS = [parallel_rsm_mine, parallel_cubeminer_mine]
SEQUENTIAL = {parallel_rsm_mine: rsm_mine, parallel_cubeminer_mine: cubeminer_mine}

#: Driver-side transport counters — the only metrics allowed to differ
#: between an shm run and a pickled run of the same mining config.
TRANSPORT_FIELDS = ("shm_datasets_published",)


def cube_triples(result):
    return [(c.heights, c.rows, c.columns) for c in result]


def mining_counters(result):
    d = result.stats.metrics.as_dict()
    for name in TRANSPORT_FIELDS:
        d.pop(name)
    return d


def active_buffers():
    from repro.parallel import shm as shm_mod

    return {name: segment.buf for name, segment in shm_mod._CREATED.items()}


def assert_no_leaks():
    assert active_segments() == ()
    if os.path.isdir("/dev/shm"):
        ours = [n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)]
        assert ours == []


@pytest.fixture(scope="module")
def dataset():
    return random_tensor((6, 12, 18), 0.35, seed=3)


@pytest.fixture(scope="module")
def thresholds():
    return Thresholds(2, 2, 2)


# ----------------------------------------------------------------------
# Publish / attach roundtrip
# ----------------------------------------------------------------------
class TestPublishAttach:
    @pytest.mark.parametrize("storage", STORAGES)
    def test_roundtrip_preserves_every_bit(self, dataset, storage):
        with ShmManager() as manager:
            ref = publish_dataset(in_storage(dataset, storage), manager)
            attachment = attach_dataset(ref)
            try:
                assert attachment.dataset.shape == dataset.shape
                assert np.array_equal(attachment.dataset.data, dataset.data)
                assert attachment.dataset.ones_masks() == dataset.ones_masks()
                # The segment is the attached dataset's storage, uncopied.
                segment = np.ndarray(
                    ref.words_shape, dtype="<u8", buffer=active_buffers()[ref.segment]
                )
                assert np.shares_memory(attachment.dataset.packed_grid(), segment)
            finally:
                attachment.close()
        assert_no_leaks()

    def test_ref_is_tiny_compared_to_the_dataset(self, dataset):
        with ShmManager() as manager:
            ref = publish_dataset(dataset, manager)
            assert len(pickle.dumps(ref)) < 512
            assert len(pickle.dumps(ref)) < len(pickle.dumps(dataset))
        assert_no_leaks()

    def test_fingerprint_tamper_detected(self, dataset):
        with ShmManager() as manager:
            ref = publish_dataset(dataset, manager)
            bad = ShmDatasetRef(
                segment=ref.segment,
                shape=ref.shape,
                nbytes=ref.nbytes,
                fingerprint="0" * 64,
            )
            # An owned segment short-circuits verification; a fresh
            # attach (forced via a clean registry view) must reject it.
            from repro.parallel import shm as shm_mod

            held = shm_mod._CREATED.pop(ref.segment)
            try:
                with pytest.raises(ShmError, match="fingerprint"):
                    attach_dataset(bad)
                attachment = attach_dataset(ref)
                attachment.close()
            finally:
                shm_mod._CREATED[ref.segment] = held
        assert_no_leaks()

    def test_shape_nbytes_mismatch_rejected(self, dataset):
        with ShmManager() as manager:
            ref = publish_dataset(dataset, manager)
            bad = ShmDatasetRef(
                segment=ref.segment,
                shape=ref.shape,
                nbytes=ref.nbytes + 8,
                fingerprint=ref.fingerprint,
            )
            with pytest.raises(ShmError, match="bytes"):
                attach_dataset(bad)
        assert_no_leaks()

    def test_attach_after_unlink_raises(self, dataset):
        manager = ShmManager()
        ref = publish_dataset(dataset, manager)
        manager.cleanup()
        with pytest.raises(ShmError, match="does not exist"):
            attach_dataset(ref)
        assert_no_leaks()

    def test_empty_dataset_cannot_publish(self):
        from repro.core.dataset import Dataset3D

        empty = Dataset3D(np.zeros((0, 3, 4), dtype=bool))
        with ShmManager() as manager:
            with pytest.raises(ShmError, match="empty"):
                publish_dataset(empty, manager)
        assert_no_leaks()

    def test_manager_cleanup_is_idempotent(self, dataset):
        manager = ShmManager()
        publish_dataset(dataset, manager)
        assert len(manager.segments) == 1
        manager.cleanup()
        manager.cleanup()
        assert manager.segments == ()
        assert_no_leaks()


# ----------------------------------------------------------------------
# Differential: shm == pickled fallback == sequential
# ----------------------------------------------------------------------
def failing_publish(dataset, manager):
    raise ShmError("publishing disabled for this test")


class TestDifferential:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_shm_pickled_sequential_bit_identical(
        self, dataset, thresholds, driver, monkeypatch
    ):
        seq = SEQUENTIAL[driver](dataset, thresholds)
        shm_run = driver(dataset, thresholds, n_workers=2)
        monkeypatch.setattr(executor, "publish_dataset", failing_publish)
        pickled = driver(dataset, thresholds, n_workers=2)
        assert sorted(cube_triples(shm_run)) == sorted(cube_triples(seq))
        assert cube_triples(shm_run) == cube_triples(pickled)
        # Node-count parity: identical mining work, not just results.
        assert mining_counters(shm_run) == mining_counters(pickled)
        assert shm_run.stats.metrics.shm_datasets_published == 1
        assert pickled.stats.metrics.shm_datasets_published == 0
        assert shm_run.stats.extra["shm"]["enabled"]
        assert not pickled.stats.extra["shm"]["enabled"]
        assert_no_leaks()

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_publish_failure_falls_back_to_pickled(
        self, dataset, thresholds, driver, monkeypatch
    ):
        monkeypatch.setattr(executor, "publish_dataset", failing_publish)
        result = driver(dataset, thresholds, n_workers=2)
        seq = SEQUENTIAL[driver](dataset, thresholds)
        assert sorted(cube_triples(result)) == sorted(cube_triples(seq))
        shm = result.stats.extra["shm"]
        assert shm["enabled"] is False
        assert "publishing disabled" in shm["error"]
        assert result.stats.metrics.shm_datasets_published == 0
        assert result.stats.extra["recovery"]["task_failures"] == 0
        assert_no_leaks()

    def test_auto_enables_shm_for_pooled_runs(self, dataset, thresholds):
        result = parallel_rsm_mine(dataset, thresholds, n_workers=2)
        assert result.stats.extra["shm"]["enabled"]
        assert result.stats.metrics.shm_datasets_published == 1
        assert_no_leaks()

    def test_inline_run_skips_shm_by_default(self, dataset, thresholds):
        for driver in DRIVERS:
            result = driver(dataset, thresholds, n_workers=1)
            assert result.stats.extra["shm"] == {"enabled": False}
            assert result.stats.metrics.shm_datasets_published == 0
            assert_no_leaks()

    def test_paper_example_over_shm(self, thresholds):
        # parallel-rsm: parallel-cubeminer finds all five cubes while
        # expanding the frontier, so its pool never runs.
        ds = paper_example()
        result = parallel_rsm_mine(ds, thresholds, n_workers=2)
        assert result.stats.extra["shm"]["enabled"]
        seq = rsm_mine(ds, thresholds)
        assert sorted(cube_triples(result)) == sorted(cube_triples(seq))
        assert_no_leaks()


# ----------------------------------------------------------------------
# Faults: recovery must not change results or leak segments
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestShmUnderFaults:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_crash_and_exception_recovery_parity(self, dataset, thresholds, driver):
        clean = driver(dataset, thresholds, n_workers=2)
        plan = FaultPlan.random(8, 3, kinds=("crash", "exception"), seed=11)
        faulty = driver(
            dataset,
            thresholds,
            n_workers=2,
            fault_plan=plan,
            backoff=0.01,
        )
        assert cube_triples(faulty) == cube_triples(clean)
        assert faulty.stats.metrics.as_dict() == clean.stats.metrics.as_dict()
        assert_no_leaks()

    def test_hang_recovery_under_timeout(self, dataset, thresholds):
        clean = parallel_rsm_mine(dataset, thresholds, n_workers=2)
        plan = FaultPlan.single(1, "hang", seconds=30.0)
        faulty = parallel_rsm_mine(
            dataset,
            thresholds,
            n_workers=2,
            fault_plan=plan,
            task_timeout=0.5,
            backoff=0.01,
        )
        assert cube_triples(faulty) == cube_triples(clean)
        assert faulty.stats.metrics.as_dict() == clean.stats.metrics.as_dict()
        assert_no_leaks()

    def test_permanent_crash_degrades_inline_without_leaks(
        self, dataset, thresholds
    ):
        clean = parallel_rsm_mine(dataset, thresholds, n_workers=2)
        plan = FaultPlan.single(0, "crash", attempts=None)
        degraded = parallel_rsm_mine(
            dataset,
            thresholds,
            n_workers=2,
            fault_plan=plan,
            backoff=0.01,
        )
        assert cube_triples(degraded) == cube_triples(clean)
        assert degraded.stats.extra["recovery"]["degraded_inline"] is True
        assert_no_leaks()
