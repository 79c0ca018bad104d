"""The mmap dataset store and out-of-core mining.

The differentials here close the loop the out-of-core backend promises:
a memory-mapped dataset mines bit-identically to its in-memory twin,
the streaming writer's incremental fingerprint equals the canonical
:func:`repro.io.dataset_fingerprint`, and :func:`stream_mine` — with
and without the diamond-dicing prefilter — returns exactly what plain
RSM returns.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.api import mine
from repro.chaos import ChaosPlan, ChaosShim, fsck_data_dir
from repro.chaos.io import StoreCorruptionError
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.kernels import PackedBufferError, release_mapped_pages
from repro.io import dataset_fingerprint
from repro.obs.metrics import MiningMetrics
from repro.stream import (
    MmapDatasetStore,
    StreamingSliceWriter,
    diamond_dice,
    stream_mine,
)
from tests.conftest import STORAGES, in_storage



def _keys(result):
    return [(c.heights, c.rows, c.columns) for c in result.cubes]


def random_dataset(seed: int = 5, shape=(4, 9, 70)) -> Dataset3D:
    rng = np.random.default_rng(seed)
    return Dataset3D(rng.random(shape) < 0.45)


# ----------------------------------------------------------------------
# Store round-trips
# ----------------------------------------------------------------------
def test_put_open_round_trip(tmp_path):
    ds = random_dataset()
    store = MmapDatasetStore(tmp_path)
    fp = store.register(ds).fingerprint
    assert fp == dataset_fingerprint(ds)
    assert fp in store
    assert [entry.fingerprint for entry in store.list()] == [fp]
    opened = store.load(fp)
    assert opened.shape == ds.shape
    assert np.array_equal(
        np.asarray(opened.data, dtype=bool), np.asarray(ds.data, dtype=bool)
    )
    assert list(opened.height_labels) == list(ds.height_labels)
    meta = store.meta(fp)
    assert meta["n_ones"] == int(np.asarray(ds.data).sum())


def test_put_is_idempotent(tmp_path):
    ds = random_dataset()
    store = MmapDatasetStore(tmp_path)
    assert store.register(ds) == store.register(ds)
    assert len(store) == 1


def test_open_unknown_fingerprint_raises(tmp_path):
    with pytest.raises(KeyError):
        MmapDatasetStore(tmp_path).load("f" * 64)


def _register_together(stores, dataset):
    """Every store registers ``dataset`` at once, one thread each."""
    barrier = threading.Barrier(len(stores))
    entries, errors = [], []

    def register(store):
        barrier.wait()
        try:
            entries.append(store.register(dataset))
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    threads = [threading.Thread(target=register, args=(s,)) for s in stores]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return entries, errors


@pytest.mark.parametrize("shared", (True, False), ids=("one-store", "one-per-thread"))
def test_concurrent_register_of_one_dataset(tmp_path, shared):
    # Daemon request threads share one store; separate stores over one
    # root stand in for separate processes.
    ds = random_dataset(seed=17, shape=(20, 100, 300))
    fp = dataset_fingerprint(ds)
    for trial in range(5):
        root = tmp_path / f"trial{trial}"
        first = MmapDatasetStore(root)
        stores = [first if shared else MmapDatasetStore(root) for _ in range(6)]
        entries, errors = _register_together(stores, ds)
        assert errors == []
        assert len(entries) == 6
        if shared:
            assert set(entries) == {entries[0]}
        assert {entry.fingerprint for entry in entries} == {fp}
        assert sorted(p.name for p in root.glob("*.npy")) == [f"{fp}.npy"]
        assert list(root.glob(".*")) == []
        assert first.load(fp) == ds


@pytest.mark.parametrize(
    "sidecar",
    ("[1, 2]", "{broken", json.dumps({"fingerprint": "0" * 64})),
    ids=("not-an-object", "not-json", "other-fingerprint"),
)
def test_entries_with_invalid_metadata_are_skipped(tmp_path, sidecar):
    store = MmapDatasetStore(tmp_path)
    fp = store.register(random_dataset()).fingerprint
    store.meta_path(fp).write_text(sidecar)
    assert fp not in store
    assert store.list() == []
    assert len(store) == 0
    for read in (store.meta, store.get, store.load):
        with pytest.raises(KeyError):
            read(fp)


def test_edited_sidecar_fails_its_digest(tmp_path):
    """Labels and the one-count are covered by the sidecar's own digest:
    an edit fails the load (counted as corruption), hides the entry,
    is reported by fsck, and registering the dataset again rewrites it."""
    data = tmp_path / "data"
    store = MmapDatasetStore(data / "datasets")
    ds = random_dataset()
    fp = store.register(ds).fingerprint
    meta = json.loads(store.meta_path(fp).read_text())
    meta["column_labels"][0] = "c9"
    meta["n_ones"] += 1
    store.meta_path(fp).write_text(json.dumps(meta, indent=2))
    with pytest.raises(StoreCorruptionError, match="sidecar sha256"):
        store.load(fp)
    assert store.chaos.corruption_detected == 1
    assert fp not in store
    report = fsck_data_dir(data)
    assert [(i.store, i.kind, i.path) for i in report.errors] == [
        ("datasets", "checksum-mismatch", f"datasets/{fp}.json")
    ]
    assert store.register(ds).fingerprint == fp
    assert store.load(fp) == ds
    assert fsck_data_dir(data).clean


def test_older_sidecars_gain_their_digest_on_open(tmp_path):
    """A sidecar written before sidecars recorded their own digest gets
    one when its grid verifies; fsck warns about it until then.  One
    whose grid fails stays as it is and its entry does not load."""
    data = tmp_path / "data"
    store = MmapDatasetStore(data / "datasets")
    good = store.register(random_dataset(seed=1)).fingerprint
    bad = store.register(random_dataset(seed=2)).fingerprint
    for fp in (good, bad):
        meta = json.loads(store.meta_path(fp).read_text())
        del meta["meta_sha256"]
        store.meta_path(fp).write_text(json.dumps(meta, indent=2))
    assert {i.kind for i in fsck_data_dir(data, verify_checksums=False).warnings} == {
        "unmigrated"
    }
    words = np.load(store.path(bad))
    words[0, 0, 0] ^= np.uint64(1)
    np.save(store.path(bad), words)
    reopened = MmapDatasetStore(data / "datasets")
    assert "meta_sha256" in json.loads(reopened.meta_path(good).read_text())
    assert "meta_sha256" not in json.loads(reopened.meta_path(bad).read_text())
    assert reopened.load(good) == random_dataset(seed=1)
    with pytest.raises(StoreCorruptionError):
        reopened.load(bad)


def test_torn_sidecar_write_fails_then_retry_registers(tmp_path):
    shim = ChaosShim(ChaosPlan.single("torn-write", site="registry", op="write"))
    store = MmapDatasetStore(tmp_path, io=shim)
    ds = random_dataset()
    with pytest.raises(OSError):
        store.register(ds)
    fp = dataset_fingerprint(ds)
    assert fp not in store
    assert store.register(ds).fingerprint == fp  # the fault hit call 0 only
    assert store.load(fp) == ds


def test_open_mmap_rejects_stray_tail_bits(tmp_path):
    # Columns not a multiple of 64: a corrupt file with bits set past
    # the last column must be refused, chunked validation or not.
    ds = random_dataset(shape=(2, 3, 70))
    store = MmapDatasetStore(tmp_path)
    fp = store.register(ds).fingerprint
    words = np.load(store.path(fp))
    words[1, 2, -1] |= np.uint64(1) << np.uint64(63)
    np.save(store.path(fp), words)
    with pytest.raises(PackedBufferError):
        Dataset3D.open_mmap(store.path(fp), ds.shape)


# ----------------------------------------------------------------------
# Streaming writer
# ----------------------------------------------------------------------
def test_streaming_writer_matches_canonical_fingerprint(tmp_path):
    ds = random_dataset(seed=9, shape=(5, 7, 33))
    store = MmapDatasetStore(tmp_path)
    with store.writer(ds.shape) as writer:
        for k in range(ds.n_heights):
            writer.append_slice(np.asarray(ds.data[k], dtype=int))
        fp = writer.seal()
    assert fp == dataset_fingerprint(ds)
    opened = store.load(fp)
    assert np.array_equal(
        np.asarray(opened.data, dtype=bool), np.asarray(ds.data, dtype=bool)
    )


def test_streaming_writer_validates(tmp_path):
    store = MmapDatasetStore(tmp_path)
    writer = store.writer((2, 3, 4))
    with pytest.raises(ValueError):
        writer.append_slice(np.zeros((9, 9)))
    with pytest.raises(ValueError):
        writer.seal()  # only 0 of 2 slices written
    writer.abort()
    with pytest.raises(RuntimeError):
        writer.append_slice(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        StreamingSliceWriter(store, (0, 3, 4))


def test_aborted_writer_leaves_no_temp_files(tmp_path):
    store = MmapDatasetStore(tmp_path)
    with store.writer((2, 3, 4)) as writer:
        writer.append_slice(np.ones((3, 4)))
        # leaving the block unsealed aborts
    leftovers = list(tmp_path.glob(".stream-*.tmp.npy"))
    assert leftovers == []
    assert len(store) == 0


# ----------------------------------------------------------------------
# mmap vs in-memory mining differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_mmap_mines_identically(tmp_path, storage, seed):
    ds = in_storage(random_dataset(seed=seed, shape=(3, 8, 66)), storage)
    th = Thresholds(2, 2, 2)
    store = MmapDatasetStore(tmp_path)
    mapped = store.load(store.register(ds).fingerprint)
    assert _keys(mine(mapped, th, algorithm="rsm")) == _keys(
        mine(ds, th, algorithm="rsm")
    )


# ----------------------------------------------------------------------
# stream_mine and diamond dicing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("dice", (False, True))
def test_stream_mine_equals_rsm(tmp_path, storage, dice):
    for seed in (1, 4, 8):
        ds = in_storage(random_dataset(seed=seed, shape=(4, 10, 40)), storage)
        th = Thresholds(2, 2, 2)
        fresh = mine(ds, th, algorithm="rsm")
        streamed = stream_mine(ds, th, dice=dice, chunk_rows=3)
        assert _keys(streamed) == _keys(fresh)
        assert streamed.stats.extra["stream"]["chunks_read"] > 0


def test_stream_mine_over_mapped_store(tmp_path):
    ds = random_dataset(seed=6, shape=(4, 12, 80))
    th = Thresholds(2, 3, 3)
    store = MmapDatasetStore(tmp_path)
    mapped = store.load(store.register(ds).fingerprint)
    metrics = MiningMetrics()
    streamed = stream_mine(mapped, th, chunk_rows=4, metrics=metrics)
    assert _keys(streamed) == _keys(mine(ds, th, algorithm="rsm"))
    assert metrics.stream_chunks_read > 0
    assert streamed.algorithm == "stream-rsm"


def test_stream_mine_with_volume_constraint():
    ds = random_dataset(seed=13, shape=(3, 7, 30))
    th = Thresholds(2, 2, 2, min_volume=12)
    assert _keys(stream_mine(ds, th)) == _keys(mine(ds, th, algorithm="rsm"))


def test_stream_mine_infeasible_thresholds_is_empty():
    ds = random_dataset(shape=(2, 3, 4))
    result = stream_mine(ds, Thresholds(5, 5, 5))
    assert len(result) == 0


def test_diamond_dice_never_prunes_a_surviving_cube():
    rng = np.random.default_rng(3)
    data = rng.random((4, 12, 20)) < 0.15
    data[:3, 2:7, 4:12] = True  # plant a dense block
    ds = Dataset3D(data)
    th = Thresholds(3, 4, 6)
    region = diamond_dice(ds, th, chunk_rows=5)
    fresh = mine(ds, th, algorithm="rsm")
    for cube in fresh:
        for k in range(ds.n_heights):
            if cube.heights >> k & 1:
                assert region.heights[k]
        for i in range(ds.n_rows):
            if cube.rows >> i & 1:
                assert region.rows[i]
        for j in range(ds.n_columns):
            if cube.columns >> j & 1:
                assert region.columns[j]
    assert region.shape <= ds.shape


def test_diamond_dice_prunes_pure_noise_around_block():
    data = np.zeros((4, 10, 10), dtype=bool)
    data[:3, :4, :4] = True
    data[3, 9, 9] = True  # lone cell far from the block
    region = diamond_dice(Dataset3D(data), Thresholds(2, 2, 2))
    assert not region.heights[3]
    assert not region.rows[9]
    assert not region.columns[9]
    assert region.shape == (3, 4, 4)


def test_dice_result_maps_back_to_original_indices():
    data = np.zeros((3, 6, 6), dtype=bool)
    data[1:, 2:5, 3:6] = True
    ds = Dataset3D(data)
    th = Thresholds(2, 2, 2)
    result = stream_mine(ds, th, dice=True)
    assert _keys(result) == _keys(mine(ds, th, algorithm="rsm"))
    assert result.algorithm == "stream-rsm[dice]"
    assert result.stats.extra["stream"]["dice_kept_shape"] == [2, 3, 3]


def test_release_mapped_pages_is_safe_everywhere(tmp_path):
    # Plain arrays: a no-op returning False; mapped arrays: True.
    assert release_mapped_pages(np.zeros((4, 4))) is False
    ds = random_dataset(shape=(2, 4, 8))
    store = MmapDatasetStore(tmp_path)
    mapped = np.load(store.path(store.register(ds).fingerprint), mmap_mode="r")
    assert release_mapped_pages(mapped) is True
    assert release_mapped_pages(mapped[0]) is True  # view chains resolve
