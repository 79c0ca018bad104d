"""The packed-word storage boundary.

Python ints compute; packed little-endian uint64 words are only the
storage behind shared-memory hand-off, memory-mapped datasets and the
out-of-core folds.  One hypothesis property pins that boundary for
random shapes, column counts straddling the 64-bit word edges
included: the words round-trip to the tensor, every way of building a
dataset from words yields the in-memory masks and cubes, and stray
tail bits are rejected.  A dataset stored as words pickles its words,
not the tensor, and pickles written before the kernel registry was
removed still load.
"""

from __future__ import annotations

import base64
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset3D, Thresholds, mine
from repro.core import reference_mine
from repro.core.kernels import (
    PackedBufferError,
    tensor_from_words,
    words_from_tensor,
)
from repro.datasets import random_tensor
from repro.fcp.matrix import BinaryMatrix
from repro.parallel import ShmError, ShmManager, attach_dataset, publish_dataset
from repro.stream import MmapDatasetStore
from tests.conftest import STORAGES, in_storage

#: Column counts at and around the word edges, plus one wider than 256.
_COLUMNS = [0, 1, 63, 64, 65, 130, 300]


@st.composite
def tensors(draw):
    l = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.sampled_from(_COLUMNS))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    data = np.random.default_rng(seed).random((l, n, m)) < density
    return data


def _cubes(dataset, thresholds):
    return {
        algorithm: mine(dataset, thresholds, algorithm=algorithm).cubes
        for algorithm in ("cubeminer", "rsm")
    }


def _with_stray_bit(words: np.ndarray, m: int) -> np.ndarray:
    bad = words.copy()
    bad[0, 0, -1] |= np.uint64(1) << np.uint64(m % 64)
    return bad


@settings(max_examples=40, deadline=None)
@given(data=tensors(), min_c=st.integers(min_value=1, max_value=40))
def test_packed_words_boundary(tmp_path_factory, data, min_c):
    l, n, m = data.shape
    memory = Dataset3D(data)
    words = words_from_tensor(data)

    # 1. words <-> tensor round trip.
    assert words.shape == (l, n, (m + 63) // 64)
    assert np.array_equal(tensor_from_words(words, data.shape), data)
    assert np.array_equal(memory.packed_grid(), words)

    # 2. every dataset built from words mines like the in-memory one.
    thresholds = Thresholds(1, 1, min(min_c, max(m, 1)))
    expected = reference_mine(memory, thresholds).cubes
    assert _cubes(memory, thresholds) == {"cubeminer": expected, "rsm": expected}
    store = MmapDatasetStore(tmp_path_factory.mktemp("store"))
    built = {
        "from_packed_grid": Dataset3D.from_packed_grid(words, data.shape),
        "open_mmap": store.load(store.register(memory).fingerprint),
    }
    with ShmManager() as manager:
        if m == 0:
            with pytest.raises(ShmError, match="empty"):
                publish_dataset(memory, manager)
        else:
            attachment = attach_dataset(publish_dataset(memory, manager))
            built["shm"] = attachment.dataset
        for name, dataset in built.items():
            assert dataset.ones_masks() == memory.ones_masks(), name
            assert _cubes(dataset, thresholds) == {
                "cubeminer": expected,
                "rsm": expected,
            }, name
            assert dataset == memory, name
        if m:
            attachment.close()

    # 3. stray tail bits are rejected wherever words enter.
    if m % 64:
        bad = _with_stray_bit(words, m)
        with pytest.raises(PackedBufferError, match="stray"):
            Dataset3D.from_packed_grid(bad, data.shape)
        with pytest.raises(PackedBufferError, match="stray"):
            BinaryMatrix.from_packed(bad[0], m)
        path = tmp_path_factory.mktemp("bad") / "bad.npy"
        np.save(path, bad)
        with pytest.raises(PackedBufferError, match="stray"):
            Dataset3D.open_mmap(path, data.shape)


#: ``pickle.dumps((dataset, matrix), protocol=4)`` from the release that
#: still had kernel backends: ``Dataset3D([[[1,0,1],[1,1,0]],
#: [[0,1,1],[1,1,1]]], kernel="numpy")`` and
#: ``BinaryMatrix.from_row_masks([5, 3], 3, kernel="numpy")``.  Both
#: states carry a ``"kernel"`` key.
_KERNEL_ERA_PICKLE = (
    "gASVgAEAAAAAAACMEnJlcHJvLmNvcmUuZGF0YXNldJSMCURhdGFzZXQzRJSTlCmBlH2UKIwE"
    "ZGF0YZSMFm51bXB5Ll9jb3JlLm11bHRpYXJyYXmUjAxfcmVjb25zdHJ1Y3SUk5SMBW51bXB5"
    "lIwHbmRhcnJheZSTlEsAhZRDAWKUh5RSlChLAUsCSwJLA4eUaAmMBWR0eXBllJOUjAJiMZSJ"
    "iIeUUpQoSwOMAXyUTk5OSv////9K/////0sAdJRiiUMMAQABAQEAAAEBAQEBlHSUYowNaGVp"
    "Z2h0X2xhYmVsc5SMAmgxlIwCaDKUhpSMCnJvd19sYWJlbHOUjAJyMZSMAnIylIaUjA1jb2x1"
    "bW5fbGFiZWxzlIwCYzGUjAJjMpSMAmMzlIeUjAZrZXJuZWyUaAl1YowQcmVwcm8uZmNwLm1h"
    "dHJpeJSMDEJpbmFyeU1hdHJpeJSTlCmBlH2UKIwJcm93X21hc2tzlF2UKEsFSwNljAluX2Nv"
    "bHVtbnOUSwNoJ2gJdWKGlC4="
)


def test_kernel_era_pickle_still_loads():
    dataset, matrix = pickle.loads(base64.b64decode(_KERNEL_ERA_PICKLE))
    assert dataset == Dataset3D([[[1, 0, 1], [1, 1, 0]], [[0, 1, 1], [1, 1, 1]]])
    assert dataset.ones_masks() == [[5, 3], [6, 7]]
    assert matrix == BinaryMatrix.from_row_masks([5, 3], 3)
    assert matrix.support_rows(0b001) == 0b11
    assert mine(dataset, Thresholds(1, 1, 1)).same_cubes(
        reference_mine(dataset, Thresholds(1, 1, 1))
    )


def test_word_storage_pickles_its_words(tmp_path):
    """An 8x64x4096 mapped dataset pickles its 256 KiB of words; neither
    pickling nor unpickling builds the boolean tensor."""
    data = np.random.default_rng(5).random((8, 64, 4096)) < 0.3
    path = tmp_path / "grid.npy"
    np.save(path, words_from_tensor(data))
    mapped = Dataset3D.open_mmap(path, data.shape)
    blob = pickle.dumps(mapped)
    assert mapped._data is None
    assert 8 * 64 * 4096 // 8 < len(blob) < 2 * 8 * 64 * 4096 // 8
    clone = pickle.loads(blob)
    assert clone._data is None
    assert clone.ones_masks() == mapped.ones_masks()
    assert clone._data is None
    assert clone == mapped
    assert np.array_equal(clone.data, data)
    assert clone.column_labels == mapped.column_labels


@pytest.mark.parametrize("storage", STORAGES)
def test_compare_and_hash_leave_word_storage_out_of_core(storage):
    """Equal datasets compare and hash equal across the two storages, and
    neither operation builds a word-stored dataset's boolean tensor."""
    source = random_tensor((4, 5, 70), 0.5, seed=8)
    words = in_storage(source, "numpy")
    other = in_storage(source, storage)
    assert words == other and other == words
    assert hash(words) == hash(other)
    assert words != in_storage(random_tensor((4, 5, 70), 0.5, seed=9), storage)
    assert words._data is None
    if storage == "numpy":
        assert other._data is None
