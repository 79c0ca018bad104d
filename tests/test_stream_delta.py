"""Delta types, batch application, and the JSONL delta log."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.dataset import Dataset3D
from repro.io import dataset_fingerprint
from repro.stream import (
    AppendSlice,
    ClearCell,
    DeltaLog,
    DeltaLogMismatchError,
    DropSlice,
    SetCell,
    apply_deltas,
    delta_from_dict,
    delta_to_dict,
    deltas_from_payload,
    deltas_to_payload,
)
from tests.conftest import in_storage


def small_dataset() -> Dataset3D:
    rng = np.random.default_rng(7)
    return Dataset3D(rng.random((3, 4, 5)) < 0.5)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "delta",
    [
        SetCell(1, 2, 3),
        ClearCell(0, 0, 0),
        AppendSlice("height", [[1, 0], [0, 1]], label="t9"),
        AppendSlice(2, [[0], [1], [1]]),
        DropSlice("row", 1),
        DropSlice(0, 2),
    ],
)
def test_delta_dict_round_trip(delta):
    assert delta_from_dict(delta_to_dict(delta)) == delta


def test_payload_round_trip_is_json_clean():
    batch = [SetCell(0, 1, 2), AppendSlice("row", [[1, 0, 1], [0, 0, 1]])]
    payload = deltas_to_payload(batch)
    assert deltas_from_payload(json.loads(json.dumps(payload))) == batch


def test_axis_names_and_indices_agree():
    assert AppendSlice("height", [[1]]).axis == AppendSlice(0, [[1]]).axis
    assert DropSlice("column", 0).axis == 2


def test_bad_payloads_raise():
    with pytest.raises(ValueError):
        delta_from_dict({"op": "warp-cell"})
    with pytest.raises(ValueError):
        deltas_from_payload({"not": "a list"})
    with pytest.raises(ValueError):
        AppendSlice("height", [[2, 0]])  # non-binary values
    with pytest.raises(ValueError):
        DropSlice("diagonal", 0)


# ----------------------------------------------------------------------
# apply_deltas semantics
# ----------------------------------------------------------------------
def test_cell_edits_dirty_their_height_only():
    ds = small_dataset()
    app = apply_deltas(ds, [SetCell(1, 0, 0), ClearCell(1, 3, 4)])
    assert app.dataset.data[1, 0, 0] == 1
    assert app.dataset.data[1, 3, 4] == 0
    assert app.dirty_heights == 1 << 1
    assert app.height_map == (0, 1, 2)
    assert app.row_map == (0, 1, 2, 3)
    assert app.n_deltas == 2


def test_height_append_dirties_only_the_new_height():
    ds = small_dataset()
    new = np.ones((4, 5), dtype=int)
    app = apply_deltas(ds, [AppendSlice("height", new, label="fresh")])
    assert app.dataset.shape == (4, 4, 5)
    assert app.dirty_heights == 1 << 3
    assert app.dataset.height_labels[-1] == "fresh"
    assert np.array_equal(np.asarray(app.dataset.data[3], dtype=int), new)


def test_row_and_column_edits_dirty_every_height():
    ds = small_dataset()
    full = (1 << 3) - 1
    app = apply_deltas(ds, [AppendSlice("row", np.zeros((3, 5), dtype=int))])
    assert app.dirty_heights == full
    app = apply_deltas(ds, [DropSlice("column", 0)])
    assert app.dirty_heights == full
    assert app.column_map == (None, 0, 1, 2, 3)


def test_height_drop_remaps_dirty_and_maps():
    ds = small_dataset()
    app = apply_deltas(ds, [SetCell(2, 0, 0), DropSlice("height", 0)])
    # Old height 2 is now index 1 and still dirty; dropped height maps None.
    assert app.height_map == (None, 0, 1)
    assert app.dirty_heights == 1 << 1


def test_deltas_apply_in_order_against_evolving_shape():
    ds = small_dataset()
    app = apply_deltas(
        ds,
        [
            AppendSlice("height", np.zeros((4, 5), dtype=int)),
            SetCell(3, 1, 1),  # valid only after the append
        ],
    )
    assert app.dataset.data[3, 1, 1] == 1


def test_errors_carry_batch_position():
    ds = small_dataset()
    with pytest.raises(ValueError, match="delta #1"):
        apply_deltas(ds, [SetCell(0, 0, 0), SetCell(99, 0, 0)])
    with pytest.raises(ValueError, match="cannot drop the last"):
        apply_deltas(
            Dataset3D(np.ones((1, 2, 2), dtype=bool)), [DropSlice("height", 0)]
        )


def test_new_dataset_keeps_kernel():
    # A delta batch over word-stored data yields a dataset on the one
    # compute kernel with the same cells as the tensor-built path.
    ds = small_dataset()
    stored = in_storage(ds, "numpy")
    app = apply_deltas(stored, [SetCell(0, 0, 0)])
    expected = apply_deltas(ds, [SetCell(0, 0, 0)]).dataset
    assert app.dataset.with_kernel("python-int") is app.dataset
    assert app.dataset == expected
    assert app.dataset.ones_masks() == expected.ones_masks()


# ----------------------------------------------------------------------
# The delta log
# ----------------------------------------------------------------------
def test_delta_log_journal_and_replay(tmp_path):
    ds = small_dataset()
    log = DeltaLog.open(tmp_path / "log.jsonl", dataset=ds)
    batch1 = [SetCell(0, 0, 0)]
    batch2 = [DropSlice("row", 1), ClearCell(1, 0, 0)]
    step1 = apply_deltas(ds, batch1).dataset
    step2 = apply_deltas(step1, batch2).dataset
    log.append(batch1, fingerprint=dataset_fingerprint(step1))
    log.append(batch2, fingerprint=dataset_fingerprint(step2))

    reopened = DeltaLog.open(tmp_path / "log.jsonl", dataset=ds)
    assert len(reopened) == 2
    assert reopened.batches() == [batch1, batch2]
    assert reopened.tip_fingerprint() == dataset_fingerprint(step2)
    replayed = reopened.replay(ds)
    assert dataset_fingerprint(replayed) == dataset_fingerprint(step2)


def test_delta_log_rejects_wrong_base(tmp_path):
    ds = small_dataset()
    DeltaLog.open(tmp_path / "log.jsonl", dataset=ds)
    other = Dataset3D(np.zeros((2, 2, 2), dtype=bool))
    with pytest.raises(DeltaLogMismatchError):
        DeltaLog.open(tmp_path / "log.jsonl", dataset=other)


def test_replay_detects_divergence(tmp_path):
    ds = small_dataset()
    log = DeltaLog.open(tmp_path / "log.jsonl", dataset=ds)
    log.append([SetCell(0, 0, 0)], fingerprint="0" * 64)  # wrong on purpose
    with pytest.raises(DeltaLogMismatchError):
        log.replay(ds)


def test_truncated_tail_line_is_tolerated(tmp_path):
    ds = small_dataset()
    path = tmp_path / "log.jsonl"
    log = DeltaLog.open(path, dataset=ds)
    step = apply_deltas(ds, [SetCell(0, 0, 0)]).dataset
    log.append([SetCell(0, 0, 0)], fingerprint=dataset_fingerprint(step))
    with open(path, "a") as handle:
        handle.write('{"kind": "batch", "seq": 1, "del')  # torn write
    reopened = DeltaLog.open(path, dataset=ds)
    assert len(reopened) == 1


def test_open_missing_log_needs_base():
    with pytest.raises(ValueError):
        DeltaLog.open("/nonexistent/never/log.jsonl")
