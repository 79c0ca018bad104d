"""Tests for the interchange formats (triples, JSON, CSV)."""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.io import (
    DatasetFormatError,
    FingerprintStream,
    dataset_fingerprint,
    dataset_from_payload,
    dataset_to_payload,
    load_triples,
    raw_cubes_from_payload,
    raw_cubes_to_payload,
    result_from_json,
    result_to_csv,
    result_to_json,
    save_triples,
)
from tests.conftest import STORAGES, in_storage


class TestTriples:
    def test_round_trip(self, paper_ds, tmp_path):
        path = tmp_path / "paper.triples"
        save_triples(paper_ds, path)
        loaded = load_triples(path)
        assert np.array_equal(loaded.data, paper_ds.data)

    def test_header_line(self, paper_ds, tmp_path):
        path = tmp_path / "paper.triples"
        save_triples(paper_ds, path)
        assert path.read_text().splitlines()[0] == "3 4 5"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "sparse.triples"
        path.write_text(
            "# a comment\n\n2 2 2\n0 0 0  # trailing comment\n\n1 1 1\n"
        )
        ds = load_triples(path)
        assert ds.cell(0, 0, 0) and ds.cell(1, 1, 1)
        assert ds.count_ones() == 2

    def test_out_of_range_cell(self, tmp_path):
        path = tmp_path / "bad.triples"
        path.write_text("2 2 2\n0 0 5\n")
        with pytest.raises(ValueError, match="outside"):
            load_triples(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.triples"
        path.write_text("2 2 2\n0 zero 1\n")
        with pytest.raises(ValueError, match="line 2"):
            load_triples(path)

    def test_short_line(self, tmp_path):
        path = tmp_path / "bad.triples"
        path.write_text("2 2 2\n0 0\n")
        with pytest.raises(ValueError, match="3 integers"):
            load_triples(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.triples"
        path.write_text("# only comments\n")
        with pytest.raises(ValueError, match="header"):
            load_triples(path)

    def test_empty_tensor(self, tmp_path):
        ds = Dataset3D(np.zeros((2, 3, 4), dtype=bool))
        path = tmp_path / "zeros.triples"
        save_triples(ds, path)
        assert load_triples(path).count_ones() == 0


class TestDatasetFormatError:
    """Every malformation raises the one typed error with a line number."""

    def write(self, tmp_path, text):
        path = tmp_path / "bad.triples"
        path.write_text(text)
        return path

    def test_out_of_range_cell_is_typed(self, tmp_path):
        path = self.write(tmp_path, "2 2 2\n0 0 5\n")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_triples(path)
        assert excinfo.value.line_no == 2
        assert excinfo.value.path == str(path)

    def test_duplicate_cell(self, tmp_path):
        path = self.write(tmp_path, "2 2 2\n0 0 1\n1 1 1\n0 0 1\n")
        with pytest.raises(DatasetFormatError, match="duplicate cell") as excinfo:
            load_triples(path)
        assert excinfo.value.line_no == 4

    def test_truncated_header(self, tmp_path):
        path = self.write(tmp_path, "2 2\n0 0 0\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_triples(path)

    def test_negative_header(self, tmp_path):
        path = self.write(tmp_path, "2 -2 2\n")
        with pytest.raises(DatasetFormatError, match=">= 0"):
            load_triples(path)

    def test_non_integer_token(self, tmp_path):
        path = self.write(tmp_path, "2 2 2\n0 0.5 1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_triples(path)

    def test_missing_header_reports_no_line(self, tmp_path):
        path = self.write(tmp_path, "# nothing here\n")
        with pytest.raises(DatasetFormatError, match="header") as excinfo:
            load_triples(path)
        assert excinfo.value.line_no is None

    def test_is_a_value_error(self, tmp_path):
        # Pre-existing `except ValueError` handlers must keep working.
        path = self.write(tmp_path, "2 2 2\n9 9 9\n")
        with pytest.raises(ValueError):
            load_triples(path)

    def test_message_carries_path_and_line(self, tmp_path):
        path = self.write(tmp_path, "2 2 2\nx y z\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_triples(path)


class TestRawCubePayload:
    def test_round_trip_bigints(self):
        raw = [((1 << 200) | 5, 0b1011, 1), (0, 0, 0)]
        assert raw_cubes_from_payload(raw_cubes_to_payload(raw)) == raw

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="masks"):
            raw_cubes_from_payload([[1, 2]])


class TestEventCsv:
    CSV = (
        "month,region,item\n"
        "jan,north,coffee\n"
        "jan,north,tea\n"
        "jan,south,coffee\n"
        "feb,north,coffee\n"
        "feb,north,coffee\n"  # duplicate events are idempotent
    )

    @pytest.fixture
    def csv_path(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_text(self.CSV)
        return path

    def test_shape_and_labels(self, csv_path):
        from repro.io import load_event_csv

        ds = load_event_csv(
            csv_path, height_column="month", row_column="region",
            column_column="item",
        )
        assert ds.shape == (2, 2, 2)
        assert ds.height_labels == ("jan", "feb")
        assert ds.row_labels == ("north", "south")
        assert ds.column_labels == ("coffee", "tea")

    def test_cells(self, csv_path):
        from repro.io import load_event_csv

        ds = load_event_csv(
            csv_path, height_column="month", row_column="region",
            column_column="item",
        )
        assert ds.cell(0, 0, 0)       # jan/north/coffee
        assert ds.cell(0, 0, 1)       # jan/north/tea
        assert ds.cell(0, 1, 0)       # jan/south/coffee
        assert ds.cell(1, 0, 0)       # feb/north/coffee
        assert not ds.cell(1, 1, 1)   # feb/south/tea never happened
        assert ds.count_ones() == 4

    def test_missing_column(self, csv_path):
        from repro.io import load_event_csv

        with pytest.raises(ValueError, match="'store'"):
            load_event_csv(
                csv_path, height_column="month", row_column="store",
                column_column="item",
            )

    def test_empty_body(self, tmp_path):
        from repro.io import load_event_csv

        path = tmp_path / "empty.csv"
        path.write_text("month,region,item\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_event_csv(
                path, height_column="month", row_column="region",
                column_column="item",
            )

    def test_mined_directly(self, csv_path):
        from repro.core.constraints import Thresholds
        from repro.io import load_event_csv

        ds = load_event_csv(
            csv_path, height_column="month", row_column="region",
            column_column="item",
        )
        result = mine(ds, Thresholds(2, 1, 1))
        # coffee sold to north in both months -> a 2x1x1 FCC exists.
        assert any(
            cube.h_support == 2 and cube.column_indices() == (0,)
            for cube in result
        )


class TestJson:
    @pytest.fixture
    def mined(self, paper_ds, paper_thresholds):
        return mine(paper_ds, paper_thresholds)

    def test_round_trip(self, paper_ds, mined):
        text = result_to_json(mined, paper_ds)
        rebuilt = result_from_json(text)
        assert rebuilt.same_cubes(mined)
        assert rebuilt.thresholds == mined.thresholds
        assert rebuilt.dataset_shape == mined.dataset_shape
        assert rebuilt.algorithm == mined.algorithm

    def test_labels_embedded(self, paper_ds, mined):
        payload = json.loads(result_to_json(mined, paper_ds))
        assert payload["labels"]["columns"] == ["c1", "c2", "c3", "c4", "c5"]

    def test_no_dataset_no_labels(self, mined):
        payload = json.loads(result_to_json(mined))
        assert "labels" not in payload

    def test_minimal_payload(self):
        rebuilt = result_from_json('{"cubes": []}')
        assert len(rebuilt) == 0
        assert rebuilt.thresholds is None

    def test_min_volume_round_trips(self, paper_ds):
        thresholds = Thresholds(1, 1, 1, min_volume=6)
        payload = json.loads(result_to_json(mine(paper_ds, thresholds)))
        assert payload["thresholds"] == thresholds.to_dict()
        assert result_from_json(json.dumps(payload)).thresholds == thresholds

    def test_three_value_thresholds_still_load(self):
        rebuilt = result_from_json('{"cubes": [], "thresholds": [2, 3, 4]}')
        assert rebuilt.thresholds == Thresholds(2, 3, 4)


class TestCsv:
    @pytest.fixture
    def mined(self, paper_ds, paper_thresholds):
        return mine(paper_ds, paper_thresholds)

    def test_header_and_rows(self, paper_ds, mined):
        rows = list(csv.reader(_io.StringIO(result_to_csv(mined, paper_ds))))
        assert rows[0] == [
            "h_support", "r_support", "c_support", "heights", "rows", "columns",
        ]
        assert len(rows) == 1 + len(mined)

    def test_label_rendering(self, paper_ds, mined):
        text = result_to_csv(mined, paper_ds)
        assert "h1 h3" in text
        assert "c1 c2 c3" in text

    def test_index_rendering_without_dataset(self, mined):
        rows = list(csv.reader(_io.StringIO(result_to_csv(mined))))
        heights_cell = rows[1][3]
        assert all(token.isdigit() for token in heights_cell.split())

    def test_supports_match(self, paper_ds, mined):
        rows = list(csv.reader(_io.StringIO(result_to_csv(mined, paper_ds))))
        for record, cube in zip(rows[1:], mined):
            assert int(record[0]) == cube.h_support
            assert int(record[1]) == cube.r_support
            assert int(record[2]) == cube.c_support


class TestFingerprint:
    """One fingerprint layout: the shape, then the C-order packed bits."""

    @staticmethod
    def _whole_tensor_digest(data: np.ndarray) -> str:
        digest = hashlib.sha256(repr(tuple(data.shape)).encode())
        digest.update(np.packbits(data, axis=None).tobytes())
        return digest.hexdigest()

    # (3, 5, 7): 35 cells per height, so heights straddle byte edges.
    @pytest.mark.parametrize("shape", [(3, 5, 7), (2, 4, 8), (1, 3, 130)])
    @pytest.mark.parametrize("storage", STORAGES)
    def test_digest_unchanged(self, shape, storage):
        data = np.random.default_rng(7).random(shape) < 0.5
        dataset = in_storage(Dataset3D(data), storage)
        assert dataset_fingerprint(dataset) == self._whole_tensor_digest(data)

    def test_word_stored_tensor_never_built(self):
        data = np.random.default_rng(3).random((4, 5, 7)) < 0.5
        dataset = in_storage(Dataset3D(data), "numpy")
        assert dataset_fingerprint(dataset) == self._whole_tensor_digest(data)
        assert dataset._data is None

    def test_stream_chunking_is_invisible(self):
        data = np.random.default_rng(5).random((3, 5, 7)) < 0.5
        stream = FingerprintStream(data.shape)
        for cell in data.reshape(-1):
            stream.update(np.array([cell]))
        assert stream.hexdigest() == self._whole_tensor_digest(data)


# ----------------------------------------------------------------------
# The upload payload: the per-cell encoder and decoder that the array
# code replaced stay here as the oracle.
# ----------------------------------------------------------------------
def loop_to_payload(dataset: Dataset3D) -> dict:
    return {
        "schema": 1,
        "shape": list(dataset.shape),
        "cells": [
            [int(k), int(i), int(j)] for k, i, j in np.argwhere(dataset.data)
        ],
        "height_labels": list(dataset.height_labels),
        "row_labels": list(dataset.row_labels),
        "column_labels": list(dataset.column_labels),
    }


def loop_from_payload(payload: dict) -> Dataset3D:
    try:
        shape = tuple(int(s) for s in payload["shape"])
        cells = [tuple(int(v) for v in cell) for cell in payload.get("cells", [])]
    except (KeyError, TypeError, ValueError) as error:
        raise DatasetFormatError(f"malformed dataset payload: {error}") from None
    if len(shape) != 3 or any(s < 0 for s in shape):
        raise DatasetFormatError(
            f"dataset payload shape must be 3 non-negative sizes, got {shape!r}"
        )
    label_kwargs = {}
    for key in ("height_labels", "row_labels", "column_labels"):
        if payload.get(key) is not None:
            label_kwargs[key] = [str(v) for v in payload[key]]
    l, n, m = shape
    seen: set[tuple[int, ...]] = set()
    array = np.zeros(shape, dtype=bool)
    for cell in cells:
        if len(cell) != 3:
            raise DatasetFormatError(f"expected [k, i, j] cells, got {cell!r}")
        k, i, j = cell
        if not (0 <= k < l and 0 <= i < n and 0 <= j < m):
            raise DatasetFormatError(f"cell ({k},{i},{j}) outside {l}x{n}x{m}")
        if cell in seen:
            raise DatasetFormatError(f"duplicate cell ({k},{i},{j})")
        seen.add(cell)
        array[k, i, j] = True
    return Dataset3D(array, **label_kwargs)


def outcome(decode, payload: dict) -> tuple:
    """What ``decode`` makes of ``payload``: the dataset, or the error text."""
    try:
        dataset = decode(payload)
    except DatasetFormatError as error:
        return ("rejected", str(error))
    return ("accepted", dataset, dataset_fingerprint(dataset))


tensors = st.tuples(*[st.integers(1, 5)] * 3).flatmap(
    lambda shape: arrays(bool, shape)
)

#: One malformation each, applied to the cell at some position.
CORRUPTIONS = {
    "outside": lambda shape, cell: [shape[0], cell[1], cell[2]],
    "negative": lambda shape, cell: [cell[0], -1, cell[2]],
    "short": lambda shape, cell: cell[:2],
    "long": lambda shape, cell: [*cell, 0],
    "nested": lambda shape, cell: [[cell[0]], cell[1], cell[2]],
    "word": lambda shape, cell: [cell[0], "x", cell[2]],
    "float": lambda shape, cell: [cell[0], cell[1], cell[2] + 0.5],
    "none-coordinate": lambda shape, cell: [cell[0], cell[1], None],
    "none-cell": lambda shape, cell: None,
    "above-int64": lambda shape, cell: [2**63, cell[1], cell[2]],
    "below-int64": lambda shape, cell: [cell[0], -(2**63) - 1, cell[2]],
}


@pytest.mark.parametrize("storage", STORAGES)
class TestUploadPayload:
    @settings(max_examples=60, deadline=None)
    @given(data=tensors)
    def test_encoder_bytes_unchanged(self, storage, data):
        dataset = in_storage(Dataset3D(data), storage)
        assert json.dumps(dataset_to_payload(dataset)) == json.dumps(
            loop_to_payload(dataset)
        )

    @settings(max_examples=60, deadline=None)
    @given(data=tensors)
    def test_round_trip(self, storage, data):
        dataset = in_storage(Dataset3D(data), storage)
        payload = json.loads(json.dumps(dataset_to_payload(dataset)))
        back = dataset_from_payload(payload)
        assert back == dataset == loop_from_payload(payload)
        assert dataset_fingerprint(back) == dataset_fingerprint(dataset)

    @settings(max_examples=150, deadline=None)
    @given(data=tensors, st_data=st.data())
    def test_malformed_rejected_as_before(self, storage, data, st_data):
        """Each corruption, and the first of several, reads as it did."""
        dataset = in_storage(Dataset3D(data), storage)
        payload = dataset_to_payload(dataset)
        cells = payload["cells"]
        if not cells:
            cells.append([0, 0, 0])
        for _ in range(st_data.draw(st.integers(1, 3))):
            kind = st_data.draw(st.sampled_from([*CORRUPTIONS, "duplicate"]))
            spot = st_data.draw(st.integers(0, len(cells) - 1))
            if kind == "duplicate":
                cells.insert(spot + 1, list(cells[spot]))
            elif isinstance(cells[spot], list) and [type(v) for v in cells[spot]] == [int] * 3:
                cells[spot] = CORRUPTIONS[kind](dataset.shape, cells[spot])
        assert outcome(dataset_from_payload, payload) == outcome(loop_from_payload, payload)


class TestUploadRejections:
    """Each malformation names its first offending cell, as before."""

    BASE = [[0, 0, 0], [0, 1, 1], [1, 0, 1]]

    @pytest.mark.parametrize(
        "cells, message",
        [
            ([*BASE, [2, 0, 0]], "cell (2,0,0) outside 2x2x2"),
            ([*BASE, [0, -1, 0]], "cell (0,-1,0) outside 2x2x2"),
            ([*BASE, [0, 1, 1]], "duplicate cell (0,1,1)"),
            ([*BASE, [0, 1]], "expected [k, i, j] cells, got (0, 1)"),
            ([[0, 0]] * 2, "expected [k, i, j] cells, got (0, 0)"),
            ([*BASE, [1, 1, 1, 1]], "expected [k, i, j] cells, got (1, 1, 1, 1)"),
            ([*BASE, [1, "a", 0]], "malformed dataset payload: invalid literal"),
            ([*BASE, [1, None, 0]], "malformed dataset payload: int() argument"),
            ([*BASE, None], "malformed dataset payload: 'NoneType' object"),
            ([*BASE, [2**63, 0, 0]], f"cell ({2**63},0,0) outside 2x2x2"),
            # The first offending cell wins, whatever comes after it.
            ([[0, 0, 5], [0, 0, 0], [0, 0, 0]], "cell (0,0,5) outside"),
            ([[0, 0, 0], [0, 0, 0], [0, 0, 5]], "duplicate cell (0,0,0)"),
            ([[0, 0, 5], [2**64, 0, 0]], "cell (0,0,5) outside"),
            # Conversion comes first, as the per-cell parse had it.
            ([[0, 0, 5], [0, "x", 0]], "malformed dataset payload: invalid literal"),
        ],
    )
    def test_message(self, cells, message):
        payload = {"schema": 1, "shape": [2, 2, 2], "cells": cells}
        with pytest.raises(DatasetFormatError) as caught:
            dataset_from_payload(payload)
        assert str(caught.value).startswith(message)
        assert outcome(loop_from_payload, payload) == ("rejected", str(caught.value))

    def test_infinite_coordinate_is_typed(self):
        """The per-cell parse let ``OverflowError`` escape here."""
        payload = {"shape": [2, 2, 2], "cells": [[float("inf"), 0, 0]]}
        with pytest.raises(DatasetFormatError, match="infinity"):
            dataset_from_payload(payload)

    def test_empty_and_missing_cells(self):
        for payload in ({"shape": [2, 2, 2], "cells": []}, {"shape": [2, 2, 2]}):
            assert dataset_from_payload(payload).count_ones() == 0
