"""Tests for the interchange formats (triples, JSON, CSV)."""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json

import numpy as np
import pytest

from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.io import (
    DatasetFormatError,
    FingerprintStream,
    dataset_fingerprint,
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
