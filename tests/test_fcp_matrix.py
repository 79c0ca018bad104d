"""Unit tests for BinaryMatrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fcp.matrix import BinaryMatrix, PackedBufferError
from tests.conftest import STORAGES, grid_dataset, in_storage


@pytest.fixture
def small():
    return BinaryMatrix.from_array([[1, 0, 1], [1, 1, 0], [0, 1, 1]])


class TestConstruction:
    def test_from_array(self, small):
        assert small.shape == (3, 3)
        assert small.row_mask(0) == 0b101
        assert small.row_mask(1) == 0b011
        assert small.row_mask(2) == 0b110

    def test_from_row_masks(self):
        matrix = BinaryMatrix.from_row_masks([0b01, 0b10], 2)
        assert matrix.cell(0, 0) and not matrix.cell(0, 1)
        assert matrix.cell(1, 1) and not matrix.cell(1, 0)

    def test_rejects_rank_1(self):
        with pytest.raises(ValueError, match="rank-2"):
            BinaryMatrix.from_array([1, 0, 1])

    def test_rejects_mask_overflow(self):
        with pytest.raises(ValueError, match="outside"):
            BinaryMatrix.from_row_masks([0b100], 2)

    def test_rejects_negative_mask(self):
        with pytest.raises(ValueError):
            BinaryMatrix.from_row_masks([-1], 2)

    def test_empty_matrix(self):
        matrix = BinaryMatrix.from_row_masks([], 0)
        assert matrix.shape == (0, 0)
        assert matrix.density == 0.0

    def test_wide_matrix(self):
        data = np.zeros((1, 100), dtype=bool)
        data[0, 99] = True
        matrix = BinaryMatrix.from_array(data)
        assert matrix.row_mask(0) == 1 << 99


class TestFromPackedValidation:
    """Regression: ``from_packed`` must validate the word array's geometry
    (rank/dtype/words-per-row/stray bits) instead of deferring a
    malformed buffer to a crash — or silent garbage — deep in mining."""

    @staticmethod
    def _words(masks, n_bits, storage):
        """``masks`` as the packed rows of a dataset in ``storage``."""
        return in_storage(grid_dataset([masks], n_bits), storage).packed_grid()[0]

    @pytest.mark.parametrize("storage", STORAGES)
    def test_valid_handle_accepted(self, storage, small):
        words = self._words(small.row_masks(), 3, storage)
        packed = BinaryMatrix.from_packed(words, 3)
        assert packed == small
        assert packed.n_rows == 3

    @pytest.mark.parametrize("storage", STORAGES)
    def test_stray_bits_rejected(self, storage):
        words = self._words([0b101], 3, storage)
        with pytest.raises(PackedBufferError):
            BinaryMatrix.from_packed(words, 2)

    def test_numpy_wrong_word_count_rejected(self):
        handle = np.zeros((2, 2), dtype="<u8")  # 65+ columns' worth
        with pytest.raises(PackedBufferError, match="word"):
            BinaryMatrix.from_packed(handle, 10)

    def test_numpy_wrong_rank_rejected(self):
        with pytest.raises(PackedBufferError):
            BinaryMatrix.from_packed(np.zeros(3, dtype="<u8"), 3)

    def test_numpy_wrong_dtype_rejected(self):
        with pytest.raises(PackedBufferError):
            BinaryMatrix.from_packed(np.zeros((2, 1), dtype=np.int32), 3)

    def test_python_int_non_int_row_rejected(self):
        # Rows must arrive as uint64 words: neither strings nor a plain
        # list of Python ints pass as a packed buffer.
        with pytest.raises(PackedBufferError, match="int"):
            BinaryMatrix.from_packed(["0b101"], 3)
        with pytest.raises(PackedBufferError):
            BinaryMatrix.from_packed([[0b101]], 3)

    def test_error_is_a_value_error(self):
        # Callers that guarded with ValueError keep working.
        assert issubclass(PackedBufferError, ValueError)


class TestAccess:
    def test_zeros_mask(self, small):
        assert small.zeros_mask(0) == 0b010
        assert small.row_mask(0) | small.zeros_mask(0) == 0b111

    def test_row_masks_copy(self, small):
        masks = small.row_masks()
        masks[0] = 0
        assert small.row_mask(0) != 0

    def test_density(self, small):
        assert small.density == pytest.approx(6 / 9)


class TestSupports:
    def test_support_columns(self, small):
        assert small.support_columns(0b011) == 0b001  # rows 0,1 share col 0
        assert small.support_columns(0b001) == 0b101

    def test_support_columns_empty_rows_gives_universe(self, small):
        assert small.support_columns(0) == 0b111

    def test_support_rows(self, small):
        assert small.support_rows(0b001) == 0b011
        assert small.support_rows(0b111) == 0

    def test_support_rows_empty_columns_gives_all(self, small):
        assert small.support_rows(0) == 0b111

    def test_galois_connection(self, small):
        # rows <= support_rows(support_columns(rows)) for all row sets.
        for rows in range(8):
            closure = small.support_rows(small.support_columns(rows))
            assert rows & ~closure == 0


class TestConversion:
    def test_to_array_round_trip(self, small):
        assert BinaryMatrix.from_array(small.to_array()) == small

    def test_eq_hash(self, small):
        clone = BinaryMatrix.from_row_masks(small.row_masks(), 3)
        assert clone == small
        assert hash(clone) == hash(small)
        assert small != BinaryMatrix.from_row_masks([0, 0, 0], 3)
        assert small != "something else"

    def test_repr(self, small):
        assert "shape=(3, 3)" in repr(small)
