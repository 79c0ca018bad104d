"""Unit tests for Dataset3D."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.dataset import Dataset3D


class TestConstruction:
    def test_from_nested_lists(self):
        ds = Dataset3D([[[1, 0], [0, 1]], [[1, 1], [0, 0]]])
        assert ds.shape == (2, 2, 2)

    def test_from_bool_array(self):
        ds = Dataset3D(np.ones((2, 3, 4), dtype=bool))
        assert ds.shape == (2, 3, 4)
        assert ds.density == 1.0

    def test_from_int_array(self):
        ds = Dataset3D(np.zeros((1, 1, 1), dtype=int))
        assert ds.density == 0.0

    def test_rejects_rank_2(self):
        with pytest.raises(ValueError, match="rank-3"):
            Dataset3D(np.zeros((2, 2)))

    def test_rejects_rank_4(self):
        with pytest.raises(ValueError, match="rank-3"):
            Dataset3D(np.zeros((2, 2, 2, 2)))

    def test_rejects_non_binary_values(self):
        with pytest.raises(ValueError, match="0/1"):
            Dataset3D(np.full((1, 1, 2), 3))

    def test_rejects_float_values(self):
        with pytest.raises(ValueError, match="0/1"):
            Dataset3D(np.full((1, 1, 2), 0.5))

    def test_data_is_read_only(self):
        ds = Dataset3D(np.zeros((1, 2, 3), dtype=bool))
        with pytest.raises(ValueError):
            ds.data[0, 0, 0] = True

    def test_from_cells(self):
        ds = Dataset3D.from_cells((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
        assert ds.cell(0, 0, 0) and ds.cell(1, 1, 1)
        assert ds.count_ones() == 2

    def test_from_slices(self):
        ds = Dataset3D.from_slices([[[1]], [[0]]])
        assert ds.shape == (2, 1, 1)


class TestLabels:
    def test_default_labels_follow_paper_convention(self):
        ds = Dataset3D(np.zeros((2, 3, 4), dtype=bool))
        assert ds.height_labels == ("h1", "h2")
        assert ds.row_labels == ("r1", "r2", "r3")
        assert ds.column_labels == ("c1", "c2", "c3", "c4")

    def test_custom_labels(self):
        ds = Dataset3D(
            np.zeros((1, 1, 2), dtype=bool),
            height_labels=["t0"],
            row_labels=["sampleA"],
            column_labels=["geneX", "geneY"],
        )
        assert ds.labels_for_axis("column") == ("geneX", "geneY")
        assert ds.labels_for_axis(0) == ("t0",)

    def test_wrong_label_count_raises(self):
        with pytest.raises(ValueError, match="length"):
            Dataset3D(np.zeros((2, 1, 1), dtype=bool), height_labels=["only-one"])

    def test_duplicate_labels_raise(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset3D(np.zeros((2, 1, 1), dtype=bool), height_labels=["x", "x"])

    def test_unknown_axis_raises(self):
        ds = Dataset3D(np.zeros((1, 1, 1), dtype=bool))
        with pytest.raises(ValueError, match="unknown axis"):
            ds.labels_for_axis("depth")
        with pytest.raises(ValueError, match="axis index"):
            ds.labels_for_axis(3)


class TestMasks:
    def test_ones_mask_matches_cells(self, paper_ds):
        for k in range(paper_ds.n_heights):
            for i in range(paper_ds.n_rows):
                mask = paper_ds.ones_mask(k, i)
                for j in range(paper_ds.n_columns):
                    assert bool(mask >> j & 1) == paper_ds.cell(k, i, j)

    def test_zeros_mask_is_complement(self, paper_ds):
        full = (1 << paper_ds.n_columns) - 1
        for k in range(paper_ds.n_heights):
            for i in range(paper_ds.n_rows):
                assert paper_ds.ones_mask(k, i) ^ paper_ds.zeros_mask(k, i) == full

    def test_slice_row_masks(self, paper_ds):
        masks = paper_ds.slice_row_masks(0)
        assert masks == [paper_ds.ones_mask(0, i) for i in range(paper_ds.n_rows)]

    def test_ones_masks_returns_copies(self, paper_ds):
        masks = paper_ds.ones_masks()
        masks[0][0] = 0
        assert paper_ds.ones_mask(0, 0) != 0

    def test_wide_matrix_masks(self):
        # Columns beyond 64 bits exercise the packbits int conversion.
        data = np.zeros((1, 1, 130), dtype=bool)
        data[0, 0, 0] = data[0, 0, 64] = data[0, 0, 129] = True
        ds = Dataset3D(data)
        assert ds.ones_mask(0, 0) == (1 << 0) | (1 << 64) | (1 << 129)


class TestStatistics:
    def test_density(self):
        ds = Dataset3D(np.array([[[1, 0], [0, 0]]]))
        assert ds.density == 0.25

    def test_zeros_in_height(self, paper_ds):
        # Table 1 / Table 3: h1's cutters cover 6 zeros, h2's 4, h3's 6.
        assert paper_ds.zeros_in_height(0) == 6
        assert paper_ds.zeros_in_height(1) == 4
        assert paper_ds.zeros_in_height(2) == 6

    def test_count_ones(self, paper_ds):
        assert paper_ds.count_ones() == 3 * 4 * 5 - 16


class TestTranspose:
    def test_transpose_by_names(self, paper_ds):
        swapped = paper_ds.transpose(("row", "height", "column"))
        assert swapped.shape == (4, 3, 5)
        assert swapped.cell(1, 0, 4) == paper_ds.cell(0, 1, 4)
        assert swapped.height_labels == paper_ds.row_labels

    def test_transpose_by_indices(self, paper_ds):
        moved = paper_ds.transpose((2, 0, 1))
        assert moved.shape == (5, 3, 4)
        assert moved.cell(4, 0, 1) == paper_ds.cell(0, 1, 4)

    def test_transpose_invalid_permutation(self, paper_ds):
        with pytest.raises(ValueError, match="permutation"):
            paper_ds.transpose((0, 0, 1))

    def test_canonical_transpose_orders_sizes(self):
        ds = Dataset3D(np.zeros((5, 2, 3), dtype=bool))
        canon = ds.canonical_transpose()
        assert canon.shape == (2, 3, 5)

    def test_canonical_transpose_identity_returns_self(self):
        ds = Dataset3D(np.zeros((1, 2, 3), dtype=bool))
        assert ds.canonical_transpose() is ds

    def test_double_transpose_round_trip(self, paper_ds):
        order = (2, 0, 1)
        inverse = (1, 2, 0)
        assert paper_ds.transpose(order).transpose(inverse) == paper_ds


class TestReorderHeights:
    def test_reorder(self, paper_ds):
        reordered = paper_ds.reorder_heights([2, 0, 1])
        assert reordered.height_labels == ("h3", "h1", "h2")
        assert reordered.cell(0, 3, 2) == paper_ds.cell(2, 3, 2)

    def test_reorder_invalid(self, paper_ds):
        with pytest.raises(ValueError, match="permutation"):
            paper_ds.reorder_heights([0, 0, 1])


class TestSerialization:
    def test_text_round_trip(self, paper_ds):
        assert Dataset3D.from_text(paper_ds.to_text()) == paper_ds

    def test_text_header(self, paper_ds):
        assert paper_ds.to_text().splitlines()[0] == "3 4 5"

    def test_from_text_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            Dataset3D.from_text("1 2")

    def test_from_text_wrong_cell_count(self):
        with pytest.raises(ValueError, match="cells"):
            Dataset3D.from_text("1 1 3\n1 0")

    def test_npz_round_trip(self, paper_ds, tmp_path):
        path = tmp_path / "ds.npz"
        paper_ds.save_npz(path)
        assert Dataset3D.load_npz(path) == paper_ds

    def test_npz_preserves_labels(self, tmp_path):
        ds = Dataset3D(
            np.ones((1, 1, 1), dtype=bool),
            height_labels=["T"],
            row_labels=["S"],
            column_labels=["G"],
        )
        path = tmp_path / "labeled.npz"
        ds.save_npz(path)
        assert Dataset3D.load_npz(path).column_labels == ("G",)

    def test_pickle_round_trip(self, paper_ds):
        paper_ds.ones_mask(0, 0)  # populate caches first
        clone = pickle.loads(pickle.dumps(paper_ds))
        assert clone == paper_ds
        assert clone.ones_mask(2, 3) == paper_ds.ones_mask(2, 3)


class TestFromPackedGrid:
    """The zero-copy constructor behind shared-memory attach."""

    def _words(self, ds):
        from repro.core.kernels import words_from_tensor

        return words_from_tensor(ds.data)

    def test_round_trip(self, paper_ds):
        clone = Dataset3D.from_packed_grid(
            self._words(paper_ds), paper_ds.shape
        )
        assert clone == paper_ds

    def test_numpy_kernel_adopts_without_copy(self, paper_ds):
        words = self._words(paper_ds)
        clone = Dataset3D.from_packed_grid(words, paper_ds.shape)
        assert np.shares_memory(clone.packed_grid(), words)
        assert clone.ones_masks() == paper_ds.ones_masks()
        assert np.array_equal(clone.data, paper_ds.data)

    def test_wrong_shape_rejected(self, paper_ds):
        from repro.core.kernels import PackedBufferError

        with pytest.raises(PackedBufferError):
            Dataset3D.from_packed_grid(self._words(paper_ds), (3, 4, 999))

    def test_stray_bits_rejected(self, paper_ds):
        from repro.core.kernels import PackedBufferError

        words = self._words(paper_ds).copy()
        words[0, 0] |= np.uint64(1) << np.uint64(63)
        with pytest.raises(PackedBufferError, match="stray"):
            Dataset3D.from_packed_grid(words, paper_ds.shape)

    def test_wrong_dtype_rejected(self, paper_ds):
        from repro.core.kernels import PackedBufferError

        with pytest.raises(PackedBufferError):
            Dataset3D.from_packed_grid(
                self._words(paper_ds).astype(np.int64), paper_ds.shape
            )

    def test_negative_dimension_rejected(self, paper_ds):
        with pytest.raises(ValueError):
            Dataset3D.from_packed_grid(self._words(paper_ds), (3, -4, 5))

    def test_mining_on_reconstructed_dataset(self, paper_ds):
        from repro.api import mine
        from repro.core.constraints import Thresholds

        clone = Dataset3D.from_packed_grid(self._words(paper_ds), paper_ds.shape)
        expected = mine(paper_ds, Thresholds(2, 2, 2))
        got = mine(clone, Thresholds(2, 2, 2))
        assert got.same_cubes(expected)


class TestDunder:
    def test_eq_and_hash(self, paper_ds):
        other = Dataset3D(paper_ds.data.copy())
        assert other == paper_ds
        assert hash(other) == hash(paper_ds)

    def test_neq_different_data(self, paper_ds):
        data = paper_ds.data.copy()
        data[0, 0, 0] = not data[0, 0, 0]
        assert Dataset3D(data) != paper_ds

    def test_neq_different_labels(self, paper_ds):
        relabeled = Dataset3D(
            paper_ds.data.copy(), height_labels=["a", "b", "c"]
        )
        assert relabeled != paper_ds

    def test_eq_other_type(self, paper_ds):
        assert paper_ds != "not a dataset"

    def test_repr(self, paper_ds):
        assert "3x4x5" in repr(paper_ds)
