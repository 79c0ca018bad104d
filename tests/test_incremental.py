"""Tests for incremental FCC maintenance under height appends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.rsm.incremental import append_height_slice
from tests.conftest import random_dataset


class TestCorrectness:
    def test_equals_full_remine_on_paper_example(self, paper_ds, paper_thresholds):
        # Treat h3 as the "new" slice arriving on top of h1+h2.
        old = Dataset3D(paper_ds.data[:2].copy())
        old_result = mine(old, paper_thresholds)
        extended, updated = append_height_slice(
            old, old_result, paper_ds.data[2], paper_thresholds
        )
        assert np.array_equal(extended.data, paper_ds.data)
        assert updated.same_cubes(mine(paper_ds, paper_thresholds))
        assert len(updated) == 5

    def test_equals_full_remine_random(self, rng):
        for _ in range(30):
            ds = random_dataset(rng, max_dim=5)
            if ds.n_heights < 1:
                continue
            th = Thresholds(*(int(x) for x in rng.integers(1, 3, size=3)))
            old_result = mine(ds, th)
            new_slice = rng.random((ds.n_rows, ds.n_columns)) < rng.uniform(0.2, 0.9)
            extended, updated = append_height_slice(ds, old_result, new_slice, th)
            full = mine(extended, th)
            assert updated.same_cubes(full), (ds.shape, th)

    def test_all_ones_slice_extends_every_cube(self, paper_ds, paper_thresholds):
        old_result = mine(paper_ds, paper_thresholds)
        ones = np.ones((4, 5), dtype=bool)
        extended, updated = append_height_slice(
            paper_ds, old_result, ones, paper_thresholds
        )
        assert updated.same_cubes(mine(extended, paper_thresholds))
        new_bit = 1 << 3
        # The all-ones slice covers everything: every cube gains it.
        assert all(cube.heights & new_bit for cube in updated)

    def test_all_zero_slice_changes_nothing(self, paper_ds, paper_thresholds):
        old_result = mine(paper_ds, paper_thresholds)
        zeros = np.zeros((4, 5), dtype=bool)
        _extended, updated = append_height_slice(
            paper_ds, old_result, zeros, paper_thresholds
        )
        assert updated.same_cubes(old_result)

    def test_slice_unlocks_min_h(self, rng):
        """A pattern one height short of minH becomes frequent."""
        data = np.zeros((2, 3, 4), dtype=bool)
        data[np.ix_([0, 1], [0, 1], [0, 1])] = True
        ds = Dataset3D(data)
        th = Thresholds(3, 2, 2)
        old_result = mine(ds, th)
        assert len(old_result) == 0
        new_slice = np.zeros((3, 4), dtype=bool)
        new_slice[np.ix_([0, 1], [0, 1])] = True
        extended, updated = append_height_slice(ds, old_result, new_slice, th)
        assert updated.same_cubes(mine(extended, th))
        assert len(updated) == 1


class TestMetadataAndValidation:
    def test_extended_labels(self, paper_ds, paper_thresholds):
        old_result = mine(paper_ds, paper_thresholds)
        extended, _ = append_height_slice(
            paper_ds, old_result, np.ones((4, 5), dtype=bool),
            paper_thresholds, slice_label="t-new",
        )
        assert extended.height_labels == ("h1", "h2", "h3", "t-new")

    def test_default_label(self, paper_ds, paper_thresholds):
        old_result = mine(paper_ds, paper_thresholds)
        extended, _ = append_height_slice(
            paper_ds, old_result, np.ones((4, 5), dtype=bool), paper_thresholds
        )
        assert extended.height_labels[-1] == "h4"

    def test_duplicate_label_rejected(self, paper_ds, paper_thresholds):
        old_result = mine(paper_ds, paper_thresholds)
        with pytest.raises(ValueError, match="already exists"):
            append_height_slice(
                paper_ds, old_result, np.ones((4, 5), dtype=bool),
                paper_thresholds, slice_label="h2",
            )

    def test_wrong_slice_shape(self, paper_ds, paper_thresholds):
        old_result = mine(paper_ds, paper_thresholds)
        with pytest.raises(ValueError, match="shape"):
            append_height_slice(
                paper_ds, old_result, np.ones((2, 2), dtype=bool), paper_thresholds
            )

    def test_thresholds_from_result(self, paper_ds, paper_thresholds):
        old_result = mine(paper_ds, paper_thresholds)
        _extended, updated = append_height_slice(
            paper_ds, old_result, np.ones((4, 5), dtype=bool)
        )
        assert updated.thresholds == paper_thresholds

    def test_missing_thresholds_raise(self, paper_ds):
        from repro.core.result import MiningResult

        with pytest.raises(ValueError, match="thresholds"):
            append_height_slice(
                paper_ds, MiningResult(cubes=[]), np.ones((4, 5), dtype=bool)
            )

    def test_stats_recorded(self, paper_ds, paper_thresholds):
        old_result = mine(paper_ds, paper_thresholds)
        extended, updated = append_height_slice(
            paper_ds, old_result, np.ones((4, 5), dtype=bool), paper_thresholds
        )
        stream = updated.stats["stream"]
        assert stream["old_cubes"] == 5
        assert stream["deltas_applied"] == 1
        assert stream["dirty_heights"] == 1
        # The dirty pass re-mines exactly the fresh cubes through the
        # new height h4, and no RSM slice.
        h4 = 1 << 3
        through_h4 = [c for c in mine(extended, paper_thresholds) if c.heights & h4]
        assert len(through_h4) == 14
        assert stream["subsets_remined"] == len(through_h4)
        assert updated.stats.metrics.subsets_remined == len(through_h4)
        assert updated.stats.metrics.rs_slices_mined == 0
        assert updated.algorithm == f"stream[{old_result.algorithm}]"


class TestChainedAppends:
    def test_slice_by_slice_reconstruction(self, paper_ds, paper_thresholds):
        """Build the paper tensor one slice at a time; at every step the
        incrementally-maintained result equals a fresh mine."""
        current = Dataset3D(paper_ds.data[:1].copy())
        result = mine(current, paper_thresholds)
        for k in range(1, paper_ds.n_heights):
            current, result = append_height_slice(
                current, result, paper_ds.data[k], paper_thresholds
            )
            assert result.same_cubes(mine(current, paper_thresholds)), k
