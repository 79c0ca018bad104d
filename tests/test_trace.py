"""Tests for the traced CubeMiner tree (Figure 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.reference import reference_mine
from repro.cubeminer import cubeminer_mine
from repro.cubeminer.cutter import HeightOrder
from repro.cubeminer.trace import (
    Branch,
    PruneReason,
    render_tree,
    trace_tree,
)
from tests.conftest import random_dataset


class TestTraceMatchesMiner:
    def test_leaves_equal_mined_fccs(self, paper_ds, paper_thresholds):
        tree = trace_tree(paper_ds, paper_thresholds)
        mined = cubeminer_mine(
            paper_ds, paper_thresholds, order=HeightOrder.ORIGINAL
        )
        assert set(tree.leaves()) == mined.cube_set()

    def test_leaves_equal_mined_on_random_data(self, rng):
        # The tree is rebuilt from CubeMiner's own events, so the check
        # runs against the brute-force oracle instead of the miner.
        for _ in range(10):
            ds = random_dataset(rng, max_dim=4)
            th = Thresholds(1, 1, 1)
            tree = trace_tree(ds, th)
            assert set(tree.leaves()) == reference_mine(ds, th).cube_set()


class TestFigure1Structure:
    """Specific nodes called out in the paper's Figure 1 discussion."""

    @pytest.fixture
    def tree(self, paper_ds, paper_thresholds):
        return trace_tree(paper_ds, paper_thresholds)

    def test_root(self, tree, paper_ds):
        assert tree.branch is Branch.ROOT
        assert tree.cube.format(paper_ds, with_supports=False) == (
            "h1h2h3 : r1r2r3r4 : c1c2c3c4c5"
        )

    def test_root_has_three_sons(self, tree):
        assert [child.branch for child in tree.children] == [
            Branch.LEFT,
            Branch.MIDDLE,
            Branch.RIGHT,
        ]

    def test_prune_category_a_left_track(self, tree, paper_ds):
        """a1/a2: left sons pruned because h1 already cut their paths."""
        pruned_a = [
            node
            for node in tree.iter_nodes()
            if node.pruned is PruneReason.LEFT_TRACK
        ]
        assert pruned_a, "expected category-(a) prunes in the example tree"
        rendered = {
            node.cube.format(paper_ds, with_supports=False) for node in pruned_a
        }
        assert "h2h3 : r2r3r4 : c1c2c3c4c5" in rendered

    def test_prune_category_b_middle_track(self, tree, paper_ds):
        pruned_b = [
            node
            for node in tree.iter_nodes()
            if node.pruned is PruneReason.MIDDLE_TRACK
        ]
        assert pruned_b
        rendered = {
            node.cube.format(paper_ds, with_supports=False) for node in pruned_b
        }
        # b1: M(h1h2h3, r1r3, c1c2c3) cut by (h2, r2, c1c5).
        assert "h1h2h3 : r1r3 : c1c2c3" in rendered

    def test_prune_category_c_height_unclosed(self, tree, paper_ds):
        pruned_c = {
            node.cube.format(paper_ds, with_supports=False)
            for node in tree.iter_nodes()
            if node.pruned is PruneReason.HEIGHT_UNCLOSED
        }
        # c1: R(h2h3, r1r3, c1c2c3) has superset with h1.
        assert "h2h3 : r1r3 : c1c2c3" in pruned_c

    def test_prune_category_d_row_unclosed(self, tree, paper_ds):
        pruned_d = {
            node.cube.format(paper_ds, with_supports=False)
            for node in tree.iter_nodes()
            if node.pruned is PruneReason.ROW_UNCLOSED
        }
        # d2: R(h2h3, r1r4, c1c2c3) is not closed due to r3.
        assert "h2h3 : r1r4 : c1c2c3" in pruned_d

    def test_levels_match_cutter_steps(self, tree):
        for node in tree.iter_nodes():
            for child in node.children:
                assert child.level > node.level


class TestGuards:
    def test_too_large_dataset_rejected(self):
        ds = Dataset3D(np.zeros((20, 20, 20), dtype=bool))
        with pytest.raises(ValueError, match="guard"):
            trace_tree(ds, Thresholds(1, 1, 1))

    def test_infeasible_thresholds_root_pruned(self, paper_ds):
        tree = trace_tree(paper_ds, Thresholds(5, 1, 1))
        assert tree.pruned is PruneReason.MIN_H
        assert tree.leaves() == []


class TestRender:
    def test_render_contains_fccs_and_prunes(self, paper_ds, paper_thresholds):
        tree = trace_tree(paper_ds, paper_thresholds)
        text = render_tree(tree, paper_ds)
        assert text.count("[FCC]") == 5
        assert "[pruned:" in text
        assert text.splitlines()[0].startswith("root(")

    def test_render_hide_pruned(self, paper_ds, paper_thresholds):
        tree = trace_tree(paper_ds, paper_thresholds)
        text = render_tree(tree, paper_ds, show_pruned=False)
        assert "[pruned:" not in text
        assert text.count("[FCC]") == 5
