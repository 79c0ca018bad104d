"""Unit and integration tests for the CubeMiner algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import full_mask, mask_of
from repro.core.closure import height_set_closed, is_closed_cube, row_set_closed
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.reference import reference_mine
from repro.cubeminer import CubeMiner, HeightOrder, cubeminer_mine
from repro.cubeminer.algorithm import _run, search_root
from repro.cubeminer.cutter import build_cutters
from repro.datasets import random_tensor
from repro.obs import CollectingSink, MiningMetrics
from tests.conftest import random_dataset


class TestChecks:
    def test_height_closed_positive(self, paper_ds):
        # (h1h3, r1r2r3, c1c2c3) is a closed FCC: Hcheck must pass.
        assert height_set_closed(
            paper_ds, mask_of([0, 2]), mask_of([0, 1, 2]), mask_of([0, 1, 2])
        )

    def test_height_closed_negative(self, paper_ds):
        # (h2h3, r1r3, c1c2c3) is unclosed: h1 also covers r1r3 x c1c2c3.
        assert not height_set_closed(
            paper_ds, mask_of([1, 2]), mask_of([0, 2]), mask_of([0, 1, 2])
        )

    def test_row_closed_positive(self, paper_ds):
        assert row_set_closed(
            paper_ds, mask_of([0, 2]), mask_of([0, 1, 2]), mask_of([0, 1, 2])
        )

    def test_row_closed_negative(self, paper_ds):
        # (h2h3, r1r4, c1c2c3) is unclosed: r3 also covers it (d2, Figure 1).
        assert not row_set_closed(
            paper_ds, mask_of([1, 2]), mask_of([0, 3]), mask_of([0, 1, 2])
        )

    def test_full_height_set_trivially_closed(self, paper_ds):
        assert height_set_closed(paper_ds, full_mask(3), mask_of([0]), mask_of([0]))

    def test_empty_columns_make_everything_cover(self, paper_ds):
        # With no columns constrained, every absent height covers trivially.
        assert not height_set_closed(paper_ds, mask_of([0]), mask_of([0]), 0)


class TestEdgeCases:
    def test_all_ones_tensor_single_fcc(self):
        ds = Dataset3D(np.ones((2, 3, 4), dtype=bool))
        result = cubeminer_mine(ds, Thresholds(1, 1, 1))
        assert len(result) == 1
        assert result.cubes[0].volume == 24

    def test_all_zeros_tensor_no_fcc(self):
        ds = Dataset3D(np.zeros((2, 3, 4), dtype=bool))
        assert len(cubeminer_mine(ds, Thresholds(1, 1, 1))) == 0

    def test_single_cell_one(self):
        ds = Dataset3D(np.ones((1, 1, 1), dtype=bool))
        result = cubeminer_mine(ds, Thresholds(1, 1, 1))
        assert len(result) == 1

    def test_single_cell_zero(self):
        ds = Dataset3D(np.zeros((1, 1, 1), dtype=bool))
        assert len(cubeminer_mine(ds, Thresholds(1, 1, 1))) == 0

    def test_infeasible_thresholds_return_empty(self, paper_ds):
        result = cubeminer_mine(paper_ds, Thresholds(4, 1, 1))
        assert len(result) == 0
        assert result.stats["nodes_visited"] == 0

    def test_thresholds_equal_shape(self):
        ds = Dataset3D(np.ones((2, 2, 2), dtype=bool))
        assert len(cubeminer_mine(ds, Thresholds(2, 2, 2))) == 1

    def test_identity_slices(self):
        # Two identical slices: every FCC spans both heights.
        slice_ = [[1, 1, 0], [0, 1, 1]]
        ds = Dataset3D([slice_, slice_])
        result = cubeminer_mine(ds, Thresholds(2, 1, 1))
        assert all(cube.h_support == 2 for cube in result)
        assert result.same_cubes(reference_mine(ds, Thresholds(2, 1, 1)))


class TestResultProperties:
    def test_all_results_closed_and_frequent(self, rng):
        for _ in range(30):
            ds = random_dataset(rng)
            th = Thresholds(*(int(x) for x in rng.integers(1, 3, size=3)))
            result = cubeminer_mine(ds, th)
            for cube in result:
                assert th.satisfied_by(cube)
                assert is_closed_cube(ds, cube)

    def test_no_duplicates_emitted(self, rng):
        for _ in range(20):
            ds = random_dataset(rng)
            result = cubeminer_mine(ds, Thresholds(1, 1, 1))
            assert len(result.cubes) == len(set(result.cubes))

    def test_matches_reference(self, rng):
        for _ in range(40):
            ds = random_dataset(rng)
            th = Thresholds(*(int(x) for x in rng.integers(1, 4, size=3)))
            assert cubeminer_mine(ds, th).same_cubes(reference_mine(ds, th))


class TestOrderingInvariance:
    """All three height orders must return identical cube sets."""

    def test_orders_agree_on_paper_example(self, paper_ds, paper_thresholds):
        results = [
            cubeminer_mine(paper_ds, paper_thresholds, order=order)
            for order in HeightOrder
        ]
        assert results[0].same_cubes(results[1])
        assert results[1].same_cubes(results[2])

    def test_orders_agree_on_random_data(self, rng):
        for _ in range(20):
            ds = random_dataset(rng)
            th = Thresholds(*(int(x) for x in rng.integers(1, 3, size=3)))
            base = cubeminer_mine(ds, th, order=HeightOrder.ORIGINAL)
            for order in (HeightOrder.ZERO_DECREASING, HeightOrder.ZERO_INCREASING):
                assert cubeminer_mine(ds, th, order=order).same_cubes(base)

    def test_zero_decreasing_prunes_no_later_than_original(self):
        # On a skewed dataset the zero-heavy-first order should visit
        # no more nodes (the paper's optimization rationale).
        rng = np.random.default_rng(42)
        data = rng.random((6, 8, 40)) < 0.6
        data[0] = True  # slice 0 all ones, zeros concentrated elsewhere
        ds = Dataset3D(data)
        th = Thresholds(2, 2, 4)
        dec = cubeminer_mine(ds, th, order=HeightOrder.ZERO_DECREASING)
        inc = cubeminer_mine(ds, th, order=HeightOrder.ZERO_INCREASING)
        assert dec.same_cubes(inc)
        assert dec.stats["nodes_visited"] <= inc.stats["nodes_visited"]


class TestStats:
    def test_stats_present(self, paper_ds, paper_thresholds):
        stats = cubeminer_mine(paper_ds, paper_thresholds).stats
        for key in (
            "n_cutters",
            "nodes_visited",
            "leaves_emitted",
            "pruned_min_h",
            "pruned_left_track",
            "max_stack_depth",
        ):
            assert key in stats

    def test_leaves_match_result_size(self, paper_ds, paper_thresholds):
        result = cubeminer_mine(paper_ds, paper_thresholds)
        assert result.stats["leaves_emitted"] == len(result)

    def test_cutter_count(self, paper_ds, paper_thresholds):
        result = cubeminer_mine(paper_ds, paper_thresholds)
        assert result.stats["n_cutters"] == 10


class TestFacade:
    def test_class_interface(self, paper_ds, paper_thresholds):
        miner = CubeMiner(order=HeightOrder.ORIGINAL)
        result = miner.mine(paper_ds, paper_thresholds)
        assert len(result) == 5
        assert "original" in repr(miner)

    def test_explicit_cutters_override(self, paper_ds, paper_thresholds):
        cutters = build_cutters(paper_ds, HeightOrder.ZERO_INCREASING)
        result = cubeminer_mine(paper_ds, paper_thresholds, cutters=cutters)
        assert len(result) == 5


# ----------------------------------------------------------------------
# Restricted runs: _run(..., required_heights=D)
# ----------------------------------------------------------------------
@st.composite
def tensor_thresholds_mask(draw, max_dim: int = 5):
    l = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    cells = draw(st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m))
    dataset = Dataset3D(np.array(cells, dtype=bool).reshape(l, n, m))
    thresholds = Thresholds(
        draw(st.integers(1, l)), draw(st.integers(1, n)), draw(st.integers(1, m))
    )
    required = draw(st.integers(1, full_mask(l)))
    return dataset, thresholds, required


def restricted_run(dataset, thresholds, required, sink=None):
    # The tree maintain()'s dirty pass walks: the diced root, skipped
    # when it cannot hold a cube or holds no required height.
    metrics = MiningMetrics()
    root, cutters = search_root(dataset, thresholds)
    found = []
    if root.heights & required and root.satisfies(thresholds):
        found, _ = _run(
            dataset, thresholds, cutters,
            [((root.heights, root.rows, root.columns), 0, 0, 0)], metrics,
            sink=sink, required_heights=required,
        )
    return sorted((c.heights, c.rows, c.columns) for c in found), metrics


class TestRequiredHeights:
    @settings(max_examples=80, deadline=None)
    @given(tensor_thresholds_mask())
    def test_returns_the_fresh_cubes_that_meet_the_mask(self, case):
        dataset, thresholds, required = case
        restricted, metrics = restricted_run(dataset, thresholds, required)
        fresh = cubeminer_mine(dataset, thresholds)
        assert restricted == sorted(
            (c.heights, c.rows, c.columns) for c in fresh if c.heights & required
        )
        assert metrics.nodes_visited <= fresh.stats["nodes_visited"]

    @settings(max_examples=40, deadline=None)
    @given(tensor_thresholds_mask())
    def test_every_height_required_is_the_unrestricted_run(self, case):
        dataset, thresholds, _ = case
        restricted, metrics = restricted_run(
            dataset, thresholds, full_mask(dataset.n_heights)
        )
        fresh = cubeminer_mine(dataset, thresholds)
        assert restricted == sorted((c.heights, c.rows, c.columns) for c in fresh)
        assert metrics.nodes_visited == fresh.stats["nodes_visited"]
        assert metrics.pruned_required_heights == 0

    def test_prune_is_counted_and_emitted(self, paper_ds, paper_thresholds):
        # Requiring h3 drops the one FCC without it, (h1h2, r1r4, c3c5).
        h3 = 1 << 2
        sink = CollectingSink()
        restricted, metrics = restricted_run(paper_ds, paper_thresholds, h3, sink)
        fresh = cubeminer_mine(paper_ds, paper_thresholds)
        assert len(restricted) == len(fresh) - 1 == 4
        assert metrics.nodes_visited < fresh.stats["nodes_visited"]
        pruned = [
            event for event in sink.of_kind("prune")
            if event.reason == "pruned_required_heights"
        ]
        assert len(pruned) == metrics.pruned_required_heights > 0
        assert all(e.branch == "left" and not e.heights & h3 for e in pruned)


# ----------------------------------------------------------------------
# The track-core rule: middle and right sons narrow to the columns that
# track_left x track_middle shares and drop the heights and rows that
# share fewer than minC of them.  The cubes stay the oracle's (the
# engine property in test_closure_cache.py); these pins catch a rule
# that prunes less than it should.
# ----------------------------------------------------------------------
_TRACK_CORE_COUNTERS = (
    "nodes_visited",
    "leaves_emitted",
    "sons_left",
    "sons_middle",
    "sons_right",
    "pruned_track_core",
)


class TestTrackCore:
    @pytest.mark.parametrize(
        "order, expected",
        [
            (HeightOrder.ORIGINAL, (32, 5, 4, 10, 17, 1)),
            (HeightOrder.ZERO_DECREASING, (33, 5, 4, 11, 17, 1)),
            (HeightOrder.ZERO_INCREASING, (30, 5, 4, 10, 15, 3)),
        ],
    )
    def test_paper_example_counters(self, paper_ds, paper_thresholds, order, expected):
        metrics = cubeminer_mine(paper_ds, paper_thresholds, order=order).stats.metrics
        assert tuple(getattr(metrics, name) for name in _TRACK_CORE_COUNTERS) == expected

    @pytest.mark.parametrize(
        "seed, thresholds, shuffle, expected",
        [
            (5, Thresholds(2, 2, 3), False, (3811, 1513, 1228, 545, 2037, 162)),
            (8, Thresholds(3, 2, 4, min_volume=30), False, (1431, 210, 406, 350, 674, 517)),
            # A cutter list not grouped by height: a right son's new middle
            # atom brings a core term that no earlier cutter applied.
            (5, Thresholds(2, 2, 3), True, (3574, 1513, 570, 1211, 1792, 199)),
        ],
    )
    def test_seeded_tensor_counters(self, seed, thresholds, shuffle, expected):
        dataset = random_tensor((7, 7, 64), 0.6, seed=seed)
        cutters = None
        if shuffle:
            grouped = build_cutters(dataset, HeightOrder.ORIGINAL)
            order = np.random.default_rng(0).permutation(len(grouped))
            cutters = [grouped[i] for i in order]
        result = cubeminer_mine(dataset, thresholds, cutters=cutters)
        assert result.same_cubes(reference_mine(dataset, thresholds))
        metrics = result.stats.metrics
        assert tuple(getattr(metrics, name) for name in _TRACK_CORE_COUNTERS) == expected

    @pytest.mark.parametrize(
        "seed, shape, thresholds, expected",
        [
            (11, (6, 8, 70), Thresholds(2, 2, 3), (3722, 162)),
            (3, (5, 6, 90), Thresholds(2, 2, 4), (732, 43)),
        ],
    )
    def test_right_son_row_term_on_shuffled_cutters(self, seed, shape, thresholds, expected):
        # build_cutters groups Z by height, so every cutter (k, X) with k
        # in TL runs before (W, X) and a right son's row term
        # AND_{k in TL} ones[k][X] never narrows anything.  A shuffled
        # list reaches right sons whose columns still hold such zeros;
        # without the term this tree is 3x larger (11,282 and 2,175
        # nodes, 110 and 15 core prunes).
        dataset = random_tensor(shape, 0.6, seed=seed)
        grouped = build_cutters(dataset, HeightOrder.ORIGINAL)
        order = np.random.default_rng(1).permutation(len(grouped))
        result = cubeminer_mine(dataset, thresholds, cutters=[grouped[i] for i in order])
        assert result.same_cubes(reference_mine(dataset, thresholds))
        metrics = result.stats.metrics
        assert (metrics.nodes_visited, metrics.pruned_track_core) == expected

    def test_pruned_sons_are_events(self, paper_ds, paper_thresholds):
        sink = CollectingSink()
        result = cubeminer_mine(
            paper_ds, paper_thresholds, order=HeightOrder.ZERO_INCREASING, on_event=sink
        )
        pruned = [e for e in sink.of_kind("prune") if e.reason == "pruned_track_core"]
        assert len(pruned) == result.stats["pruned_track_core"] == 3
        assert all(e.branch in ("middle", "right") for e in pruned)
        assert "pruned_track_core" not in result.stats.metrics.prune_counts()
