"""Unit and integration tests for the RSM framework."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import bit_count, mask_of
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.reference import reference_mine
from repro.fcp import Carpenter, get_fcp_miner
from repro.obs import MiningMetrics
from repro.parallel import parallel_rsm_mine
from repro.rsm.algorithm import mine_slice, plan_subsets
from repro.rsm.slices import may_hold_cube
from repro.stream import stream_mine
from repro.rsm import (
    RSMMiner,
    count_height_subsets,
    enumerate_height_subsets,
    height_closed_in,
    representative_slice,
    resolve_base_axis,
    rsm_mine,
)
from tests.conftest import random_dataset


class TestSubsetEnumeration:
    def test_all_subsets_min1(self):
        subsets = list(enumerate_height_subsets(3, 1))
        assert len(subsets) == 7
        assert len(set(subsets)) == 7

    def test_min_h_filters_small_subsets(self):
        subsets = list(enumerate_height_subsets(4, 3))
        assert all(bit_count(s) >= 3 for s in subsets)
        assert len(subsets) == 4 + 1  # C(4,3) + C(4,4)

    def test_smallest_first(self):
        sizes = [bit_count(s) for s in enumerate_height_subsets(4, 2)]
        assert sizes == sorted(sizes)

    def test_invalid_min_h(self):
        with pytest.raises(ValueError):
            list(enumerate_height_subsets(3, 0))

    def test_count_matches_enumeration(self):
        for n, k in [(3, 1), (5, 2), (6, 4), (4, 5)]:
            assert count_height_subsets(n, k) == len(
                list(enumerate_height_subsets(n, k))
            )

    def test_count_explodes_with_dimension(self):
        # The quantity behind Figure 7: the subset count roughly doubles
        # per extra height.
        assert count_height_subsets(20, 3) > 500 * count_height_subsets(10, 3)


class TestRepresentativeSlice:
    def test_single_height_is_the_slice(self, paper_ds):
        rs = representative_slice(paper_ds, mask_of([1]))
        assert rs.row_masks() == paper_ds.slice_row_masks(1)

    def test_and_semantics(self, paper_ds):
        rs = representative_slice(paper_ds, mask_of([0, 1, 2]))
        for i in range(paper_ds.n_rows):
            expected = (
                paper_ds.ones_mask(0, i)
                & paper_ds.ones_mask(1, i)
                & paper_ds.ones_mask(2, i)
            )
            assert rs.row_mask(i) == expected

    def test_empty_subset_raises(self, paper_ds):
        with pytest.raises(ValueError, match="at least one height"):
            representative_slice(paper_ds, 0)


class TestPostPrune:
    def test_closed_pattern_kept(self, paper_ds):
        # (h2h3, r1r3r4, c1c2) is exactly height-closed.
        assert height_closed_in(
            paper_ds, mask_of([1, 2]), mask_of([0, 2, 3]), mask_of([0, 1])
        )

    def test_unclosed_pattern_pruned(self, paper_ds):
        # (h2h3, r1r3, c1c2c3) also lives in h1 — Lemma 1 prunes it.
        assert not height_closed_in(
            paper_ds, mask_of([1, 2]), mask_of([0, 2]), mask_of([0, 1, 2])
        )

    def test_full_height_set_always_closed(self, paper_ds):
        assert height_closed_in(paper_ds, mask_of([0, 1, 2]), mask_of([0]), mask_of([0]))


class TestBaseAxisResolution:
    def test_names(self, paper_ds):
        assert resolve_base_axis(paper_ds, "height") == 0
        assert resolve_base_axis(paper_ds, "row") == 1
        assert resolve_base_axis(paper_ds, "column") == 2

    def test_indices_pass_through(self, paper_ds):
        assert resolve_base_axis(paper_ds, 2) == 2

    def test_auto_picks_smallest(self):
        ds = Dataset3D(np.zeros((5, 2, 9), dtype=bool))
        assert resolve_base_axis(ds, "auto") == 1

    def test_auto_tie_prefers_first_axis(self):
        ds = Dataset3D(np.zeros((2, 2, 9), dtype=bool))
        assert resolve_base_axis(ds, "auto") == 0

    def test_invalid_name(self, paper_ds):
        with pytest.raises(ValueError, match="unknown base axis"):
            resolve_base_axis(paper_ds, "depth")

    def test_invalid_index(self, paper_ds):
        with pytest.raises(ValueError, match="axis index"):
            resolve_base_axis(paper_ds, 5)


class TestRSMMining:
    def test_matches_reference_random(self, rng):
        for _ in range(25):
            ds = random_dataset(rng)
            th = Thresholds(*(int(x) for x in rng.integers(1, 4, size=3)))
            assert rsm_mine(ds, th).same_cubes(reference_mine(ds, th))

    def test_all_base_axes_agree(self, rng):
        for _ in range(15):
            ds = random_dataset(rng)
            th = Thresholds(*(int(x) for x in rng.integers(1, 3, size=3)))
            results = [
                rsm_mine(ds, th, base_axis=axis) for axis in (0, 1, 2)
            ]
            assert results[0].same_cubes(results[1])
            assert results[1].same_cubes(results[2])

    def test_fcp_miner_instance_accepted(self, paper_ds, paper_thresholds):
        result = rsm_mine(paper_ds, paper_thresholds, fcp_miner=Carpenter())
        assert len(result) == 5

    def test_unknown_fcp_miner_raises(self, paper_ds, paper_thresholds):
        with pytest.raises(ValueError, match="unknown 2D miner"):
            rsm_mine(paper_ds, paper_thresholds, fcp_miner="nope")

    def test_algorithm_name_reflects_configuration(self, paper_ds, paper_thresholds):
        result = rsm_mine(
            paper_ds, paper_thresholds, base_axis="row", fcp_miner="carpenter"
        )
        assert result.algorithm == "rsm-r[carpenter]"

    def test_stats_exposed(self, paper_ds, paper_thresholds):
        stats = rsm_mine(paper_ds, paper_thresholds).stats
        assert stats["representative_slices"] == 4
        assert stats["fcp_patterns"] == 9  # Table 2 column 3 lists 9 FCPs
        assert stats["postprune_pruned"] == 4  # 9 patterns -> 5 FCCs

    def test_infeasible_thresholds(self, paper_ds):
        result = rsm_mine(paper_ds, Thresholds(4, 1, 1))
        assert len(result) == 0
        assert result.stats["representative_slices"] == 0

    def test_all_zero_dataset(self):
        ds = Dataset3D(np.zeros((2, 2, 2), dtype=bool))
        assert len(rsm_mine(ds, Thresholds(1, 1, 1))) == 0

    def test_all_one_dataset(self):
        ds = Dataset3D(np.ones((2, 2, 2), dtype=bool))
        result = rsm_mine(ds, Thresholds(1, 1, 1))
        assert len(result) == 1
        assert result.cubes[0].volume == 8


class TestRSMMinerFacade:
    def test_mine(self, paper_ds, paper_thresholds):
        miner = RSMMiner(base_axis="auto", fcp_miner="dminer")
        assert len(miner.mine(paper_ds, paper_thresholds)) == 5

    def test_repr(self):
        assert "auto" in repr(RSMMiner())


# ----------------------------------------------------------------------
# The pruned subset walk against the paper's full enumeration
# ----------------------------------------------------------------------
WALK_COUNTERS = ("fcp_patterns", "postprune_checked", "postprune_discards")


def full_enumeration(dataset, thresholds, base_axis, fcp_miner):
    """The paper's RSM: every subset of at least ``min_subset_size``
    members, each folded from scratch and mined, with no cut."""
    plan = plan_subsets(dataset, thresholds, base_axis)
    miner = get_fcp_miner(fcp_miner)
    metrics = MiningMetrics()
    cubes = []
    l = plan.dataset.n_heights
    if plan.min_size <= l:
        for heights in enumerate_height_subsets(l, plan.min_size):
            rs = representative_slice(plan.dataset, heights)
            cubes += mine_slice(
                plan.dataset, heights, rs, plan.thresholds, miner, metrics
            )
    return sorted((plan.to_caller(cube) for cube in cubes), key=lambda c: c.sort_key()), metrics


@st.composite
def walk_cases(draw):
    """A small tensor and thresholds.  The density regime includes
    all-ones tensors (no subtree is cut) and all-zero ones (every
    subtree is cut) besides random fill."""
    shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    regime = draw(st.sampled_from(["ones", "zeros", "random", "random"]))
    if regime == "random":
        size = shape[0] * shape[1] * shape[2]
        cells = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        data = np.array(cells, dtype=bool).reshape(shape)
    else:
        data = np.full(shape, regime == "ones")
    thresholds = Thresholds(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        min_volume=draw(st.sampled_from([1, 1, 4, 12])),
    )
    return Dataset3D(data), thresholds


@settings(max_examples=80, deadline=None)
@given(
    case=walk_cases(),
    base_axis=st.sampled_from(["height", "row", "column", "auto"]),
    fcp_miner=st.sampled_from(["dminer", "carpenter"]),
)
def test_walk_equals_full_enumeration(case, base_axis, fcp_miner):
    """Cutting subtrees whose slice holds no minR x minC rectangle drops
    no cube and no 2D pattern: every RSM driver's cubes equal the full
    enumeration's and ``reference_mine``'s, and the mined plus skipped
    slices are the full enumeration's slices."""
    dataset, thresholds = case
    expected, full = full_enumeration(dataset, thresholds, base_axis, fcp_miner)
    reference = reference_mine(dataset, thresholds)
    assert reference.same_cubes(expected)
    runs = [
        rsm_mine(dataset, thresholds, base_axis=base_axis, fcp_miner=fcp_miner),
        parallel_rsm_mine(
            dataset, thresholds, n_workers=1, base_axis=base_axis, fcp_miner=fcp_miner
        ),
    ]
    for result in runs:
        assert result.same_cubes(expected)
        metrics = result.stats.metrics
        assert metrics.rs_slices_mined + metrics.rs_slices_skipped == full.rs_slices_mined
        for name in WALK_COUNTERS:
            assert getattr(metrics, name) == getattr(full, name), name
    for dice in (False, True):
        assert stream_mine(dataset, thresholds, dice=dice).same_cubes(expected)


@pytest.mark.parametrize(
    "regime,density,thresholds",
    [
        ("no cut", 1.0, Thresholds(2, 2, 2)),
        ("all cut", 0.5, Thresholds(1, 5, 7)),
        ("some cut", 0.7, Thresholds(2, 3, 3, min_volume=20)),
    ],
)
@pytest.mark.parametrize("base_axis", ["height", "auto"])
def test_pooled_walk_equals_full_enumeration(regime, density, thresholds, base_axis):
    rng = np.random.default_rng(71)
    dataset = Dataset3D(rng.random((6, 6, 8)) < density)
    expected, full = full_enumeration(dataset, thresholds, base_axis, "dminer")
    result = parallel_rsm_mine(dataset, thresholds, n_workers=2, base_axis=base_axis)
    assert result.same_cubes(expected)
    assert result.same_cubes(reference_mine(dataset, thresholds))
    metrics = result.stats.metrics
    skipped, mined = metrics.rs_slices_skipped, metrics.rs_slices_mined
    assert mined + skipped == full.rs_slices_mined
    if regime == "no cut":
        assert skipped == 0 and mined > 0
    elif regime == "all cut":
        assert mined == 0 and skipped > 0
    else:
        assert mined > 0 and skipped > 0
    for name in WALK_COUNTERS:
        assert getattr(metrics, name) == getattr(full, name), name


@settings(max_examples=80, deadline=None)
@given(case=walk_cases(), required=st.integers(0, 31))
def test_may_hold_cube_never_misses_a_cube(case, required):
    """``may_hold_cube`` is ``False`` only when no cube meeting the
    thresholds has a height in ``required``."""
    dataset, thresholds = case
    required &= (1 << dataset.n_heights) - 1
    if any(cube.heights & required for cube in reference_mine(dataset, thresholds)):
        assert may_hold_cube(dataset, thresholds, required)
