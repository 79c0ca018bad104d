"""Every RSM path tallies the same per-slice work.

``rsm_mine``, ``stream_mine`` and ``parallel-rsm`` each enumerate
height subsets their own way but mine every representative slice
through one step (:func:`repro.rsm.algorithm.mine_slice`): all three
paths must report the same cubes and the same slice, pattern and
post-prune counters.

``maintain()`` re-mines with CubeMiner restricted to the dirty heights.
A row append dirties every height, so that run is a full fresh
CubeMiner run: the maintained cubes must equal the RSM paths' and its
``nodes_visited`` must equal a fresh ``cubeminer_mine``'s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.cubeminer import cubeminer_mine
from repro.obs import MiningMetrics
from repro.parallel import parallel_rsm_mine
from repro.rsm.algorithm import rsm_mine
from repro.stream import AppendSlice, maintain, stream_mine
from tests.conftest import random_dataset

COUNTERS = ("rs_slices_mined", "fcp_patterns", "postprune_checked", "postprune_discards")


def counters(result) -> dict[str, int]:
    return {name: getattr(result.stats.metrics, name) for name in COUNTERS}


def run_every_path(old: Dataset3D, thresholds: Thresholds, row: np.ndarray):
    """Mine the row-appended tensor along every RSM path, maintain the
    old result through the append, and mine it fresh with CubeMiner."""
    new, maintained = maintain(
        old, mine(old, thresholds), [AppendSlice(1, row)], thresholds
    )
    rsm_paths = {
        "rsm": rsm_mine(new, thresholds, base_axis="height"),
        "stream": stream_mine(new, thresholds, dice=False),
        "parallel-rsm": parallel_rsm_mine(
            new, thresholds, n_workers=1, base_axis="height"
        ),
    }
    return rsm_paths, maintained, cubeminer_mine(new, thresholds)


def assert_paths_agree(results) -> dict[str, int]:
    rsm_paths, maintained, fresh = results
    expected = rsm_paths["rsm"]
    for name, result in rsm_paths.items():
        assert result.same_cubes(expected), name
        assert counters(result) == counters(expected), name
    # Every height is dirty: the dirty pass is the whole fresh tree.
    assert maintained.same_cubes(expected)
    assert maintained.same_cubes(fresh)
    metrics = maintained.stats.metrics
    assert metrics.nodes_visited == fresh.stats["nodes_visited"]
    assert metrics.pruned_required_heights == 0
    assert metrics.subsets_remined == len(fresh)
    assert metrics.rs_slices_mined == 0
    # ... and no old cube is clean, so the patch pass is skipped.
    assert metrics.cubes_patched == 0
    return counters(expected)


def test_counter_parity_on_a_fixed_tensor():
    rng = np.random.default_rng(13)
    old = Dataset3D(rng.random((5, 8, 9)) < 0.6)
    row = rng.random((5, 9)) < 0.6
    tally = assert_paths_agree(run_every_path(old, Thresholds(2, 2, 2), row))
    # Every subset is re-mined and Lemma 1 has work to do.
    assert tally["rs_slices_mined"] == 2**5 - 1 - 5
    assert tally["fcp_patterns"] > 0
    assert tally["postprune_discards"] > 0


def test_counter_parity_under_a_volume_floor():
    rng = np.random.default_rng(29)
    old = Dataset3D(rng.random((5, 7, 12)) < 0.8)
    row = rng.random((5, 12)) < 0.8
    thresholds = Thresholds(2, 2, 2, min_volume=240)
    tally = assert_paths_agree(run_every_path(old, thresholds, row))
    # A pair of 8 x 12 slices holds 192 < 240 cells: only the 16
    # subsets of three or more heights are worth mining.
    assert tally["rs_slices_mined"] == 10 + 5 + 1
    assert tally["fcp_patterns"] > 0


@pytest.mark.parametrize("seed", range(8))
def test_counter_parity_on_random_tensors(seed):
    rng = np.random.default_rng(4200 + seed)
    old = random_dataset(rng, max_dim=5)
    thresholds = Thresholds(*(int(x) for x in rng.integers(1, 3, size=3)))
    row = rng.random((old.n_heights, old.n_columns)) < rng.uniform(0.3, 0.9)
    assert_paths_agree(run_every_path(old, thresholds, row))


def test_counters_accumulate_into_a_shared_instance(paper_ds, paper_thresholds):
    shared = MiningMetrics()
    rsm_mine(paper_ds, paper_thresholds, metrics=shared)
    stream_mine(paper_ds, paper_thresholds, metrics=shared)
    # Table 2: 4 slices, 9 FCPs, 4 of them discarded by Lemma 1 — twice.
    assert (shared.rs_slices_mined, shared.fcp_patterns) == (8, 18)
    assert (shared.postprune_checked, shared.postprune_discards) == (18, 8)
