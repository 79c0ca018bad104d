"""The incremental maintainer must be bit-identical to a fresh mine.

The hypothesis differential below is the subsystem's load-bearing
guarantee: for arbitrary small tensors and arbitrary *valid* delta
sequences — cell flips plus slice appends/drops on every axis —
patching the old result through :func:`repro.stream.maintain` yields
exactly the cube list a fresh RSM mine of the edited tensor returns,
on both dataset storages.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.cubeminer.algorithm import cubeminer_mine
from repro.datasets import random_tensor
from repro.obs.metrics import MiningMetrics
from repro.stream import (
    AppendSlice,
    ClearCell,
    DropSlice,
    IncrementalMaintainer,
    SetCell,
    maintain,
)
from repro.stream.maintain import merge_shard_results
from tests.conftest import STORAGES, in_storage



def _keys(result):
    return [(c.heights, c.rows, c.columns) for c in result.cubes]


# ----------------------------------------------------------------------
# Strategies: delta sequences valid against the evolving shape
# ----------------------------------------------------------------------
@st.composite
def tensor_and_deltas(draw, max_dim: int = 4, max_deltas: int = 4):
    l = draw(st.integers(2, max_dim))
    n = draw(st.integers(2, max_dim))
    m = draw(st.integers(2, max_dim))
    cells = draw(
        st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m)
    )
    tensor = np.array(cells, dtype=bool).reshape(l, n, m)

    shape = [l, n, m]
    deltas = []
    for _ in range(draw(st.integers(1, max_deltas))):
        kind = draw(st.sampled_from(("set", "clear", "append", "drop")))
        axis = draw(st.integers(0, 2))
        if kind in ("set", "clear"):
            coords = [draw(st.integers(0, shape[a] - 1)) for a in range(3)]
            cls = SetCell if kind == "set" else ClearCell
            deltas.append(cls(*coords))
        elif kind == "append":
            rest = tuple(d for a, d in enumerate(shape) if a != axis)
            count = rest[0] * rest[1]
            bits = draw(
                st.lists(st.booleans(), min_size=count, max_size=count)
            )
            values = np.array(bits, dtype=int).reshape(rest)
            deltas.append(AppendSlice(axis, values))
            shape[axis] += 1
        else:
            if shape[axis] == 1:
                continue  # never drop the last slice
            deltas.append(DropSlice(axis, draw(st.integers(0, shape[axis] - 1))))
            shape[axis] -= 1
    return Dataset3D(tensor), deltas


@settings(max_examples=40, deadline=None)
@given(data=tensor_and_deltas())
@pytest.mark.parametrize("storage", STORAGES)
def test_maintain_equals_fresh_mine(storage, data):
    dataset, deltas = data
    dataset = in_storage(dataset, storage)
    thresholds = Thresholds(2, 2, 2)
    base = mine(dataset, thresholds, algorithm="rsm")
    metrics = MiningMetrics()
    new_dataset, maintained = maintain(
        dataset, base, deltas, thresholds, metrics=metrics
    )
    fresh = mine(new_dataset, thresholds, algorithm="rsm")
    assert _keys(maintained) == _keys(fresh)
    # Both passes emit only closed frequent cubes: the merge drops none.
    assert metrics.shard_merge_dropped == 0
    assert maintained.thresholds == thresholds
    assert maintained.dataset_shape == new_dataset.shape


@settings(max_examples=20, deadline=None)
@given(data=tensor_and_deltas(max_deltas=3))
def test_maintain_with_volume_constraint(data):
    dataset, deltas = data
    thresholds = Thresholds(1, 2, 1, min_volume=4)
    base = mine(dataset, thresholds, algorithm="rsm")
    metrics = MiningMetrics()
    new_dataset, maintained = maintain(
        dataset, base, deltas, thresholds, metrics=metrics
    )
    fresh = mine(new_dataset, thresholds, algorithm="rsm")
    assert _keys(maintained) == _keys(fresh)
    assert metrics.shard_merge_dropped == 0


# ----------------------------------------------------------------------
# Directed cases
# ----------------------------------------------------------------------
def planted() -> Dataset3D:
    rng = np.random.default_rng(11)
    data = rng.random((4, 8, 10)) < 0.35
    data[:3, 1:5, 2:7] = True
    return Dataset3D(data)


@pytest.mark.parametrize("storage", STORAGES)
def test_single_cell_edit_each_axis_slice(storage):
    ds = in_storage(planted(), storage)
    th = Thresholds(2, 2, 2)
    base = mine(ds, th, algorithm="rsm")
    for delta in (SetCell(0, 0, 0), ClearCell(1, 2, 3), SetCell(3, 7, 9)):
        new_ds, maintained = maintain(ds, base, [delta], th)
        assert _keys(maintained) == _keys(mine(new_ds, th, algorithm="rsm"))


@pytest.mark.parametrize("axis", ("height", "row", "column"))
def test_append_then_drop_on_every_axis(axis):
    ds = planted()
    th = Thresholds(2, 2, 2)
    base = mine(ds, th, algorithm="rsm")
    rest = tuple(
        d
        for a, d in enumerate(ds.shape)
        if a != ("height", "row", "column").index(axis)
    )
    deltas = [
        AppendSlice(axis, np.ones(rest, dtype=int)),
        DropSlice(axis, 0),
    ]
    new_ds, maintained = maintain(ds, base, deltas, th)
    assert _keys(maintained) == _keys(mine(new_ds, th, algorithm="rsm"))


def test_maintainer_carries_state_across_batches():
    ds = planted()
    th = Thresholds(2, 2, 2)
    maintainer = IncrementalMaintainer(ds, mine(ds, th, algorithm="rsm"), th)
    batches = [
        [SetCell(0, 0, 0)],
        [AppendSlice("height", np.zeros((8, 10), dtype=int))],
        [DropSlice("row", 3), ClearCell(0, 0, 5)],
    ]
    for batch in batches:
        maintained = maintainer.apply(batch)
        fresh = mine(maintainer.dataset, th, algorithm="rsm")
        assert _keys(maintained) == _keys(fresh)
    assert maintainer.result is maintained


def test_thresholds_default_from_base_result():
    ds = planted()
    th = Thresholds(2, 2, 2)
    base = mine(ds, th, algorithm="rsm")
    _, maintained = maintain(ds, base, [SetCell(0, 0, 0)])
    assert maintained.thresholds == th


def test_metrics_counters_and_stream_extra():
    ds = planted()
    th = Thresholds(2, 2, 2)
    base = mine(ds, th, algorithm="rsm")
    metrics = MiningMetrics()
    _, maintained = maintain(
        ds, base, [SetCell(0, 0, 0)], th, metrics=metrics
    )
    assert metrics.deltas_applied == 1
    assert metrics.cubes_patched >= 1
    assert metrics.subsets_remined >= 1
    stream = maintained.stats.extra["stream"]
    assert stream["deltas_applied"] == 1
    assert stream["dirty_heights"] == 1
    assert stream["cubes_patched"] == metrics.cubes_patched
    assert stream["cubes_reclosed"] == metrics.cubes_reclosed
    assert stream["subsets_remined"] == metrics.subsets_remined
    # Counters survive the serialization round-trip.
    restored = MiningMetrics.from_dict(metrics.to_dict())
    assert restored.deltas_applied == 1


def test_dirty_pass_skipped_when_no_dirty_height_can_hold_a_cube():
    """An edit in a height whose every subset the RSM walk cuts needs no
    CubeMiner run: the dirty pass visits no node, and the result is
    still the fresh mine's."""
    rng = np.random.default_rng(8)
    data = rng.random((6, 10, 12)) < 0.15
    data[1:4, :4, :5] = True  # the only cube, in heights 1-3
    ds = Dataset3D(data)
    th = Thresholds(3, 3, 4)
    base = mine(ds, th, algorithm="rsm")
    assert len(base) >= 1
    for height, expect_skip in ((5, True), (2, False)):
        metrics = MiningMetrics()
        batch = [ClearCell(height, 9, 11)]
        new, maintained = maintain(ds, base, batch, th, metrics=metrics)
        assert maintained.same_cubes(mine(new, th))
        assert (metrics.nodes_visited == 0) == expect_skip, height


# ----------------------------------------------------------------------
# The patch pass's three rules: skip, carry, re-close
# ----------------------------------------------------------------------
def blocks() -> Dataset3D:
    """Five FCCs at (2, 2, 2), built so each patch-pass rule has a case.

    A = heights 0-2 × rows 0-2 × columns 0-2; heights 1-2 extend it to
    row 5, and height 4 covers its region but one cell (two more cubes
    through heights 0-2 and 4).  B = heights 2-3 × rows 3-4 × columns
    3-5.  One lone cell sits in height 3, in no cube.
    """
    data = np.zeros((5, 6, 7), dtype=bool)
    data[0:3, 0:3, 0:3] = True
    data[1:3, 5, 0:3] = True
    data[2:4, 3:5, 3:6] = True
    data[4, 0:3, 0:3] = True
    data[4, 0, 0] = False
    data[3, 0, 6] = True
    return Dataset3D(data)


def _patch_counts(batch):
    """Maintain ``blocks()`` through ``batch``; return the pass counters."""
    ds = blocks()
    th = Thresholds(2, 2, 2)
    base = mine(ds, th)
    assert len(base) == 5
    metrics = MiningMetrics()
    new, maintained = maintain(ds, base, batch, th, metrics=metrics)
    assert _keys(maintained) == _keys(mine(new, th))
    assert metrics.shard_merge_dropped == 0
    stream = maintained.stats.extra["stream"]
    assert stream["cubes_reclosed"] == metrics.cubes_reclosed
    return metrics, maintained


def test_clear_outside_every_cube_recloses_nothing():
    # Height 3 still covers B, so B is skipped and the dirty pass
    # re-finds it; the four cubes without height 3 are carried.
    metrics, _ = _patch_counts([ClearCell(3, 0, 6)])
    assert metrics.cubes_reclosed == 0
    assert metrics.cubes_patched == 4
    assert metrics.subsets_remined == 1


def test_clear_inside_a_region_recloses_the_cubes_it_opens():
    # Height 1 stops covering the four cubes through it: each is
    # re-closed once.  The one over rows 0-2 and 5 keeps only height 2
    # and fails minH, so the patch pass drops it; B is carried.
    metrics, _ = _patch_counts([ClearCell(1, 1, 1)])
    assert metrics.cubes_reclosed == 4
    assert metrics.cubes_patched == 4


def test_set_cell_that_covers_a_cube_skips_it_for_the_dirty_pass():
    # Height 4 now covers A and the two cubes through heights 0-2 and 4:
    # all three are skipped, and the dirty pass emits A plus height 4.
    metrics, maintained = _patch_counts([SetCell(4, 0, 0)])
    assert metrics.cubes_reclosed == 0
    assert metrics.cubes_patched == 2
    assert metrics.subsets_remined == 1
    assert (0b10111, 0b111, 0b111) in _keys(maintained)


def test_expiry_recloses_the_cubes_that_lose_a_height():
    # Dropping height 0 re-closes the three cubes through it (A grows
    # onto row 5); the two others are carried with shifted heights.
    metrics, maintained = _patch_counts([DropSlice("height", 0)])
    assert metrics.cubes_reclosed == 3
    assert metrics.cubes_patched == 5
    assert metrics.subsets_remined == 0
    assert (0b110, 0b11000, 0b111000) in _keys(maintained)


def test_algorithm_tag_does_not_nest():
    ds = planted()
    th = Thresholds(2, 2, 2)
    maintainer = IncrementalMaintainer(ds, mine(ds, th, algorithm="rsm"), th)
    maintainer.apply([SetCell(0, 0, 0)])
    second = maintainer.apply([ClearCell(0, 0, 0)])
    assert second.algorithm.count("stream[") == 1


def test_maintain_without_thresholds_anywhere_raises():
    ds = planted()
    base = mine(ds, Thresholds(2, 2, 2), algorithm="rsm")
    stripped = type(base)(
        cubes=list(base.cubes), algorithm=base.algorithm, thresholds=None
    )
    with pytest.raises(ValueError):
        maintain(ds, stripped, [SetCell(0, 0, 0)])


# ----------------------------------------------------------------------
# maintain()'s final merge (merge_shard_results)
# ----------------------------------------------------------------------
def cube_triples(result):
    return sorted((c.heights, c.rows, c.columns) for c in result)


@st.composite
def tensors_with_thresholds(draw, max_dim: int = 5):
    l = draw(st.integers(2, max_dim))
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    cells = draw(st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m))
    dataset = Dataset3D(np.array(cells, dtype=bool).reshape(l, n, m))
    thresholds = Thresholds(
        draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    )
    return dataset, thresholds


class TestMergeAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(tensors_with_thresholds(), st.data())
    def test_merge_is_associative_and_order_insensitive(self, case, data):
        dataset, thresholds = case
        triples = cube_triples(cubeminer_mine(dataset, thresholds))
        permuted = data.draw(st.permutations(triples))
        split_at = data.draw(st.integers(0, len(permuted)))
        left, right = permuted[:split_at], permuted[split_at:]
        one_pass = merge_shard_results(dataset, thresholds, list(permuted))
        grouped = merge_shard_results(
            dataset,
            thresholds,
            merge_shard_results(dataset, thresholds, left)
            + merge_shard_results(dataset, thresholds, right),
        )
        assert one_pass == grouped == sorted(triples)

    @settings(max_examples=25, deadline=None)
    @given(tensors_with_thresholds())
    def test_merge_is_idempotent_and_deduplicates(self, case):
        dataset, thresholds = case
        triples = cube_triples(cubeminer_mine(dataset, thresholds))
        once = merge_shard_results(dataset, thresholds, triples)
        again = merge_shard_results(dataset, thresholds, once + once)
        assert once == again == sorted(triples)

    def test_merge_drops_planted_violations(self):
        dataset = random_tensor((5, 8, 10), 0.4, seed=7)
        thresholds = Thresholds(2, 2, 2)
        good = cube_triples(cubeminer_mine(dataset, thresholds))
        assert good, "seed must yield at least one cube"
        # An unclosed/over-threshold-violating impostor at the shard
        # boundary must be re-validated away, and counted.
        h, r, c = good[0]
        impostors = [(h, r & -r, c), (0b1, 0b1, 0b1)]
        from repro.obs import MiningMetrics

        metrics = MiningMetrics()
        merged = merge_shard_results(
            dataset, thresholds, good + impostors, metrics=metrics
        )
        survivors = [t for t in impostors if t in merged]
        assert merged == sorted(set(good) | set(survivors))
        assert metrics.shard_merge_dropped == len(impostors) - len(survivors)
        assert metrics.shard_merge_dropped >= 1
