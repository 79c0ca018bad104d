"""CubeMiner's diced root: exactness, observability and import hygiene.

Every CubeMiner search starts at the :func:`~repro.core.dice.diamond_dice`
region of the tensor (:func:`~repro.cubeminer.algorithm.search_root`),
in the caller's own coordinates.  These tests pin that the root changes
no cube, that every node and partial cube stays inside it, and that the
kept shape is reported under the one key the diced paths share.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.dice import DICE_KEPT_SHAPE, diamond_dice
from repro.core.reference import reference_mine
from repro.cubeminer import cubeminer_mine, search_root
from repro.obs import CollectingSink, MiningCancelled, ProgressController
from repro.options import ParallelOptions
from repro.stream import stream_mine


def _inside(heights: int, rows: int, columns: int, root) -> bool:
    return not (
        heights & ~root.heights or rows & ~root.rows or columns & ~root.columns
    )


def planted() -> Dataset3D:
    """Two overlapping blocks in sparse noise: dicing drops some noise."""
    rng = np.random.default_rng(11)
    data = rng.random((5, 8, 12)) < 0.2
    data[0:3, 0:4, 0:5] = True
    data[2:5, 3:7, 3:8] = True
    return Dataset3D(data)


@st.composite
def sparse_tensor_thresholds(draw, max_dim: int = 6):
    l = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    density = draw(st.sampled_from([0.15, 0.3, 0.45, 0.6]))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).random((l, n, m)) < density
    # Thresholds of 2-3 leave sparse slices unable to qualify, so the
    # dicer often prunes part of every axis.
    thresholds = Thresholds(
        draw(st.integers(1, min(l, 3))),
        draw(st.integers(1, min(n, 3))),
        draw(st.integers(1, min(m, 3))),
    )
    return Dataset3D(data), thresholds


class TestExactness:
    @settings(max_examples=150, deadline=None)
    @given(sparse_tensor_thresholds())
    def test_cubeminer_equals_reference(self, case):
        dataset, thresholds = case
        result = cubeminer_mine(dataset, thresholds)
        assert sorted(result.cubes, key=lambda c: c.sort_key()) == sorted(
            reference_mine(dataset, thresholds).cubes, key=lambda c: c.sort_key()
        )
        assert result.dataset_shape == dataset.shape

    def test_region_shrinks_and_is_reported(self):
        dataset = planted()
        thresholds = Thresholds(2, 2, 2)
        root, _ = search_root(dataset, thresholds)
        assert all(kept <= size for kept, size in zip(root.shape, dataset.shape))
        assert root.shape != dataset.shape
        result = cubeminer_mine(dataset, thresholds)
        assert result.stats[DICE_KEPT_SHAPE] == list(root.shape)
        assert result.dataset_shape == dataset.shape
        assert result.cube_set() == reference_mine(dataset, thresholds).cube_set()

    def test_cutters_stay_inside_the_root(self):
        dataset = planted()
        root, cutters = search_root(dataset, Thresholds(2, 2, 2))
        assert cutters
        for cutter in cutters:
            assert _inside(cutter.left_mask, cutter.middle_mask, cutter.columns, root)

    def test_region_that_dices_to_empty_mines_nothing(self):
        dataset = planted()
        thresholds = Thresholds(4, 4, 4)
        root, _ = search_root(dataset, thresholds)
        assert root.shape == (0, 0, 0)
        result = cubeminer_mine(dataset, thresholds)
        assert len(result) == 0 == len(reference_mine(dataset, thresholds))
        assert result.stats["nodes_visited"] == 0
        assert result.stats[DICE_KEPT_SHAPE] == [0, 0, 0]


class TestInsideTheRoot:
    def test_node_and_prune_events_stay_inside(self):
        dataset = planted()
        thresholds = Thresholds(2, 2, 2)
        root, _ = search_root(dataset, thresholds)
        sink = CollectingSink()
        cubeminer_mine(dataset, thresholds, on_event=sink)
        nodes = sink.of_kind("node")
        assert (nodes[0].heights, nodes[0].rows, nodes[0].columns) == (
            root.heights, root.rows, root.columns,
        )
        for event in nodes + sink.of_kind("prune"):
            assert _inside(event.heights, event.rows, event.columns, root)

    def test_cancelled_partial_stays_inside(self):
        dataset = planted()
        thresholds = Thresholds(2, 2, 2)
        root, _ = search_root(dataset, thresholds)
        assert root.shape != dataset.shape
        full = cubeminer_mine(dataset, thresholds)
        assert len(full) >= 3, "workload too small for a mid-run cancel"

        def cancel_at_two(update):
            if update.metrics.leaves_emitted >= 2:
                controller.cancel()

        controller = ProgressController(
            on_progress=cancel_at_two, check_every=1, min_interval=0
        )
        with pytest.raises(MiningCancelled) as excinfo:
            cubeminer_mine(dataset, thresholds, progress=controller)
        partial = excinfo.value.partial
        assert len(partial) == 2
        assert partial.dataset_shape == dataset.shape
        assert partial.stats[DICE_KEPT_SHAPE] == list(root.shape)
        for cube in partial:
            assert _inside(cube.heights, cube.rows, cube.columns, root)
            assert cube in full.cube_set()


class TestSharedKey:
    def test_every_diced_path_reports_the_same_shape(self):
        dataset = planted()
        thresholds = Thresholds(2, 2, 2)
        kept = list(diamond_dice(dataset, thresholds).shape)
        sequential = cubeminer_mine(dataset, thresholds)
        parallel = mine(
            dataset,
            thresholds,
            algorithm="parallel-cubeminer",
            options=ParallelOptions(n_workers=2),
        )
        streamed = stream_mine(dataset, thresholds, dice=True)
        assert sequential.stats.extra[DICE_KEPT_SHAPE] == kept
        assert parallel.stats.extra[DICE_KEPT_SHAPE] == kept
        assert streamed.stats.extra["stream"][DICE_KEPT_SHAPE] == kept
        assert parallel.cube_set() == sequential.cube_set() == streamed.cube_set()
        assert parallel.dataset_shape == dataset.shape


def test_cubeminer_imports_no_rsm_fcp_or_stream():
    """The dicer and CubeMiner stand on ``repro.core`` alone."""
    code = (
        "import sys\n"
        "import repro.cubeminer, repro.core.dice\n"
        "print(' '.join(sorted(name for name in sys.modules\n"
        "    if name.split('.')[:2] in (['repro', 'stream'], ['repro', 'rsm'],\n"
        "                               ['repro', 'fcp']))))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
