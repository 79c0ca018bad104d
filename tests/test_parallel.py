"""Tests for parallel task generation, execution and the simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitset import bit_count
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.reference import reference_mine
from repro.cubeminer import cubeminer_mine, search_root
from repro.cubeminer.cutter import HeightOrder
from repro.datasets import random_tensor
from repro.parallel import (
    CommunicationModel,
    cubeminer_tasks,
    measure_cubeminer_task_times,
    measure_rsm_task_times,
    parallel_cubeminer_mine,
    parallel_rsm_mine,
    schedule_makespan,
    simulate_response_times,
)
from repro.parallel.executor import CHUNKS_PER_WORKER, _chunked
from repro.rsm import enumerate_height_subsets, rsm_mine
from tests.conftest import random_dataset


class TestCubeMinerTasks:
    def test_expansion_reaches_min_tasks(self, paper_ds, paper_thresholds):
        root, cutters = search_root(paper_ds, paper_thresholds)
        tasks, done = cubeminer_tasks(paper_ds, paper_thresholds, root, cutters, 4)
        assert len(tasks) >= 4 or (len(tasks) == 0 and len(done) > 0)

    def test_replay_equals_sequential(self, rng):
        for _ in range(15):
            ds = random_dataset(rng)
            th = Thresholds(*(int(x) for x in rng.integers(1, 3, size=3)))
            root, cutters = search_root(ds, th, HeightOrder.ZERO_DECREASING)
            tasks, done = cubeminer_tasks(ds, th, root, cutters, 6)
            from repro.cubeminer.algorithm import CubeMinerStats, _run

            replayed, _ = _run(ds, th, cutters, tasks, CubeMinerStats())
            combined = set(done) | set(replayed)
            sequential = cubeminer_mine(ds, th).cube_set()
            assert combined == sequential

    def test_infeasible_thresholds_no_tasks(self, paper_ds):
        th = Thresholds(9, 9, 9)
        root, cutters = search_root(paper_ds, th)
        tasks, done = cubeminer_tasks(paper_ds, th, root, cutters, 4)
        assert tasks == [] and done == []

    def test_invalid_min_tasks(self, paper_ds, paper_thresholds):
        with pytest.raises(ValueError):
            cubeminer_tasks(
                paper_ds, paper_thresholds, *search_root(paper_ds, paper_thresholds), 0
            )


class TestParallelExecution:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_parallel_cubeminer_matches_reference(self, rng, n_workers):
        ds = random_dataset(rng, max_dim=5)
        th = Thresholds(1, 1, 1)
        result = parallel_cubeminer_mine(ds, th, n_workers=n_workers)
        assert result.same_cubes(reference_mine(ds, th))

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_parallel_rsm_matches_reference(self, rng, n_workers):
        ds = random_dataset(rng, max_dim=5)
        th = Thresholds(1, 1, 1)
        result = parallel_rsm_mine(ds, th, n_workers=n_workers)
        assert result.same_cubes(reference_mine(ds, th))

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_parallel_rsm_chunks_across_subset_sizes_match_rsm_mine(self, n_workers):
        """A chunk that spans a subset-size boundary folds through the same
        prefix-sharing fold: the run returns rsm_mine's cubes and counters."""
        ds = random_tensor((6, 6, 14), 0.65, seed=21)
        th = Thresholds(2, 2, 2)
        chunks = _chunked(
            list(enumerate_height_subsets(6, 2)), n_workers * CHUNKS_PER_WORKER
        )
        assert any(len({bit_count(h) for h in chunk}) > 1 for chunk in chunks)
        expected = rsm_mine(ds, th, base_axis="height")
        result = parallel_rsm_mine(ds, th, n_workers=n_workers, base_axis="height")
        assert result.cubes == expected.cubes
        for name in (
            "rs_slices_mined",
            "fcp_patterns",
            "postprune_checked",
            "postprune_discards",
        ):
            assert getattr(result.stats.metrics, name) == getattr(
                expected.stats.metrics, name
            ), name

    def test_parallel_rsm_base_axes(self, paper_ds, paper_thresholds):
        for axis in ("height", "row", "column"):
            result = parallel_rsm_mine(
                paper_ds, paper_thresholds, n_workers=2, base_axis=axis
            )
            assert len(result) == 5

    def test_invalid_worker_count(self, paper_ds, paper_thresholds):
        with pytest.raises(ValueError):
            parallel_rsm_mine(paper_ds, paper_thresholds, n_workers=0)
        with pytest.raises(ValueError):
            parallel_cubeminer_mine(paper_ds, paper_thresholds, n_workers=-1)

    def test_invalid_fcp_name_fails_before_fork(self, paper_ds, paper_thresholds):
        with pytest.raises(ValueError, match="unknown 2D miner"):
            parallel_rsm_mine(
                paper_ds, paper_thresholds, n_workers=2, fcp_miner="bogus"
            )

    def test_stats_recorded(self, paper_ds, paper_thresholds):
        result = parallel_cubeminer_mine(paper_ds, paper_thresholds, n_workers=2)
        assert result.stats["n_workers"] == 2
        assert "n_tasks" in result.stats


class TestScheduler:
    def test_single_processor_sums(self):
        assert schedule_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_many_processors_bounded_by_longest(self):
        assert schedule_makespan([5.0, 1.0, 1.0], 10) == pytest.approx(5.0)

    def test_lpt_classic_instance(self):
        # LPT on {3,3,2,2,2} with 2 procs gives 7 — the textbook instance
        # showing LPT is a 7/6 approximation (optimum is 6).
        assert schedule_makespan([3, 3, 2, 2, 2], 2) == pytest.approx(7.0)

    def test_lpt_perfect_split(self):
        assert schedule_makespan([4, 3, 3, 2], 2) == pytest.approx(6.0)

    def test_fifo_can_be_worse(self):
        times = [1, 1, 1, 1, 4]
        assert schedule_makespan(times, 2, strategy="fifo") >= schedule_makespan(
            times, 2, strategy="lpt"
        )

    def test_empty_tasks(self):
        assert schedule_makespan([], 4) == 0.0

    def test_monotone_in_processors(self):
        times = list(np.random.default_rng(0).uniform(0.1, 2.0, size=40))
        spans = [schedule_makespan(times, p) for p in (1, 2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(spans, spans[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            schedule_makespan([1.0], 0)
        with pytest.raises(ValueError):
            schedule_makespan([-1.0], 2)
        with pytest.raises(ValueError, match="strategy"):
            schedule_makespan([1.0], 2, strategy="magic")


class TestSimulatedResponse:
    def test_saturation_shape(self):
        """Figure 6's shape: gains drop beyond the straggler limit."""
        times = [4.0] + [0.5] * 28
        response = simulate_response_times(times, [1, 2, 4, 8, 16, 32])
        assert response[1] == pytest.approx(18.0)
        assert response[2] < response[1]
        assert response[8] < response[2]
        # Once the 4.0s straggler dominates, more processors do nothing.
        assert response[32] == pytest.approx(response[16])

    def test_communication_cost_degrades_high_p(self):
        times = [0.5] * 16
        comm = CommunicationModel(broadcast_seconds_per_processor=0.1)
        response = simulate_response_times(times, [1, 8, 32], communication=comm)
        assert response[8] < response[1]
        assert response[32] > response[8]  # broadcast overhead dominates

    def test_zero_communication_default(self):
        response = simulate_response_times([1.0], [1, 2])
        assert response[1] == response[2] == pytest.approx(1.0)


class TestTaskTimeMeasurement:
    def test_rsm_task_times_cover_all_slices(self, paper_ds, paper_thresholds):
        times = measure_rsm_task_times(
            paper_ds, paper_thresholds, base_axis="height"
        )
        assert len(times) == 4  # the 4 subsets of Table 2
        assert all(t >= 0 for t in times)

    @pytest.mark.parametrize("base_axis", ["height", "auto"])
    def test_rsm_task_times_skip_sizes_below_the_volume_floor(self, base_axis):
        """One task per slice RSM mines: sizes too small for ``min_volume``
        are neither mined nor timed."""
        from repro.datasets import random_tensor
        from repro.rsm import rsm_mine

        dataset = random_tensor((6, 5, 8), 0.7, seed=3)
        thresholds = Thresholds(1, 1, 1, min_volume=120)
        times = measure_rsm_task_times(dataset, thresholds, base_axis=base_axis)
        mined = rsm_mine(dataset, thresholds, base_axis=base_axis)
        assert len(times) == mined.stats["rs_slices_mined"]
        if base_axis == "height":
            assert len(times) == 42  # the 42 subsets of >= 3 of the 6 heights

    def test_rsm_infeasible_gives_empty(self, paper_ds):
        assert measure_rsm_task_times(paper_ds, Thresholds(9, 9, 9)) == []

    def test_cubeminer_task_times(self, paper_ds, paper_thresholds):
        times = measure_cubeminer_task_times(
            paper_ds, paper_thresholds, min_tasks=4
        )
        assert all(t >= 0 for t in times)

    def test_simulated_pipeline_end_to_end(self, paper_ds, paper_thresholds):
        times = measure_rsm_task_times(paper_ds, paper_thresholds)
        response = simulate_response_times(times, [1, 2, 4])
        assert response[4] <= response[2] <= response[1]
