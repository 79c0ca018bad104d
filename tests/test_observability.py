"""Tests for the instrumentation layer (repro.obs).

Covers the acceptance criteria of the observability redesign:

* always-on ``MiningMetrics`` prune counters agree with ``trace_tree``'s
  ``PruneReason`` tallies (paper Figure 1 example + random datasets);
* the typed event stream is consistent with the counters;
* progress callbacks, cooperative cancellation and deadlines work for
  CubeMiner, RSM, the reference oracle and both parallel variants, with
  partial results attached to ``MiningCancelled``;
* ``MiningStats`` keeps dict-style access and round-trips through JSON;
* the CLI surfaces ``--deadline`` (exit 124) and ``--metrics-json``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.conftest import random_dataset
from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.result import MiningResult, MiningStats
from repro.options import ParallelOptions
from repro.cubeminer import HeightOrder, cubeminer_mine, prune_counts, trace_tree
from repro.obs import (
    CollectingSink,
    MiningCancelled,
    MiningMetrics,
    ProgressController,
)
from repro.rsm.algorithm import rsm_mine

ALL_MINERS = ("cubeminer", "rsm", "reference", "parallel-cubeminer", "parallel-rsm")


# ----------------------------------------------------------------------
# Metrics parity with the traced tree
# ----------------------------------------------------------------------
class TestTraceParity:
    def test_paper_example_prune_counts(self, paper_ds, paper_thresholds):
        """Per-lemma counters match Figure 1's tree, rule by rule."""
        result = cubeminer_mine(
            paper_ds, paper_thresholds, order=HeightOrder.ORIGINAL
        )
        traced = prune_counts(trace_tree(paper_ds, paper_thresholds))
        assert result.stats.metrics.prune_counts() == traced
        # The live counters and trace_tree come from one run's events,
        # so their equality alone cannot catch a wrong tally: pin
        # Figure 1's tree rule by rule.
        assert traced == {
            "pruned_min_h": 14,
            "pruned_min_r": 10,
            "pruned_min_c": 7,
            "pruned_min_volume": 0,
            "pruned_left_track": 5,
            "pruned_middle_track": 4,
            "pruned_height_unclosed": 4,
            "pruned_row_unclosed": 2,
        }

    def test_paper_example_nodes_and_leaves(self, paper_ds, paper_thresholds):
        result = cubeminer_mine(
            paper_ds, paper_thresholds, order=HeightOrder.ORIGINAL
        )
        root = trace_tree(paper_ds, paper_thresholds)
        live_nodes = [n for n in root.iter_nodes() if n.pruned is None]
        assert len(live_nodes) == 30
        assert result.stats["nodes_visited"] == len(live_nodes)
        assert result.stats["leaves_emitted"] == len(root.leaves())
        assert result.stats["leaves_emitted"] == len(result)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_datasets_prune_counts(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dataset = random_dataset(rng, max_dim=5)
        thresholds = Thresholds(1, 1, 1)
        result = cubeminer_mine(dataset, thresholds, order=HeightOrder.ORIGINAL)
        traced = prune_counts(trace_tree(dataset, thresholds))
        assert result.stats.metrics.prune_counts() == traced

    def test_total_pruned_sums_the_prune_fields(self, paper_ds, paper_thresholds):
        metrics = cubeminer_mine(paper_ds, paper_thresholds).stats.metrics
        assert metrics.total_pruned() == sum(metrics.prune_counts().values())


# ----------------------------------------------------------------------
# Event stream
# ----------------------------------------------------------------------
class TestEvents:
    def test_cubeminer_event_stream(self, paper_ds, paper_thresholds):
        sink = CollectingSink()
        result = cubeminer_mine(paper_ds, paper_thresholds, on_event=sink)
        assert sink.events[0].kind == "start"
        assert sink.events[-1].kind == "done"
        assert sink.events[-1].cancelled is False
        assert sink.events[-1].n_cubes == len(result)
        metrics = result.stats.metrics
        assert len(sink.of_kind("node")) == metrics.nodes_visited
        assert len(sink.of_kind("prune")) == metrics.total_pruned()
        leaf_nodes = [e for e in sink.of_kind("node") if e.is_leaf]
        assert len(leaf_nodes) == metrics.leaves_emitted

    def test_prune_events_tally_by_reason(self, paper_ds, paper_thresholds):
        sink = CollectingSink()
        result = cubeminer_mine(paper_ds, paper_thresholds, on_event=sink)
        by_reason: dict[str, int] = {}
        for event in sink.of_kind("prune"):
            by_reason[event.reason] = by_reason.get(event.reason, 0) + 1
        expected = {
            k: v for k, v in result.stats.metrics.prune_counts().items() if v
        }
        assert by_reason == expected

    def test_rsm_slice_events(self, paper_ds, paper_thresholds):
        sink = CollectingSink()
        result = rsm_mine(paper_ds, paper_thresholds, on_event=sink)
        slices = sink.of_kind("slice")
        # minH=2 over 3 heights: {h1h2} {h1h3} {h2h3} {h1h2h3}.
        assert len(slices) == 4
        assert result.stats["representative_slices"] == 4
        assert sum(e.n_kept for e in slices) == len(result)

    @pytest.mark.parametrize("algorithm", ALL_MINERS)
    def test_every_algorithm_emits_start_and_done(
        self, algorithm, paper_ds, paper_thresholds
    ):
        sink = CollectingSink()
        mine(paper_ds, paper_thresholds, algorithm=algorithm, on_event=sink)
        assert sink.events[0].kind == "start"
        assert sink.events[-1].kind == "done"
        # The start event records the full threshold tuple incl. volume.
        assert sink.events[0].thresholds == (2, 2, 2, 1)


# ----------------------------------------------------------------------
# Progress, cancellation, deadlines
# ----------------------------------------------------------------------
class TestCancellation:
    @pytest.mark.parametrize("algorithm", ALL_MINERS)
    def test_zero_deadline_cancels_any_algorithm(
        self, algorithm, paper_ds, paper_thresholds
    ):
        with pytest.raises(MiningCancelled) as excinfo:
            mine(paper_ds, paper_thresholds, algorithm=algorithm, deadline=0)
        exc = excinfo.value
        assert "deadline" in str(exc)
        assert isinstance(exc.partial, MiningResult)
        assert len(exc.partial) == 0
        assert isinstance(exc.metrics, MiningMetrics)
        assert exc.partial.stats.metrics is exc.metrics

    def test_cancel_from_progress_callback_keeps_partial(self):
        rng = np.random.default_rng(7)
        dataset = random_dataset(rng, max_dim=6, density_range=(0.6, 0.8))
        thresholds = Thresholds(1, 1, 1)
        full = cubeminer_mine(dataset, thresholds)
        assert len(full) >= 3, "workload too small for a mid-run cancel"

        updates = []

        def cancel_at_two(update):
            updates.append(update)
            if update.metrics.leaves_emitted >= 2:
                controller.cancel()

        controller = ProgressController(
            on_progress=cancel_at_two, check_every=1, min_interval=0
        )
        with pytest.raises(MiningCancelled) as excinfo:
            cubeminer_mine(dataset, thresholds, progress=controller)
        exc = excinfo.value
        assert exc.reason == "cancelled by caller"
        assert len(exc.partial) == 2
        assert exc.metrics.nodes_visited > 0
        assert updates, "progress callback never ran"

    def test_progress_updates_carry_phase_and_metrics(
        self, paper_ds, paper_thresholds
    ):
        updates = []
        controller = ProgressController(
            on_progress=updates.append, check_every=1, min_interval=0
        )
        cubeminer_mine(paper_ds, paper_thresholds, progress=controller)
        assert updates
        assert all(u.phase == "cubeminer" for u in updates)
        assert updates[-1].metrics.nodes_visited > 0
        assert "cubeminer" in updates[-1].format()

    def test_rsm_cancel_mid_slices(self, paper_ds, paper_thresholds):
        def cancel_after_first_slice(update):
            if update.metrics.rs_slices_mined >= 1:
                controller.cancel()

        controller = ProgressController(
            on_progress=cancel_after_first_slice, check_every=1, min_interval=0
        )
        with pytest.raises(MiningCancelled) as excinfo:
            rsm_mine(paper_ds, paper_thresholds, progress=controller)
        exc = excinfo.value
        assert exc.partial is not None
        assert exc.metrics.rs_slices_mined >= 1

    def test_parallel_pool_deadline(self):
        rng = np.random.default_rng(42)
        dataset = random_dataset(rng, max_dim=6, density_range=(0.5, 0.7))
        with pytest.raises(MiningCancelled) as excinfo:
            mine(
                dataset,
                Thresholds(1, 1, 1),
                algorithm="parallel-cubeminer",
                deadline=0,
                options=ParallelOptions(n_workers=2),
            )
        assert excinfo.value.partial is not None
        assert "n_tasks" in excinfo.value.partial.stats

    def test_controller_reuse_counts_both_runs(self, paper_ds, paper_thresholds):
        metrics = MiningMetrics()
        cubeminer_mine(paper_ds, paper_thresholds, metrics=metrics)
        once = metrics.nodes_visited
        cubeminer_mine(paper_ds, paper_thresholds, metrics=metrics)
        assert metrics.nodes_visited == 2 * once


# ----------------------------------------------------------------------
# Parallel metric aggregation
# ----------------------------------------------------------------------
def _parity_cases():
    """A dense case and a sparse one whose diced root is smaller."""
    rng = np.random.default_rng(3)
    dense = random_dataset(rng, max_dim=6, density_range=(0.5, 0.7))
    # Sparse noise around a block: dicing prunes part of the root.
    data = rng.random((5, 8, 12)) < 0.2
    data[:3, :4, :5] = True
    sparse = Dataset3D(data)
    return [
        (dense, Thresholds(1, 1, 1), False),
        (sparse, Thresholds(2, 2, 2), True),
    ]


class TestParallelAggregation:
    def test_pool_counters_match_sequential(self):
        for dataset, thresholds, diced in _parity_cases():
            seq = mine(dataset, thresholds, algorithm="cubeminer")
            par = mine(
                dataset,
                thresholds,
                algorithm="parallel-cubeminer",
                options=ParallelOptions(n_workers=2),
            )
            kept = tuple(seq.stats["dice_kept_shape"])
            assert (kept != dataset.shape) == diced
            assert par.stats["dice_kept_shape"] == list(kept)
            assert set(par.cubes) == set(seq.cubes)
            # Expansion and workers run one engine over the sequential
            # tree, so every work counter matches exactly.  Stack depth
            # and closure-cache tallies depend on the chunking, and the
            # pool-only counters have no sequential counterpart.
            excluded = {"max_stack_depth", "workers_merged"}
            work = [
                name
                for name in seq.stats.metrics.as_dict()
                if name not in excluded
                and not name.startswith(("closure_cache_", "shm_"))
            ]
            assert {"kernel_ops", "sons_left", "pruned_min_c"} <= set(work)
            for name in work:
                assert par.stats[name] == seq.stats[name], name

    def test_inline_parallel_emits_one_node_event_per_node(self):
        sparse, thresholds, _ = _parity_cases()[1]
        sink = CollectingSink()
        par = mine(
            sparse,
            thresholds,
            algorithm="parallel-cubeminer",
            options=ParallelOptions(n_workers=1),
            on_event=sink,
        )
        # The frontier expansion emits its nodes too.
        assert par.stats["n_tasks"] > 1
        assert len(sink.of_kind("node")) == par.stats["nodes_visited"]

    def test_pool_rsm_aggregates_slices(self):
        rng = np.random.default_rng(5)
        dataset = random_dataset(rng, max_dim=6, density_range=(0.5, 0.7))
        thresholds = Thresholds(1, 1, 1)
        par = mine(
            dataset,
            thresholds,
            algorithm="parallel-rsm",
            options=ParallelOptions(n_workers=2),
        )
        if par.stats["n_tasks"] > 1:
            assert par.stats["workers_merged"] > 0
        assert par.stats["rs_slices_mined"] == par.stats["n_tasks"]


# ----------------------------------------------------------------------
# MiningStats: mapping protocol + JSON schema
# ----------------------------------------------------------------------
class TestMiningStats:
    def test_dict_style_access(self, paper_ds, paper_thresholds):
        stats = cubeminer_mine(paper_ds, paper_thresholds).stats
        assert stats["nodes_visited"] > 0
        assert "nodes_visited" in stats
        assert dict(stats)["leaves_emitted"] == stats["leaves_emitted"]
        with pytest.raises(KeyError):
            stats["no_such_counter"]

    def test_round_trip(self, paper_ds, paper_thresholds):
        stats = rsm_mine(paper_ds, paper_thresholds).stats
        clone = MiningStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        assert clone["representative_slices"] == stats["representative_slices"]
        assert clone.metrics.rs_slices_mined == stats.metrics.rs_slices_mined

    def test_legacy_flat_dict_coerced(self):
        stats = MiningStats.from_dict({"n_tasks": 7, "n_workers": 2})
        assert stats["n_tasks"] == 7
        assert stats.metrics is None
        assert stats.to_dict()["extra"] == {"n_tasks": 7, "n_workers": 2}

    def test_payload_with_removed_counter_loads(self, paper_ds, paper_thresholds):
        # Results stored before the kernel_fallbacks counter was removed.
        payload = rsm_mine(paper_ds, paper_thresholds).stats.to_dict()
        payload["metrics"]["kernel_fallbacks"] = 1
        stats = MiningStats.from_dict(payload)
        assert stats.metrics.rs_slices_mined == 4
        assert "kernel_fallbacks" not in stats.metrics.as_dict()
        metrics = MiningMetrics.from_dict({"nodes_visited": 3, "kernel_fallbacks": 2})
        assert metrics == MiningMetrics(nodes_visited=3)

    def test_json_io_preserves_metrics(self, paper_ds, paper_thresholds, tmp_path):
        from repro.io import result_from_json, result_to_json

        result = cubeminer_mine(paper_ds, paper_thresholds)
        payload = result_to_json(result, paper_ds)
        loaded = result_from_json(payload)
        assert loaded.stats["nodes_visited"] == result.stats["nodes_visited"]
        assert loaded.stats.metrics.prune_counts() == (
            result.stats.metrics.prune_counts()
        )

    def test_metrics_merge_sums_and_maxes(self):
        a = MiningMetrics(nodes_visited=3, max_stack_depth=5)
        b = MiningMetrics(nodes_visited=4, max_stack_depth=2)
        a.merge(b)
        assert a.nodes_visited == 7
        assert a.max_stack_depth == 5


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.fixture
    def dataset_path(self, paper_ds, tmp_path):
        path = tmp_path / "paper.npz"
        paper_ds.save_npz(str(path))
        return str(path)

    def test_metrics_json_flag(self, dataset_path, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.json"
        code = main(
            ["mine", "--input", dataset_path, "--show", "0",
             "--metrics-json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["algorithm"].startswith("cubeminer")
        assert payload["stats"]["metrics"]["nodes_visited"] > 0

    def test_deadline_exits_124_with_partial_metrics(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["mine", "--input", dataset_path, "--show", "0",
                 "--deadline", "0", "--metrics-json", str(out)]
            )
        assert excinfo.value.code == 124
        assert "cancelled" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["n_cubes"] == 0

    def test_progress_flag_prints_to_stderr(self, dataset_path, capsys):
        from repro.cli import main

        code = main(
            ["mine", "--input", dataset_path, "--show", "0", "--progress"]
        )
        assert code == 0
        assert "[progress]" in capsys.readouterr().err
