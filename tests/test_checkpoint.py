"""Tests for the chunk-level checkpoint journal and resume semantics."""

from __future__ import annotations

import json

import pytest

from repro.core.constraints import Thresholds
from repro.core.reference import reference_mine
from repro.datasets import random_tensor
from repro.obs import CheckpointWritten, MiningCancelled, ProgressController
from repro.parallel import (
    CheckpointJournal,
    CheckpointMismatchError,
    load_journal,
    parallel_cubeminer_mine,
    parallel_rsm_mine,
    run_fingerprint,
)
from repro.parallel.executor import CHUNKS_PER_WORKER, _chunked
from repro.rsm.slices import enumerate_height_subsets

DRIVERS = [parallel_rsm_mine, parallel_cubeminer_mine]


@pytest.fixture(scope="module")
def dataset():
    return random_tensor((6, 12, 18), 0.35, seed=3)


@pytest.fixture(scope="module")
def thresholds():
    return Thresholds(2, 2, 2)


class TestJournalFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fp = run_fingerprint("alg", (2, 3, 4), (1, 1, 1, 1), [[1], [2]])
        with CheckpointJournal.open(
            path, algorithm="alg", fingerprint=fp, n_chunks=2
        ) as journal:
            journal.record(0, [(0b11, 0b101, 0b1)], {"nodes_visited": 7})
            journal.record(1, [], {"nodes_visited": 2})
        header, completed = load_journal(path)
        assert header["fingerprint"] == fp
        assert header["algorithm"] == "alg"
        assert completed[0] == ([(0b11, 0b101, 0b1)], {"nodes_visited": 7})
        assert completed[1] == ([], {"nodes_visited": 2})

    def test_masks_survive_as_exact_bigints(self, tmp_path):
        path = tmp_path / "big.jsonl"
        big = (1 << 300) | 1
        with CheckpointJournal.open(
            path, algorithm="alg", fingerprint="f", n_chunks=1
        ) as journal:
            journal.record(0, [(big, 3, 5)], {})
        _, completed = load_journal(path)
        assert completed[0][0] == [(big, 3, 5)]

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        with CheckpointJournal.open(
            path, algorithm="alg", fingerprint="f", n_chunks=3
        ) as journal:
            journal.record(0, [(1, 1, 1)], {})
            journal.record(1, [(2, 2, 2)], {})
        text = path.read_text()
        path.write_text(text[: len(text) - 9])  # cut into the last record
        header, completed = load_journal(path)
        assert header is not None
        assert set(completed) == {0}  # chunk 1 is simply re-mined

    def test_missing_file_is_empty(self, tmp_path):
        header, completed = load_journal(tmp_path / "absent.jsonl")
        assert header is None and completed == {}

    def test_resume_with_wrong_fingerprint_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CheckpointJournal.open(
            path, algorithm="alg", fingerprint="aaa", n_chunks=2
        ).close()
        with pytest.raises(CheckpointMismatchError, match="different run"):
            CheckpointJournal.open(
                path, algorithm="alg", fingerprint="bbb", n_chunks=2,
                resume=True,
            )

    def test_resume_drops_out_of_range_chunks(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal.open(
            path, algorithm="alg", fingerprint="f", n_chunks=9
        ) as journal:
            journal.record(8, [(1, 1, 1)], {})
        # Forge a resume against a smaller decomposition but the same
        # fingerprint: the out-of-range chunk must be ignored.
        resumed = CheckpointJournal.open(
            path, algorithm="alg", fingerprint="f", n_chunks=2, resume=True
        )
        try:
            assert resumed.completed == {}
        finally:
            resumed.close()

    def test_open_without_resume_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with CheckpointJournal.open(
            path, algorithm="alg", fingerprint="f", n_chunks=1
        ) as journal:
            journal.record(0, [(1, 1, 1)], {})
        CheckpointJournal.open(
            path, algorithm="alg", fingerprint="f", n_chunks=1
        ).close()
        _, completed = load_journal(path)
        assert completed == {}

    def test_fingerprint_sensitivity(self):
        base = run_fingerprint("alg", (2, 3, 4), (1, 1, 1, 1), [[1], [2]])
        assert base != run_fingerprint("other", (2, 3, 4), (1, 1, 1, 1), [[1], [2]])
        assert base != run_fingerprint("alg", (2, 3, 5), (1, 1, 1, 1), [[1], [2]])
        assert base != run_fingerprint("alg", (2, 3, 4), (1, 1, 2, 2), [[1], [2]])
        assert base != run_fingerprint("alg", (2, 3, 4), (1, 1, 1, 1), [[1, 2]])
        assert base == run_fingerprint("alg", (2, 3, 4), (1, 1, 1, 1), [[1], [2]])

    def test_fingerprint_of_masks_past_the_int_str_limit(self):
        # Wider than the 4300 decimal digits int -> str refuses.
        big = (1 << 20000) | 1
        base = run_fingerprint("alg", (2, 3, 4), (1, 1, 1, 1), [[(big, 2)]])
        assert base == run_fingerprint("alg", (2, 3, 4), (1, 1, 1, 1), [[(big, 2)]])
        assert base != run_fingerprint(
            "alg", (2, 3, 4), (1, 1, 1, 1), [[(big ^ 2, 2)]]
        )
        assert base != run_fingerprint("alg", (2, 3, 4), (1, 1, 1, 1), [[big, 2]])


class TestResume:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_interrupted_run_resumes_to_identical_result(
        self, tmp_path, dataset, thresholds, driver
    ):
        """Kill a run mid-flight, resume, and compare with a clean run."""
        clean = driver(dataset, thresholds, n_workers=2)
        path = tmp_path / "run.jsonl"
        controller = ProgressController()
        checkpoints = []

        def sink(event):
            if isinstance(event, CheckpointWritten):
                checkpoints.append(event)
                if len(checkpoints) >= 2:
                    controller.cancel()

        with pytest.raises(MiningCancelled):
            driver(
                dataset,
                thresholds,
                n_workers=2,
                checkpoint_path=path,
                on_event=sink,
                progress=controller,
            )
        lines_before = path.read_text().splitlines()
        assert len(lines_before) >= 3  # header + >= 2 chunks

        resumed = driver(
            dataset, thresholds, n_workers=2, checkpoint_path=path, resume=True
        )
        assert list(resumed) == list(clean)
        assert (
            resumed.stats.metrics.as_dict() == clean.stats.metrics.as_dict()
        )
        recovery = resumed.stats.extra["recovery"]
        assert recovery["chunks_resumed"] == len(lines_before) - 1
        # Only the uncompleted chunks were re-mined: the journal grew by
        # exactly the missing chunks, with no duplicate chunk ids.
        _, completed = load_journal(path)
        lines_after = path.read_text().splitlines()
        assert len(lines_after) == 1 + len(completed)
        chunk_ids = [
            json.loads(line)["chunk"] for line in lines_after[1:]
        ]
        assert sorted(chunk_ids) == sorted(set(chunk_ids))

    def test_resume_of_complete_journal_mines_nothing(
        self, tmp_path, dataset, thresholds
    ):
        path = tmp_path / "run.jsonl"
        first = parallel_rsm_mine(
            dataset, thresholds, n_workers=2, checkpoint_path=path
        )
        size = path.stat().st_size
        again = parallel_rsm_mine(
            dataset, thresholds, n_workers=2, checkpoint_path=path, resume=True
        )
        assert list(again) == list(first)
        assert again.stats.metrics.as_dict() == first.stats.metrics.as_dict()
        assert again.stats.extra["recovery"]["chunks_resumed"] > 0
        assert path.stat().st_size == size  # nothing re-recorded

    def test_resume_under_different_thresholds_refuses(
        self, tmp_path, dataset, thresholds
    ):
        path = tmp_path / "run.jsonl"
        parallel_rsm_mine(
            dataset, thresholds, n_workers=2, checkpoint_path=path
        )
        with pytest.raises(CheckpointMismatchError):
            parallel_rsm_mine(
                dataset,
                Thresholds(3, 3, 3),
                n_workers=2,
                checkpoint_path=path,
                resume=True,
            )

    @pytest.mark.parametrize("shape", [(6, 12, 18), (1, 4, 5)])
    def test_journal_of_subset_mask_tasks_is_refused(self, tmp_path, shape):
        """A parallel-rsm journal whose tasks were bare subset masks (one
        task per subset, before the walk was split into subtrees) fails
        this run's fingerprint, even where both decompositions hold the
        same single subset; a fresh run on the same path then mines the
        reference cubes."""
        data = random_tensor(shape, 0.35, seed=3)
        th = Thresholds(1, 2, 2)
        chunks = _chunked(
            list(enumerate_height_subsets(shape[0], th.min_h)), 2 * CHUNKS_PER_WORKER
        )
        algorithm = "parallel-rsm-h[dminer]x2"
        fingerprint = run_fingerprint(
            algorithm, shape, th.as_tuple() + (th.min_volume,), chunks
        )
        path = tmp_path / "masks.jsonl"
        with CheckpointJournal.open(
            path, algorithm=algorithm, fingerprint=fingerprint, n_chunks=len(chunks)
        ) as journal:
            journal.record(0, [], {})
        with pytest.raises(CheckpointMismatchError):
            parallel_rsm_mine(data, th, n_workers=2, checkpoint_path=path, resume=True)
        fresh = parallel_rsm_mine(data, th, n_workers=2, checkpoint_path=path)
        assert fresh.algorithm == algorithm
        assert fresh.same_cubes(reference_mine(data, th))

    def test_wide_cubeminer_run_checkpoints_and_resumes(self, tmp_path):
        # A 300-column run's tasks, split over two workers, journal and
        # resume like any other.
        wide = random_tensor((3, 60, 300), 0.2, seed=3)
        thresholds = Thresholds(2, 2, 2)
        clean = parallel_cubeminer_mine(wide, thresholds, n_workers=2)
        path = tmp_path / "wide.jsonl"
        first = parallel_cubeminer_mine(
            wide, thresholds, n_workers=2, checkpoint_path=path
        )
        again = parallel_cubeminer_mine(
            wide,
            thresholds,
            n_workers=2,
            checkpoint_path=path,
            resume=True,
        )
        assert list(first) == list(again) == list(clean)
        assert again.stats.extra["recovery"]["chunks_resumed"] > 0

    def test_inline_run_checkpoints_too(self, tmp_path, dataset, thresholds):
        path = tmp_path / "run.jsonl"
        inline = parallel_rsm_mine(
            dataset, thresholds, n_workers=1, checkpoint_path=path
        )
        header, completed = load_journal(path)
        assert header is not None
        assert sum(len(raw) for raw, _ in completed.values()) == len(inline)
