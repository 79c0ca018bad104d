"""Dynamic FCC maintenance with ``repro.stream``.

Run with::

    python examples/streaming_updates.py

A dataset rarely holds still: cells flip as measurements are corrected,
new time slices arrive, samples get dropped.  The
:class:`repro.stream.IncrementalMaintainer` carries a mined result
through arbitrary delta batches — cell edits and slice appends/drops on
any axis — re-mining only the cubes through the heights a batch
actually touched, and provably lands on exactly what a fresh mine of the edited tensor
returns.  Every batch is journalled in a :class:`repro.stream.DeltaLog`
bound to the base tensor's content fingerprint, so the edit history
replays and verifies end to end.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import Thresholds, mine
from repro.core import verify_result
from repro.datasets import binarize_by_row_mean, synthetic_expression
from repro.io import dataset_fingerprint
from repro.stream import (
    AppendSlice,
    ClearCell,
    DeltaLog,
    DropSlice,
    IncrementalMaintainer,
    SetCell,
    apply_deltas,
)


def main() -> None:
    n_times, n_samples, n_genes = 6, 7, 60
    values = synthetic_expression(n_times, n_samples, n_genes, seed=31)
    base = binarize_by_row_mean(values)
    thresholds = Thresholds(min_h=2, min_r=3, min_c=8)

    result = mine(base, thresholds, algorithm="rsm")
    print(f"base tensor {base.shape}: {result.summary()}")

    # One new time point, a couple of corrected cells, one retired sample.
    new_slice = binarize_by_row_mean(
        synthetic_expression(1, n_samples, n_genes, seed=99)
    ).data[0]
    batches = [
        [SetCell(0, 1, 5), ClearCell(2, 3, 7), SetCell(1, 0, 11)],
        [AppendSlice("height", new_slice, label="t7")],
        [DropSlice("row", 6), ClearCell(1, 2, 2)],
    ]

    maintainer = IncrementalMaintainer(base, result, thresholds)
    with tempfile.TemporaryDirectory() as tmp:
        log = DeltaLog.open(Path(tmp) / "edits.jsonl", dataset=base)

        incremental_total = 0.0
        remine_total = 0.0
        for batch in batches:
            t0 = time.perf_counter()
            maintained = maintainer.apply(batch)
            incremental_total += time.perf_counter() - t0
            log.append(
                batch, fingerprint=dataset_fingerprint(maintainer.dataset)
            )

            t0 = time.perf_counter()
            fresh = mine(maintainer.dataset, thresholds, algorithm="rsm")
            remine_total += time.perf_counter() - t0
            assert maintained.same_cubes(fresh), "maintained must equal re-mine"

            stream = maintained.stats.extra["stream"]
            print(
                f"after {len(batch)} delta(s): {len(maintained):>4} FCCs on "
                f"{maintainer.dataset.shape} "
                f"({stream['cubes_patched']} patched, "
                f"{stream['subsets_remined']} dirty cubes re-mined)"
            )

        print(f"\ncumulative incremental time: {incremental_total:.3f}s")
        print(f"cumulative re-mine time    : {remine_total:.3f}s")

        # The journal replays the whole history onto the base tensor and
        # verifies each step's fingerprint.
        replayed = log.replay(base)
        assert dataset_fingerprint(replayed) == dataset_fingerprint(
            maintainer.dataset
        )
        print(f"delta log: {len(log)} batch(es) replay and verify")

        # A standalone check never hurts: apply_deltas flattens all
        # batches and reports what the maintainer was told.
        flat = [delta for batch in batches for delta in batch]
        application = apply_deltas(base, flat)
        print(
            f"flat application: {application.n_deltas} delta(s), "
            f"{application.dirty_heights.bit_count()} dirty height(s)"
        )

    report = verify_result(maintainer.dataset, maintainer.result, thresholds)
    print(report.summary())


if __name__ == "__main__":
    main()
