"""Hot-path performance guard: slice folding and the shm hand-off.

The performance layer makes two machine-portable promises:

* **RSM prefix folding** — RSM's subset walk
  (:func:`repro.rsm.slices.iter_size_slices`), which folds each node
  from its parent's slice, must stay at least ``fold_speedup_floor``
  times faster than the same walk folding every node it visits from
  scratch (one :func:`repro.rsm.slices.representative_slice` call per
  node; both walks visit the same nodes and run the same dice test);
* **shared-memory hand-off** — attaching a worker to a published
  dataset must stay at least ``shm_handoff_speedup_floor`` times faster
  than unpickling a copy.

Absolute seconds vary wildly across CI runners, so the committed
baseline (``BENCH_perf.json``) gates only quantities that do not:

* **work counters** (slices mined, 2D patterns, cubes, payload bytes)
  are exact-matched — they are functions of
  the seeded workload alone, identical on every machine, so
  any drift means the algorithm changed and the baseline must be
  refreshed deliberately (``--update-baseline``);
* **speedup ratios** are measured as the median over interleaved
  pairs on the CPU clock (the two configurations of a pair share
  machine conditions, so load bursts cancel) and compared against the
  floors and the baseline ratios with ``--tolerance`` percent slack;
  with ``--check`` the measurement is retried up to ``--rounds`` times
  and only a run that fails every round fails the build.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py
    PYTHONPATH=src python benchmarks/bench_perf.py --check \
        --baseline BENCH_perf.json --tolerance 25
    PYTHONPATH=src python benchmarks/bench_perf.py --update-baseline \
        --baseline BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import sys
import time

from common import large_synthetic_bench, synthetic_heights_bench, thresholds_for
from repro.core.constraints import Thresholds
from repro.cubeminer.algorithm import cubeminer_mine
from repro.parallel import ShmManager, attach_dataset, publish_dataset
from repro.rsm.algorithm import rsm_mine
from repro.rsm.slices import (
    iter_size_slices,
    min_subset_size,
    representative_slice,
    walk_subsets,
)

#: Bump when the file layout changes incompatibly; ``--check`` refuses
#: to compare baselines with a different version.
SCHEMA_VERSION = 2

#: Ratio gates: machine-portable floors the measured speedups must
#: clear (before tolerance is applied to the baseline ratios).
FOLD_SPEEDUP_FLOOR = 1.2
#: The shared-memory hand-off must beat the pickled-dataset hand-off.
#: Attach latency is far more machine-variable than the algorithmic
#: ratios (it is dominated by page mapping and hashing, not mining), so
#: this workload gates on the floor alone (``baseline_relative: false``)
#: and keeps the baseline ratio as documentation.
SHM_SPEEDUP_FLOOR = 1.05

#: Inner iterations per timed hand-off sample (one hand-off is
#: sub-millisecond; batching keeps the clock resolution honest).
_SHM_BATCH = 10
#: Walks per timed fold sample (the pruned walk takes milliseconds).
_FOLD_BATCH = 20

_CUBEMINER_THRESHOLDS = Thresholds(8, 8, 10)
_RSM_MIN_H = 4


def _cubeminer_workload():
    dataset = large_synthetic_bench()
    dataset.ones_grid()  # build the mask grid so timing excludes one-time setup
    return dataset, _CUBEMINER_THRESHOLDS


def _rsm_workload():
    dataset = synthetic_heights_bench(12)
    dataset.ones_grid()
    return dataset, thresholds_for(dataset, _RSM_MIN_H, 4, 20)


def _measure_rsm(repeats: int) -> dict:
    """Prefix-sharing vs from-scratch folds over one walk, plus a
    full-run counter set."""
    dataset, thresholds = _rsm_workload()
    min_size = min_subset_size(thresholds, dataset.shape)

    def from_scratch(heights: int, _prefix: "list[int] | None") -> list[int]:
        return representative_slice(dataset, heights).row_masks()

    def fold_oneshot():
        start = time.process_time()
        for _ in range(_FOLD_BATCH):
            walk = walk_subsets(from_scratch, dataset.n_heights, min_size, thresholds)
            n = sum(1 for _ in walk)
        return time.process_time() - start, n

    def fold_incremental():
        start = time.process_time()
        for _ in range(_FOLD_BATCH):
            n = sum(1 for _ in iter_size_slices(dataset, thresholds, min_size))
        return time.process_time() - start, n

    fold_oneshot()  # warm up
    fold_incremental()
    one_times, inc_times, ratios = [], [], []
    for _ in range(repeats):
        one_seconds, n_one = fold_oneshot()
        inc_seconds, n_inc = fold_incremental()
        if n_one != n_inc:
            raise AssertionError("slice enumeration count mismatch")
        one_times.append(one_seconds)
        inc_times.append(inc_seconds)
        ratios.append(one_seconds / inc_seconds)
    start = time.process_time()
    result = rsm_mine(dataset, thresholds)
    mine_seconds = time.process_time() - start
    metrics = result.stats.metrics
    return {
        "counters": {
            "rs_slices_mined": metrics.rs_slices_mined,
            "rs_slices_skipped": metrics.rs_slices_skipped,
            "fcp_patterns": metrics.fcp_patterns,
            "postprune_checked": metrics.postprune_checked,
            "n_cubes": len(result),
        },
        "oneshot_seconds": min(one_times) / _FOLD_BATCH,
        "incremental_seconds": min(inc_times) / _FOLD_BATCH,
        "mine_seconds": mine_seconds,
        "fold_speedup": statistics.median(ratios),
    }


def _measure_shm(repeats: int) -> dict:
    """Pickled-dataset vs shared-memory worker hand-off; asserts parity.

    The copy path models the legacy pool initializer (pickle the whole
    dataset, unpickle in the worker, build the mask grid from the
    tensor); the shm path models the new one (attach to the published
    segment, adopt its words, build the mask grid from them).  The per-worker tensor
    payloads are exact-match counters: the copy path ships every cell,
    the shm path ships zero — only an O(1) ref crosses the pickle
    boundary (asserted under 512 bytes).  Mining the attached dataset
    must yield the bit-identical cube list.
    """
    dataset, thresholds = _cubeminer_workload()
    l, n, m = dataset.shape

    def copy_handoff():
        start = time.process_time()
        for _ in range(_SHM_BATCH):
            clone = pickle.loads(pickle.dumps(dataset))
            clone.ones_grid()
        return time.process_time() - start

    with ShmManager() as manager:
        ref = publish_dataset(dataset, manager)
        ref_bytes = len(pickle.dumps(ref))
        if ref_bytes >= 512:
            raise AssertionError(
                f"ShmDatasetRef pickles to {ref_bytes} bytes; the hand-off "
                "is supposed to be O(1)"
            )

        def shm_handoff():
            start = time.process_time()
            for _ in range(_SHM_BATCH):
                attachment = attach_dataset(ref)
                attachment.dataset.ones_grid()
                attachment.close()
            return time.process_time() - start

        copy_handoff()  # warm both paths
        shm_handoff()
        copy_times, shm_times, ratios = [], [], []
        for _ in range(repeats):
            copy_seconds = copy_handoff()
            shm_seconds = shm_handoff()
            copy_times.append(copy_seconds)
            shm_times.append(shm_seconds)
            ratios.append(copy_seconds / shm_seconds)
        attachment = attach_dataset(ref)
        shm_result = cubeminer_mine(attachment.dataset, thresholds)
        direct_result = cubeminer_mine(dataset, thresholds)
        attachment.close()
    if shm_result.cubes != direct_result.cubes:
        raise AssertionError(
            "mining an shm-attached dataset produced a different cube list"
        )
    return {
        "counters": {
            "tensor_payload_bytes_copy": l * n * m,
            "tensor_payload_bytes_shm": 0,
            "n_cubes": len(shm_result),
        },
        "copy_seconds": min(copy_times) / _SHM_BATCH,
        "shm_seconds": min(shm_times) / _SHM_BATCH,
        "shm_handoff_speedup": statistics.median(ratios),
    }


def measure(repeats: int) -> dict:
    """All perf series."""
    return {
        "rsm-prefix-fold": _measure_rsm(repeats),
        "parallel-shm": _measure_shm(repeats),
    }


def make_baseline(repeats: int) -> dict:
    """Measure once and build the committed baseline payload."""
    s = measure(repeats)
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": "benchmarks/bench_perf.py",
        "workloads": {
            "rsm-prefix-fold": {
                "dataset": "synthetic_heights_bench(12)",
                "min_h": _RSM_MIN_H,
                "counters": s["rsm-prefix-fold"]["counters"],
                "gates": {"fold_speedup_floor": FOLD_SPEEDUP_FLOOR},
            },
            "parallel-shm": {
                "dataset": "large_synthetic_bench()",
                "thresholds": list(_CUBEMINER_THRESHOLDS.as_tuple()),
                "counters": s["parallel-shm"]["counters"],
                "gates": {"shm_handoff_speedup_floor": SHM_SPEEDUP_FLOOR},
                # Attach latency varies with the machine far more than
                # the mining ratios do; gate on the floor alone.
                "baseline_relative": False,
            },
        },
        "measured": {
            "rsm-prefix-fold": {
                "oneshot_seconds": round(s["rsm-prefix-fold"]["oneshot_seconds"], 4),
                "incremental_seconds": round(s["rsm-prefix-fold"]["incremental_seconds"], 4),
                "mine_seconds": round(s["rsm-prefix-fold"]["mine_seconds"], 4),
                "fold_speedup": round(s["rsm-prefix-fold"]["fold_speedup"], 3),
            },
            "parallel-shm": {
                "copy_seconds": round(s["parallel-shm"]["copy_seconds"], 6),
                "shm_seconds": round(s["parallel-shm"]["shm_seconds"], 6),
                "shm_handoff_speedup": round(s["parallel-shm"]["shm_handoff_speedup"], 3),
            },
        },
    }


def check_against_baseline(series: dict, baseline: dict, tolerance: float) -> list[str]:
    """Return the gate failures of one measurement round (empty = pass)."""
    failures: list[str] = []
    if baseline.get("schema_version") != SCHEMA_VERSION:
        return [
            f"baseline schema_version {baseline.get('schema_version')!r} != "
            f"{SCHEMA_VERSION}; refresh with --update-baseline"
        ]
    slack = 1.0 - tolerance / 100.0
    measured_base = baseline.get("measured", {})
    for name, data in series.items():
        workload = baseline["workloads"].get(name)
        if workload is None:
            failures.append(f"{name}: missing from baseline; refresh it")
            continue
        if data["counters"] != workload["counters"]:
            failures.append(
                f"{name}: work counters drifted from baseline "
                f"(got {data['counters']}, baseline {workload['counters']}); "
                "an intended algorithm change needs --update-baseline"
            )
        for gate_name, floor in workload["gates"].items():
            ratio_key = gate_name.removesuffix("_floor")
            measured = data[ratio_key]
            target = floor
            baseline_ratio = measured_base.get(name, {}).get(ratio_key)
            if not workload.get("baseline_relative", True):
                baseline_ratio = None  # floor-only gate
            if baseline_ratio is not None:
                target = max(target, baseline_ratio * slack)
            if measured < target:
                failures.append(
                    f"{name}: {ratio_key} {measured:.2f}x below gate "
                    f"{target:.2f}x (floor {floor:g}x, baseline "
                    f"{baseline_ratio if baseline_ratio is not None else 'n/a'}, "
                    f"tolerance {tolerance:g}%)"
                )
    return failures


def _print_series(series: dict) -> None:
    rsm = series["rsm-prefix-fold"]
    print(f"rsm       : one-shot {rsm['oneshot_seconds'] * 1e3:8.1f} ms"
          f" incremental {rsm['incremental_seconds'] * 1e3:8.1f} ms"
          f" fold speedup {rsm['fold_speedup']:.2f}x"
          f" ({rsm['counters']['rs_slices_mined']} slices,"
          f" {rsm['counters']['n_cubes']} cubes)")
    shm = series["parallel-shm"]
    print(f"shm       : pickled {shm['copy_seconds'] * 1e3:8.1f} ms"
          f" shm {shm['shm_seconds'] * 1e3:8.1f} ms"
          f" hand-off speedup {shm['shm_handoff_speedup']:.2f}x"
          f" ({shm['counters']['tensor_payload_bytes_copy']} payload bytes -> "
          f"{shm['counters']['tensor_payload_bytes_shm']},"
          f" {shm['counters']['n_cubes']} cubes)")


def sweep() -> None:
    """Standalone report for run_all.py."""
    _print_series(measure(repeats=3))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved measurement pairs per series")
    parser.add_argument("--rounds", type=int, default=3,
                        help="max measurement rounds for --check; the gate "
                             "passes as soon as one round passes")
    parser.add_argument("--baseline", default="BENCH_perf.json", metavar="PATH",
                        help="committed baseline file (default BENCH_perf.json)")
    parser.add_argument("--tolerance", type=float, default=25.0,
                        help="allowed percent regression of the speedup "
                             "ratios relative to the baseline ratios")
    parser.add_argument("--check", action="store_true",
                        help="compare against --baseline and exit 1 on "
                             "regression")
    parser.add_argument("--update-baseline", action="store_true",
                        help="measure and rewrite --baseline")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write this run's measurements as JSON")
    args = parser.parse_args(argv)

    if args.update_baseline:
        payload = make_baseline(args.repeats)
        with open(args.baseline, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"fold {payload['measured']['rsm-prefix-fold']['fold_speedup']}x, "
              f"hand-off {payload['measured']['parallel-shm']['shm_handoff_speedup']}x")
        print(f"baseline written to {args.baseline}")
        return 0

    series = None
    if args.check:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        rounds = max(1, args.rounds)
        failures: list[str] = []
        for attempt in range(1, rounds + 1):
            series = measure(args.repeats)
            _print_series(series)
            failures = check_against_baseline(series, baseline, args.tolerance)
            if not failures:
                print("perf gates pass")
                break
            if attempt < rounds:
                print(f"round {attempt}/{rounds} failed — re-measuring")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
    else:
        series = measure(args.repeats)
        _print_series(series)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"series": series}, handle, indent=2)
            handle.write("\n")
        print(f"json in {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
