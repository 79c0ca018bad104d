"""Instrumentation overhead guard for the CubeMiner hot path.

The observability layer (``repro.obs``) promises near-zero overhead
when no sink is attached: the always-on counters are plain attribute
increments and every event/progress hook hides behind an ``is None``
check, so the default path constructs nothing.  Attaching a sink buys
the full typed event stream (one node event plus the prune events per
tree node) for a bounded premium.

This benchmark measures that premium:

* **base**      — ``cubeminer_mine`` with no sink attached (counters
  only, the default for every user);
* **null-sink** — the same run with a no-op event sink, i.e. the full
  per-node/per-prune event construction cost.

The two configurations are interleaved ``--repeats`` times on the CPU
clock (``time.process_time`` — immune to other processes' load) and
the reported overhead is the *median* of the per-pair ratios: adjacent
runs share machine conditions, so a load burst inflates both sides of
a pair instead of skewing the ratio, and the median discards the pairs
a burst still manages to split.  With ``--check``, the measurement is
repeated up to ``--rounds`` times and the process exits non-zero only
when *every* round exceeds ``--threshold`` percent — a real regression
fails all rounds deterministically, while a one-off scheduler blip
does not fail the build.  CI runs exactly that.  CubeMiner runs its
closure checks only at leaves and scans cutters with ``CutterIndex``,
so it makes no kernel call per interior node.  A tree node costs a few
microseconds of pure Python, and the events' fixed cost per node is a
large share of that.

Usage::

    PYTHONPATH=src python benchmarks/bench_overhead.py
    PYTHONPATH=src python benchmarks/bench_overhead.py --check --threshold 5
    PYTHONPATH=src python benchmarks/bench_overhead.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.core.constraints import Thresholds
from repro.cubeminer.algorithm import cubeminer_mine
from repro.datasets import random_tensor
from repro.obs import null_sink


def _workload():
    """A CubeMiner run dominated by real mining work.

    Dense-ish mid-size tensor: tens of thousands of tree nodes, each
    scanning cutters, with the closure checks at its leaves — the regime
    users actually run.
    """
    dataset = random_tensor((8, 12, 48), 0.45, seed=11)
    thresholds = Thresholds(2, 2, 2)
    return dataset, thresholds


def _time_once(dataset, thresholds, sink) -> float:
    start = time.process_time()
    cubeminer_mine(dataset, thresholds, on_event=sink)
    return time.process_time() - start


def measure(repeats: int) -> dict:
    dataset, thresholds = _workload()
    # Warm up both paths (imports, mask grids, branch caches).
    _time_once(dataset, thresholds, None)
    _time_once(dataset, thresholds, null_sink)
    # Interleave the two configurations and judge each adjacent pair on
    # its own: a load burst inflates both halves of a pair, so the
    # per-pair ratio stays honest, and the median drops the pairs a
    # burst still manages to split.
    base_times, sunk_times, ratios = [], [], []
    for _ in range(repeats):
        base = _time_once(dataset, thresholds, None)
        sunk = _time_once(dataset, thresholds, null_sink)
        base_times.append(base)
        sunk_times.append(sunk)
        ratios.append(sunk / base)
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    result = cubeminer_mine(dataset, thresholds)
    return {
        "workload": {
            "shape": list(dataset.shape),
            "nodes_visited": result.stats["nodes_visited"],
            "n_cubes": len(result),
        },
        "repeats": repeats,
        "base_seconds": min(base_times),
        "null_sink_seconds": min(sunk_times),
        "pair_overheads_pct": [(r - 1.0) * 100.0 for r in ratios],
        "overhead_pct": overhead_pct,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved base/null-sink pairs per round")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="max tolerated overhead percent for --check")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when overhead exceeds --threshold in "
                             "every measurement round")
    parser.add_argument("--rounds", type=int, default=3,
                        help="max measurement rounds for --check; the run "
                             "passes as soon as one round is under the "
                             "threshold (without --check, exactly one round "
                             "is measured)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)

    rounds = max(1, args.rounds) if args.check else 1
    data = None
    for attempt in range(1, rounds + 1):
        data = measure(args.repeats)
        if attempt == 1:
            print(
                f"workload : cubeminer on "
                f"{'x'.join(map(str, data['workload']['shape']))}"
                f" ({data['workload']['nodes_visited']} nodes,"
                f" {data['workload']['n_cubes']} cubes)"
            )
        print(f"base     : {data['base_seconds'] * 1e3:8.2f} ms CPU (no sink)")
        print(f"null sink: {data['null_sink_seconds'] * 1e3:8.2f} ms CPU")
        print(f"overhead : {data['overhead_pct']:+.2f}% (median of "
              f"{data['repeats']} interleaved pairs)")
        if not args.check or data["overhead_pct"] <= args.threshold:
            break
        if attempt < rounds:
            print(f"round {attempt}/{rounds} over {args.threshold:g}% — "
                  f"re-measuring")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")
        print(f"json in {args.json}")
    if args.check and data["overhead_pct"] > args.threshold:
        print(
            f"FAIL: instrumentation overhead {data['overhead_pct']:.2f}% exceeds "
            f"threshold {args.threshold:g}% in all {rounds} rounds",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
