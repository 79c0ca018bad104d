"""Streaming benchmark: incremental maintenance and out-of-core mining.

Two parts, two load-bearing numbers:

**Maintainer.** A planted tensor is mined fresh, then evolved through
two small delta batches — a sliding-window *expiry* (drop the oldest
height slice; dirties nothing, so maintenance is the patch pass alone)
and a *cell-edit* batch confined to one height (re-mines only the
cubes through that height, with CubeMiner restricted to it).  Neither
touches a height that a base cube uses, so a third batch, *reclose*,
clears one cell inside each of two base cubes: it re-closes both and
re-mines their heights in the dirty pass.  Each maintained result is
produced by :func:`repro.stream.maintain` and compared against
re-mining the edited tensor from scratch.  ``--check`` gates the expiry
and cell-edit speedups at ``--min-speedup`` (default 2x; the reclose
batch is slower than a fresh mine on this small tensor, so its speedup
is reported, not gated), fails unless the reclose batch re-closed and
re-mined something, and fails on any cube the final merge had to drop
(``shard_merge_dropped``): both maintenance passes emit only closed
frequent cubes, so a drop is a fault in one of them.

**Out-of-core.** A child process (own address space, so ``ru_maxrss``
means something) builds a tensor whose *packed* representation exceeds
a memory budget — streamed to disk slice-by-slice through
:class:`repro.stream.StreamingSliceWriter`, never holding the tensor —
then mines it with :func:`repro.stream.stream_mine` over the
memory-mapped store and reports its own peak RSS.  ``--check`` asserts
``packed_bytes > budget`` and ``peak_rss < budget``: the miner covered
a file bigger than the memory it was allowed to keep resident.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream.py
    PYTHONPATH=src python benchmarks/bench_stream.py --check --rounds 2
    PYTHONPATH=src python benchmarks/bench_stream.py --output BENCH_stream.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: Bump when the report layout changes incompatibly.
SCHEMA = 1

# --- maintainer workload ---------------------------------------------
MAINT_SHAPE = (12, 48, 72)
MAINT_THRESHOLDS = dict(min_h=3, min_r=3, min_c=4)
MAINT_SEED = 23

# --- out-of-core workload --------------------------------------------
OOC_SHAPE = (48, 4096, 16384)
OOC_BLOCK = (48, 24, 48)  # planted all-ones block at the origin
OOC_DENSITY = 0.003
OOC_THRESHOLDS = dict(min_h=47, min_r=8, min_c=12)
OOC_BUDGET_BYTES = 256 * 1024 * 1024
OOC_CHUNK_ROWS = 256
OOC_SEED = 47
GEN_ROWS = 128  # row-chunked slice generation keeps temporaries small


def _maintainer_tensor():
    from repro.datasets import planted_tensor

    planted = planted_tensor(
        MAINT_SHAPE,
        n_blocks=4,
        block_shape=(4, 6, 9),
        background_density=0.08,
        seed=MAINT_SEED,
    )
    return planted.dataset


def bench_maintainer(rounds: int) -> dict:
    from repro.api import mine
    from repro.core.constraints import Thresholds
    from repro.obs.metrics import MiningMetrics
    from repro.stream import ClearCell, DropSlice, SetCell, maintain

    dataset = _maintainer_tensor()
    thresholds = Thresholds(**MAINT_THRESHOLDS)
    base = mine(dataset, thresholds, algorithm="rsm")

    batches = {
        "expire": [DropSlice("height", 0)],
        "edit": [SetCell(0, 0, 0), ClearCell(0, 10, 20), SetCell(0, 40, 60)],
        # (1, 5, 21) lies in the base cube on heights 1, 5, 7, 8 and
        # (11, 0, 11) in the one on heights 5, 7, 8, 11.
        "reclose": [ClearCell(1, 5, 21), ClearCell(11, 0, 11)],
    }
    report: dict = {
        "dataset": f"planted_tensor{MAINT_SHAPE}, seed={MAINT_SEED}",
        "thresholds": MAINT_THRESHOLDS,
        "base_cubes": len(base),
    }
    for name, batch in batches.items():
        maintain_best = fresh_best = float("inf")
        for _ in range(rounds):
            metrics = MiningMetrics()
            start = time.perf_counter()
            new_dataset, maintained = maintain(
                dataset, base, batch, thresholds, metrics=metrics
            )
            maintain_best = min(maintain_best, time.perf_counter() - start)
            start = time.perf_counter()
            fresh = mine(new_dataset, thresholds, algorithm="rsm")
            fresh_best = min(fresh_best, time.perf_counter() - start)
        keys = [(c.heights, c.rows, c.columns) for c in maintained.cubes]
        if keys != [(c.heights, c.rows, c.columns) for c in fresh.cubes]:
            raise AssertionError(f"{name}: maintained != fresh mine")
        report[name] = {
            "deltas": len(batch),
            "maintain_seconds": round(maintain_best, 4),
            "fresh_mine_seconds": round(fresh_best, 4),
            "speedup": round(fresh_best / maintain_best, 2),
            "subsets_remined": metrics.subsets_remined,
            "cubes_patched": metrics.cubes_patched,
            "cubes_reclosed": metrics.cubes_reclosed,
            "nodes_visited": metrics.nodes_visited,
            "shard_merge_dropped": metrics.shard_merge_dropped,
            "cubes": len(maintained),
        }
    return report


# ----------------------------------------------------------------------
# Out-of-core: child process body
# ----------------------------------------------------------------------
def _slice_bits(
    rng: np.random.Generator, k: int, out: np.ndarray
) -> np.ndarray:
    n, m = out.shape
    for r0 in range(0, n, GEN_ROWS):
        r1 = min(n, r0 + GEN_ROWS)
        out[r0:r1] = rng.random((r1 - r0, m)) < OOC_DENSITY
    bl, br, bc = OOC_BLOCK
    if k < bl:
        out[:br, :bc] = True
    return out


def run_outofcore_child(root: str) -> dict:
    import resource

    from repro.core.constraints import Thresholds
    from repro.obs.metrics import MiningMetrics
    from repro.stream import MmapDatasetStore, stream_mine

    l, n, m = OOC_SHAPE
    rng = np.random.default_rng(OOC_SEED)
    store = MmapDatasetStore(root)

    start = time.perf_counter()
    buffer = np.empty((n, m), dtype=bool)  # one reused slice buffer
    with store.writer(OOC_SHAPE) as writer:
        for k in range(l):
            writer.append_slice(_slice_bits(rng, k, buffer))
        fingerprint = writer.seal()
    write_seconds = time.perf_counter() - start
    packed_bytes = store.path(fingerprint).stat().st_size

    dataset = store.load(fingerprint)
    metrics = MiningMetrics()
    start = time.perf_counter()
    result = stream_mine(
        dataset,
        Thresholds(**OOC_THRESHOLDS),
        chunk_rows=OOC_CHUNK_ROWS,
        metrics=metrics,
    )
    mine_seconds = time.perf_counter() - start
    return {
        "shape": list(OOC_SHAPE),
        "packed_bytes": int(packed_bytes),
        "budget_bytes": OOC_BUDGET_BYTES,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024,
        "cubes": len(result),
        "chunks_read": metrics.stream_chunks_read,
        "chunk_rows": OOC_CHUNK_ROWS,
        "write_seconds": round(write_seconds, 2),
        "mine_seconds": round(mine_seconds, 2),
    }


def bench_outofcore() -> dict:
    """Run the out-of-core workload in a fresh process and collect it."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as root:
        proc = subprocess.run(
            [sys.executable, __file__, "--outofcore-child", "--dir", root],
            capture_output=True,
            text=True,
            timeout=1800,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"out-of-core child failed:\n{proc.stdout}\n{proc.stderr}"
            )
        leftovers = list(Path(root).glob(".stream-*.tmp.npy"))
        if leftovers:
            raise RuntimeError(f"writer leaked temp files: {leftovers}")
        return json.loads(proc.stdout)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_bench(rounds: int, skip_outofcore: bool = False) -> dict:
    report = {"schema": SCHEMA, "maintainer": bench_maintainer(rounds)}
    if not skip_outofcore:
        report["outofcore"] = bench_outofcore()
    return report


def check(report: dict, min_speedup: float) -> list[str]:
    failures = []
    labels = {"expire": "expiry", "edit": "cell-edit", "reclose": "reclose"}
    for name, label in labels.items():
        row = report["maintainer"][name]
        if name != "reclose" and row["speedup"] < min_speedup:
            failures.append(
                f"{label} maintenance speedup {row['speedup']}x "
                f"< required {min_speedup}x"
            )
        if row["shard_merge_dropped"]:
            failures.append(
                f"{label} maintenance merge dropped "
                f"{row['shard_merge_dropped']} cube(s); a correct pass drops none"
            )
    reclose = report["maintainer"]["reclose"]
    if not (reclose["cubes_reclosed"] and reclose["nodes_visited"]):
        failures.append(
            "reclose batch no longer exercises the re-close and the dirty pass "
            f"({reclose['cubes_reclosed']} re-closed, "
            f"{reclose['nodes_visited']} nodes visited)"
        )
    ooc = report.get("outofcore")
    if ooc is not None:
        if ooc["packed_bytes"] <= ooc["budget_bytes"]:
            failures.append(
                f"packed file ({ooc['packed_bytes']}) does not exceed the "
                f"budget ({ooc['budget_bytes']}) — workload too small"
            )
        if ooc["peak_rss_bytes"] >= ooc["budget_bytes"]:
            failures.append(
                f"peak RSS {ooc['peak_rss_bytes']} exceeded the budget "
                f"{ooc['budget_bytes']}"
            )
        if ooc["cubes"] < 1:
            failures.append("out-of-core mine found no cubes (expected >=1)")
    return failures


def _print(report: dict) -> None:
    maint = report["maintainer"]
    print("stream benchmark")
    print(f"  dataset             : {maint['dataset']}")
    print(f"  base cubes          : {maint['base_cubes']}")
    for name in ("expire", "edit", "reclose"):
        row = maint[name]
        print(
            f"  {name:<7} maintain    : {row['maintain_seconds']}s vs fresh "
            f"{row['fresh_mine_seconds']}s -> {row['speedup']}x "
            f"({row['subsets_remined']} dirty cubes re-mined, "
            f"{row['cubes_patched']} cubes patched, "
            f"{row['cubes_reclosed']} re-closed, "
            f"{row['nodes_visited']} nodes, "
            f"{row['shard_merge_dropped']} dropped by the merge)"
        )
    ooc = report.get("outofcore")
    if ooc is not None:
        mib = 1024 * 1024
        print(
            f"  out-of-core         : packed {ooc['packed_bytes'] // mib} MiB"
            f" > budget {ooc['budget_bytes'] // mib} MiB,"
            f" peak RSS {ooc['peak_rss_bytes'] // mib} MiB"
        )
        print(
            f"    write {ooc['write_seconds']}s, mine {ooc['mine_seconds']}s,"
            f" {ooc['cubes']} cube(s), {ooc['chunks_read']} chunks read"
        )


def sweep() -> None:
    """Entry point for ``run_all.py``."""
    _print(run_bench(rounds=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write the report as JSON to this path")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the speedup and RSS gates hold")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--rounds", type=int, default=3,
                        help="best-of rounds for the maintainer timings")
    parser.add_argument("--skip-outofcore", action="store_true",
                        help="maintainer part only (fast)")
    parser.add_argument("--outofcore-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.outofcore_child:
        json.dump(run_outofcore_child(args.dir), sys.stdout)
        return 0

    report = run_bench(args.rounds, skip_outofcore=args.skip_outofcore)
    _print(report)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.check:
        failures = check(report, args.min_speedup)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("all stream checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
