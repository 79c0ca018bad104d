"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-cubeminer --seed 1 --seconds 20 --trace 0

Each workload runs in its own process: set-up (every import once, then
inputs and daemon boot, repeated and the median kept), then whole passes over the
workload's fixed operation list for at least ``--seconds`` and at least
enough passes for 100 latency samples, then an independent check of
every operation's answer outside the timed region.  ``--trace 1``
measures untraced passes for half the time and traced passes
(:mod:`spans`) for the other half, and reports per-layer metrics
instead of the end-to-end ones.

Standard output: one ``{"report": ...}`` line (the run's stamp, every
named metric with its unit, counters, spans), then the result object
``{"correct", "attempted", "failed", "metrics"}`` as the last line.
The exit code is 1 when any operation failed.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
#: Latency samples per run, so that the reported tail (p90 or higher)
#: has at least 10 samples beyond it.
MIN_SAMPLES = 100
#: Hard cap on measuring, so a slow machine still exits within 180 s.
MAX_MEASURE_S = 90.0
#: Time metrics are seconds at a reference CPU speed: a run's times are
#: scaled by CALIBRATION_REF_S over the median time a fixed pure-Python
#: loop takes between its passes.  On a shared 2-vCPU machine the raw
#: time of one fixed operation drifted by up to 1.34x between 15 s
#: windows; scaled, by 1.08x.  The raw figures are reported alongside.
CALIBRATION_LOOP = 300_000
CALIBRATION_REF_S = 0.020
#: The loop runs in a child process, so that threads of the program
#: under test (the daemon's on service-mixed) cannot slow it through
#: the GIL and so hide their own cost.
CALIBRATION_CODE = f"""
import statistics, time
def once():
    t0 = time.perf_counter()
    acc = 0
    for i in range({CALIBRATION_LOOP}):
        acc += i * i
    return time.perf_counter() - t0
print(statistics.median([once() for _ in range(3)]))
"""

#: Latency families: op kind -> (metric name, scale to its unit, unit).
KIND_METRICS = {
    "point": ("point_ms", 1e3, "ms"),
    "query": ("query_ms", 1e3, "ms"),
    "cold": ("cold_job_s", 1.0, "s"),
    "update": ("update_s", 1.0, "s"),
    "batch": ("batch_s", 1.0, "s"),
}

#: MiningMetrics work counters reported per pass.
WORK_COUNTERS = (
    "nodes_visited",
    "closure_cache_hits",
    "closure_cache_misses",
    "rs_slices_mined",
    "fcp_patterns",
    "postprune_checked",
    "subsets_remined",
    "cubes_patched",
)


@dataclass
class Passes:
    times: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    #: Calibration loop times, one before the first pass and one after each.
    calibrations: list = field(default_factory=list)

    def extend(self, other: "Passes") -> None:
        self.times += other.times
        self.ops += other.ops
        self.calibrations += other.calibrations

    @property
    def scale(self) -> float:
        """Raw seconds -> seconds at the reference CPU speed."""
        return CALIBRATION_REF_S / statistics.median(self.calibrations)

    def samples(self, kind: str, *, scaled: bool = True) -> list:
        """Latencies of the ``kind`` operations that succeeded."""
        scale = self.scale if scaled else 1.0
        return [
            op.seconds * scale
            for _index, ops in self.ops
            for op in ops
            if op.kind == kind and op.error is None
        ]


def calibration_s() -> float:
    """Median of three timings of a fixed pure-Python loop, in a child."""
    child = subprocess.run(
        [sys.executable, "-I", "-c", CALIBRATION_CODE], capture_output=True, text=True, check=True
    )
    return float(child.stdout)


def settle(ops: list, *, corrupt_first: bool = False) -> None:
    """Digest every answer of a pass and drop it.

    No result object outlives its pass, so the heap, and with it the
    garbage collector's work, stays the same size from pass to pass.
    """
    from workloads import digest

    for m, op in enumerate(ops):
        if op.error is None:
            if corrupt_first and m == 0:
                op.result = corrupt(op.result)
            op.digest = digest(op.result.cubes)
            metrics = op.result.stats.metrics
            # A cache answer carries its source entry's counters.
            if metrics is not None and op.kind != "query":
                op.work = {name: getattr(metrics, name) for name in WORK_COUNTERS}
        op.result = None


def run_passes(workload, start: int, min_passes: int, budget_s: float) -> Passes:
    """Whole passes until both ``min_passes`` and ``budget_s`` are reached."""
    out = Passes()
    began = time.perf_counter()
    index = start
    out.calibrations.append(calibration_s())
    while len(out.times) < min_passes or time.perf_counter() - began < budget_s:
        if workload.max_passes is not None and index >= workload.max_passes:
            break
        if time.perf_counter() - began > MAX_MEASURE_S:
            break
        t0 = time.perf_counter()
        ops = workload.run_pass(index)
        out.times.append(time.perf_counter() - t0)
        settle(ops)
        gc.collect()
        out.calibrations.append(calibration_s())
        out.ops.append((index, ops))
        index += 1
    return out


def percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int) -> "int | None":
    """The highest percentile with at least 10 samples beyond it."""
    if n < 20:
        return None
    return math.floor(100 * (1 - 10 / n))


def corrupt(result):
    """A copy of ``result`` with one cube altered (for the self-test)."""
    from repro import Cube
    from repro.core.result import MiningResult

    cubes = list(result.cubes) or [Cube(1, 1, 1)]
    first = cubes[0]
    cubes[0] = Cube(first.heights, first.rows, first.columns ^ 1)
    return MiningResult(cubes=cubes, algorithm=result.algorithm, thresholds=result.thresholds)


def verify(workload, passes: Passes, pinned: dict) -> dict:
    """Compare every operation's answer with the independent path."""
    attempted = failed = 0
    failures: list = []
    for index, ops in passes.ops:
        expected = workload.expected(index)
        for op in ops:
            attempted += 1
            if op.error is not None:
                problem = op.error
            else:
                got = op.digest
                if got != expected.get(op.label):
                    problem = "digest differs from the independent path"
                elif pinned.get(op.label, got) != got:
                    problem = "digest differs from the pinned default-seed digest"
                else:
                    continue
            failed += 1
            if len(failures) < 20:
                failures.append({"op": op.label, "pass": index, "problem": problem})
    return {"attempted": attempted, "failed": failed, "failures": failures}


def work_counters(ops: list) -> dict:
    totals = dict.fromkeys(WORK_COUNTERS, 0)
    for op in ops:
        for name, value in (op.work or {}).items():
            totals[name] += value
    return totals


def latency_report(passes: Passes) -> dict:
    report = {}
    for kind, (name, scale, unit) in KIND_METRICS.items():
        values = passes.samples(kind)
        if not values:
            continue
        report[f"{name}.p50"] = {"value": statistics.median(values) * scale, "unit": unit, "n": len(values)}
        tail = tail_percentile(len(values))
        if tail is not None:
            report[f"{name}.p{tail}"] = {
                "value": percentile(values, tail) * scale, "unit": unit, "n": len(values),
            }
    return report


def job_phases(jobs: list) -> dict:
    """Per-phase daemon times from ``JobRecord`` and event-journal stamps."""
    phases: dict = {name: [] for name in ("queue_wait_s", "spawn_s", "mine_s", "maintain_s", "write_s")}
    retries = 0
    for job in jobs:
        record, events = job.record, job.events
        retries += record.retries
        stamps = {event.get("kind"): event for event in events}
        if record.started is not None:
            phases["queue_wait_s"].append(record.started - record.created)
        if job.kind == "cold" and events and record.started is not None:
            phases["spawn_s"].append(events[0]["t"] - record.started)
            if "done" in stamps:
                phases["mine_s"].append(stamps["done"]["elapsed_seconds"])
                if "job-done" in stamps:
                    phases["write_s"].append(stamps["job-done"]["t"] - stamps["done"]["t"])
        if job.kind == "maintain" and "maintain-done" in stamps and record.started is not None:
            phases["maintain_s"].append(stamps["maintain-done"]["t"] - record.started)
            if "job-done" in stamps:
                phases["write_s"].append(stamps["job-done"]["t"] - stamps["maintain-done"]["t"])
    out = {name: (statistics.median(values) if values else 0.0) for name, values in phases.items()}
    out["retries"] = retries
    return out


# ----------------------------------------------------------------------
# Stamp
# ----------------------------------------------------------------------
def git_commit() -> "str | None":
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over ``src/repro`` — identifies the code where git cannot."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix in (".py", ".c"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> "str | None":
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(args, workload, kernel) -> dict:
    from repro.core.kernels import native_available, native_features

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernel.name,
        "native_features": native_features() if native_available() else None,
        "params": {
            **workload.params(),
            "setup_repeats": SETUP_REPEATS,
            "min_samples": MIN_SAMPLES,
        },
    }


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def measure(workload, seconds: int) -> Passes:
    min_passes = math.ceil(MIN_SAMPLES / workload.primary_per_pass)
    return run_passes(workload, 0, min_passes, seconds)


def traced_layers(workload, seconds: int, kernel) -> tuple:
    """Untraced then traced passes; returns (passes, per-layer metrics, spans)."""
    import spans

    passes = run_passes(workload, 0, 1, seconds / 2)
    untraced_wall = statistics.median(passes.times) * passes.scale
    tracer = spans.Tracer()
    installed = spans.install(tracer, kernel)
    try:
        traced = run_passes(workload, len(passes.times), 1, seconds / 2)
    finally:
        installed.undo()
    passes.extend(traced)
    n = len(traced.times)
    # Self times are raw seconds, so the traced wall time is too.
    wall = sum(traced.times) / n
    totals = tracer.layer_totals()

    metrics: dict = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    self_sum = 0.0
    for layer, (calls, seconds_self) in totals.items():
        put(f"{layer}.calls", calls / n, "count")
        put(f"{layer}.self_s", seconds_self / n, "s")
        self_sum += seconds_self / n
    put("other.self_s", wall - self_sum, "s")
    put("trace.wall_s", wall, "s")
    put("trace_overhead", wall * traced.scale / untraced_wall, "ratio")
    for method in spans.KERNEL_METHODS:
        calls = tracer.calls.get(("core.kernels", method), 0)
        put(f"core.kernels.{method}.calls", calls / n, "count")
        put(f"core.kernels.{method}.self_s", tracer.self_s.get(("core.kernels", method), 0.0) / n, "s")
    put("core.kernels.share", totals["core.kernels"][1] / n / wall, "ratio")

    counts = tracer.counts
    # Pass 0 runs the same operations on every run (the service's
    # passes differ in their dataset variant).
    work = work_counters(passes.ops[0][1])
    probes = work["closure_cache_hits"] + work["closure_cache_misses"]
    put("core.closure.hit_ratio", work["closure_cache_hits"] / probes if probes else 0.0, "ratio")
    # Of the slices handed to D-Miner: maintain() skips clean ones unmined.
    mined = totals["fcp"][0]
    put("rsm.slices.productive_ratio", counts["fcp.productive_calls"] / mined if mined else 0.0, "ratio")
    put("fcp.patterns", counts["fcp.patterns"] / n, "count")
    checked = totals["rsm.postprune"][0]
    put("rsm.postprune.kept_ratio", counts["rsm.postprune.kept"] / checked if checked else 0.0, "ratio")
    put("stream.maintain.patch_s", tracer.child_time("stream.maintain", ("core.closure", "core.kernels")) / n, "s")
    put("stream.maintain.dirty_s", tracer.child_time("stream.maintain", ("rsm.slices", "fcp", "rsm.postprune")) / n, "s")
    encoded = counts["core.result.bytes"] + sum(len(json.dumps(p)) for p in tracer.payloads)
    put("core.result.bytes", encoded / n, "B")
    lookups = counts["service.cache.hits"] + counts["service.cache.misses"]
    put("service.cache.hit_ratio", counts["service.cache.hits"] / lookups if lookups else 0.0, "ratio")
    for name, value in job_phases(getattr(workload, "jobs", [])).items():
        put(f"service.jobs.{name}", value, "count" if name == "retries" else "s")
    for name, value in work.items():
        put(f"work.{name}", value, "count")
    return passes, metrics, tracer.spans()


def run(args, tmp_root: Path) -> int:
    import spans  # noqa: F401 - imported with the rest, before set-up ends
    import workloads
    from repro.core.kernels import resolve_kernel

    kernel = resolve_kernel(None)
    max_workers = min(2, len(os.sched_getaffinity(0)))
    imported = time.perf_counter() - _START
    pinned = {}
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})

    setup_times, workload, leaks = [], None, 0
    before = calibration_s()
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            leaks += workload.close()
        t0 = time.perf_counter()
        workload = workloads.make(args.workload, args.seed, tmp_root, max_workers)
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_raw = imported + statistics.median(setup_times)
    setup_s = setup_raw * CALIBRATION_REF_S / ((before + calibration_s()) / 2)

    try:
        if args.trace:
            passes, metrics, trace_spans = traced_layers(workload, args.seconds, kernel)
        else:
            passes = measure(workload, args.seconds)
            rss = peak_rss_mb()
        verdict = verify(workload, passes, pinned)
    finally:
        leaks += workload.close()
    attempted = verdict["attempted"] + 1
    failed = verdict["failed"] + (1 if leaks else 0)
    if leaks:
        verdict["failures"].append({"op": "session-cleanup", "problem": f"{leaks} leaked temp file(s)"})

    report = {
        "stamp": stamp(args, workload, kernel),
        "passes": len(passes.times),
        "fail_ratio": failed / attempted,
        "failures": verdict["failures"],
        "work_per_pass": work_counters(passes.ops[0][1]),
    }
    if args.trace:
        report["spans"] = trace_spans
    else:
        samples = passes.samples(workload.primary) or [0.0]
        raw = passes.samples(workload.primary, scaled=False) or [0.0]
        wall_s = statistics.median(passes.times) * passes.scale
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_ms.p50": {"value": statistics.median(samples) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        report["raw"] = {
            "setup_s": setup_raw,
            "wall_s": statistics.median(passes.times),
            "op_ms.p50": statistics.median(raw) * 1e3,
            "calibration_s": statistics.median(passes.calibrations),
        }
        report["named"] = {
            **latency_report(passes),
            "setup_s": {"value": setup_s, "unit": "s", "n": SETUP_REPEATS},
            "wall_s": {"value": wall_s, "unit": "s", "n": len(passes.times)},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        }
        if hasattr(workload, "jobs"):
            # The calibration children are counted too, but are far smaller.
            report["named"]["worker_peak_rss_mb"] = {
                "value": peak_rss_mb(resource.RUSAGE_CHILDREN), "unit": "MB",
            }
        if getattr(workload, "fresh_s", None):
            # The fresh mine each maintained batch is checked against.
            report["named"]["fresh_mine_ms.p50"] = {
                "value": statistics.median(workload.fresh_s) * passes.scale * 1e3,
                "unit": "ms", "n": len(workload.fresh_s),
            }
        report["job_phases"] = job_phases(getattr(workload, "jobs", []))
        report["job_phases"]["settle_retries"] = getattr(workload, "settle_retries", 0)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts for spawned workers."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Every file the run writes (daemon state, worker temp files) stays
    # inside the checkout; TMPDIR reaches the spawned workers too.
    tmp_parent = ROOT / ".bench_tmp"
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=_mkdir(tmp_parent)))
    os.environ["TMPDIR"] = str(tmp_root)
    tempfile.tempdir = str(tmp_root)
    try:
        return run(args, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it
        stop_resource_tracker()


def _mkdir(path: Path) -> Path:
    path.mkdir(exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
