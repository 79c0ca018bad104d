"""Robustness: noise tolerance, fault recovery, service availability.

Not a paper figure.  Three sweeps:

1. **Dropout** — the paper mines exact all-ones cubes, and this bench
   quantifies the practical consequence: how quickly recovery of
   planted ground truth degrades as one-cells drop out (measurement
   dropout being the dominant noise in binarized microarray data).
   The relevance score (average best-match Jaccard of each planted
   block, see :mod:`repro.analysis.recovery`) falls steeply with even
   a few percent dropout — the motivation the later noise-tolerant
   triclustering literature cites.
2. **Fault recovery** — the wall-clock premium the parallel
   supervisor pays to recover from k injected worker faults
   (alternating exceptions and hard crashes) relative to a clean run,
   with result parity asserted at every point.  See
   docs/robustness.md.
3. **Availability under storage faults** — the hardened service
   runtime (:mod:`repro.service`) driven by a seeded-random
   :class:`repro.chaos.ChaosPlan` injecting ENOSPC/EIO/torn
   writes/bit flips/stale temps under every store, at increasing
   rates.  Every request must end in a typed outcome (no unhandled
   crashes, ever), every served result must be bit-identical to a
   clean mine, and the data directory must fsck clean after
   ``--repair``.  ``--check`` re-runs this sweep and enforces those
   gates against the recorded series — CI's chaos job runs it.

All series are recorded in ``BENCH_robustness.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from common import print_series_table, timed
from repro.analysis.recovery import recovery_report
from repro.api import mine
from repro.chaos import ChaosPlan, ChaosShim, fsck_data_dir
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.datasets import drop_ones, planted_tensor, random_tensor
from repro.parallel import (
    Fault,
    FaultPlan,
    parallel_cubeminer_mine,
    parallel_rsm_mine,
)

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_robustness.json"

DROPOUT_LEVELS = [0.0, 0.02, 0.05, 0.10, 0.20]
THRESHOLDS = Thresholds(2, 2, 3)

FAULT_COUNTS = [0, 1, 2, 4]
FAULT_THRESHOLDS = Thresholds(2, 2, 2)
FAULT_DRIVERS = [
    ("parallel-rsm", parallel_rsm_mine),
    ("parallel-cubeminer", parallel_cubeminer_mine),
]


def _planted():
    return planted_tensor(
        (6, 10, 60), n_blocks=5, block_shape=(3, 4, 10),
        background_density=0.05, seed=41,
    )


def _fault_dataset():
    return random_tensor((6, 12, 30), 0.3, seed=7)


def _fault_plan(n_faults: int) -> FaultPlan | None:
    """k faults on the first k chunks, alternating exception / crash."""
    if n_faults == 0:
        return None
    kinds = ("exception", "crash")
    return FaultPlan(
        {chunk: Fault(kinds[chunk % 2]) for chunk in range(n_faults)}
    )


@pytest.mark.parametrize(
    "dropout", DROPOUT_LEVELS, ids=lambda v: f"dropout={v:.2f}"
)
def test_robustness_mining_under_dropout(benchmark, dropout):
    planted = _planted()
    noisy = (
        planted.dataset
        if dropout == 0.0
        else drop_ones(planted.dataset, dropout, seed=42)
    )
    result = benchmark.pedantic(mine, args=(noisy, THRESHOLDS), rounds=1, iterations=1)
    report = recovery_report(planted.planted, result)
    if dropout == 0.0:
        assert report.relevance > 0.9


@pytest.mark.parametrize("n_faults", FAULT_COUNTS, ids=lambda k: f"faults={k}")
@pytest.mark.parametrize("name,driver", FAULT_DRIVERS, ids=lambda v: str(v))
def test_recovery_overhead_point(benchmark, name, driver, n_faults):
    dataset = _fault_dataset()
    result = benchmark.pedantic(
        driver,
        args=(dataset, FAULT_THRESHOLDS),
        kwargs={"n_workers": 2, "backoff": 0.01, "fault_plan": _fault_plan(n_faults)},
        rounds=1, iterations=1,
    )
    assert len(result) > 0


def _dropout_sweep() -> list[dict]:
    planted = _planted()
    series: dict[str, list[float]] = {
        "mine time": [], "relevance": [], "specificity": [],
    }
    counts: list[int] = []
    records: list[dict] = []
    for dropout in DROPOUT_LEVELS:
        noisy = (
            planted.dataset
            if dropout == 0.0
            else drop_ones(planted.dataset, dropout, seed=42)
        )
        elapsed, result = timed(mine, noisy, THRESHOLDS)
        report = recovery_report(planted.planted, result)
        series["mine time"].append(elapsed)
        series["relevance"].append(report.relevance)
        series["specificity"].append(report.specificity)
        counts.append(len(result))
        records.append({
            "dropout": dropout,
            "seconds": round(elapsed, 4),
            "n_cubes": len(result),
            "relevance": round(report.relevance, 4),
            "specificity": round(report.specificity, 4),
        })
    print_series_table(
        "Robustness: planted-block recovery vs dropout "
        "(6x10x60, 5 blocks, minH=2 minR=2 minC=3)",
        "dropout", DROPOUT_LEVELS, series, counts=counts,
    )
    print(
        "  note: relevance/specificity columns are scores in [0,1], "
        "not seconds."
    )
    return records


def _recovery_sweep() -> list[dict]:
    dataset = _fault_dataset()
    series: dict[str, list[float]] = {name: [] for name, _ in FAULT_DRIVERS}
    counts: list[int] = []
    records: list[dict] = []
    for name, driver in FAULT_DRIVERS:
        clean = None
        for n_faults in FAULT_COUNTS:
            elapsed, result = timed(
                driver, dataset, FAULT_THRESHOLDS,
                n_workers=2, backoff=0.01, fault_plan=_fault_plan(n_faults),
            )
            if clean is None:
                clean = result
            elif list(result) != list(clean):
                raise AssertionError(
                    f"{name}: {n_faults} injected faults changed the "
                    f"result ({len(result)} cubes vs {len(clean)})"
                )
            series[name].append(elapsed)
            recovery = result.stats.extra.get("recovery", {})
            records.append({
                "driver": name,
                "n_faults": n_faults,
                "seconds": round(elapsed, 4),
                "n_cubes": len(result),
                "recovery": recovery,
            })
        counts.append(len(clean))
    print_series_table(
        "Fault-recovery overhead: clean run vs k injected faults "
        "(6x12x30, 2 workers, alternating exception/crash)",
        "faults", FAULT_COUNTS, series,
    )
    return records


#: Per-operation storage fault rates for the availability sweep.
AVAILABILITY_RATES = [0.0, 0.05, 0.1, 0.2]
AVAILABILITY_JOBS = 6
AVAILABILITY_THRESHOLDS = Thresholds(1, 2, 2)
#: Storage-layer faults only — worker crash/hang have their own sweep
#: above, and transport resets are the client-retry tests' subject.
AVAILABILITY_KINDS = ("enospc", "eio", "torn-write", "bit-flip", "stale-tmp")
AVAILABILITY_SITES = ("registry", "cache", "jobs")


def _availability_dataset() -> Dataset3D:
    rng = np.random.default_rng(11)
    return Dataset3D(rng.random((3, 6, 6)) < 0.5)


def _availability_point(rate: float, seed: int = 23) -> dict:
    """Drive one daemon under seeded storage faults; classify outcomes.

    Every submitted job must land in exactly one bucket: ``served``
    (done, result fetched, bit-identical to a clean mine), ``typed``
    (a typed HTTP error or a terminal failed/quarantined status), or
    ``unhandled`` (an exception escaped the service — the bucket that
    must stay empty).
    """
    from repro.service import Request, ServiceApp

    dataset = _availability_dataset()
    clean = sorted(
        (c.heights, c.rows, c.columns)
        for c in mine(dataset, AVAILABILITY_THRESHOLDS)
    )
    shim = None
    if rate > 0.0:
        shim = ChaosShim(
            ChaosPlan.random(
                seed, rate=rate, kinds=AVAILABILITY_KINDS,
                sites=AVAILABILITY_SITES,
            )
        )
    data_dir = Path(tempfile.mkdtemp(prefix="repro-bench-chaos-"))
    app = ServiceApp(
        data_dir, max_workers=1, max_retries=3, retry_backoff=0.05, io=shim,
    )
    served = typed = unhandled = 0
    start = time.perf_counter()
    try:
        fingerprint = None
        for _ in range(6):  # registration itself runs under the shim
            try:
                fingerprint = app.registry.register(dataset).fingerprint
                break
            except OSError:
                continue
        if fingerprint is None:
            typed = AVAILABILITY_JOBS  # rejected, but rejected *typed*
        else:
            for _ in range(AVAILABILITY_JOBS):
                try:
                    response = app.handle(Request(
                        method="POST", path="/v1/jobs",
                        body=json.dumps({
                            "dataset": fingerprint,
                            "thresholds": AVAILABILITY_THRESHOLDS.to_dict(),
                            # Force a fresh worker mine per job: the
                            # point is the pipeline, not the cache.
                            "use_cache": False,
                        }).encode(),
                    ))
                    if response.status not in (200, 202):
                        typed += 1
                        continue
                    job_id = response.payload["id"]
                    deadline = time.monotonic() + 120
                    record = None
                    while time.monotonic() < deadline:
                        record = app.jobs.get(job_id)
                        if record.terminal:
                            break
                        time.sleep(0.05)
                    if record is None or record.status != "done":
                        typed += 1
                        continue
                    result = app.handle(Request(
                        method="GET", path=f"/v1/jobs/{job_id}/result",
                    ))
                    if result.status != 200:
                        typed += 1
                        continue
                    cubes = sorted(
                        (int(h), int(r), int(c))
                        for h, r, c in result.payload["result"]["cubes"]
                    )
                    if cubes == clean:
                        served += 1
                    else:  # silent cube loss — counts as a crash
                        unhandled += 1
                except ConnectionResetError:
                    typed += 1  # a transport reset is a typed outcome
                except Exception:  # noqa: BLE001 - the bucket under test
                    unhandled += 1
        chaos = app.chaos.as_dict()
        faults_fired = shim.plan.fired() if shim is not None else 0
    finally:
        app.close()
    elapsed = time.perf_counter() - start
    fsck_data_dir(data_dir, repair=True)
    post_repair_clean = fsck_data_dir(data_dir).clean
    shutil.rmtree(data_dir, ignore_errors=True)
    return {
        "rate": rate,
        "jobs": AVAILABILITY_JOBS,
        "served": served,
        "typed": typed,
        "unhandled": unhandled,
        "availability": round(served / AVAILABILITY_JOBS, 4),
        "faults_fired": faults_fired,
        "seconds": round(elapsed, 4),
        "fsck_clean_after_repair": post_repair_clean,
        "chaos": chaos,
    }


def _gate_availability(records: list[dict]) -> None:
    """The CI gates: typed outcomes always, full service when clean."""
    for record in records:
        rate = record["rate"]
        if record["unhandled"]:
            raise AssertionError(
                f"rate={rate}: {record['unhandled']} request(s) ended in "
                "an unhandled crash or silent cube loss"
            )
        if not record["fsck_clean_after_repair"]:
            raise AssertionError(
                f"rate={rate}: data dir does not fsck clean after --repair"
            )
        if rate == 0.0 and record["availability"] != 1.0:
            raise AssertionError(
                f"clean run served {record['served']}/{record['jobs']} jobs"
            )
        if rate <= 0.1 and record["served"] == 0:
            raise AssertionError(
                f"rate={rate}: retry budget absorbed nothing "
                f"(0/{record['jobs']} served)"
            )


def _availability_sweep() -> list[dict]:
    records = [_availability_point(rate) for rate in AVAILABILITY_RATES]
    series = {
        "availability": [r["availability"] for r in records],
        "faults fired": [float(r["faults_fired"]) for r in records],
        "wall time": [r["seconds"] for r in records],
    }
    print_series_table(
        "Service availability under seeded storage faults "
        f"(3x6x6, {AVAILABILITY_JOBS} jobs/rate, 1 worker, retry budget 3)",
        "rate", AVAILABILITY_RATES, series,
        counts=[r["served"] for r in records],
    )
    print(
        "  note: availability is the served-bit-identical fraction; "
        "n is jobs served."
    )
    _gate_availability(records)
    return records


def sweep(output: Path | None = _DEFAULT_OUTPUT) -> dict:
    dropout_records = _dropout_sweep()
    print()
    recovery_records = _recovery_sweep()
    print()
    availability_records = _availability_sweep()
    payload = {
        "dropout": dropout_records,
        "fault_recovery": recovery_records,
        "availability": availability_records,
    }
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nrobustness series written to {output}")
    return payload


def check(recorded: Path = _DEFAULT_OUTPUT) -> int:
    """CI gate: re-run the availability sweep, enforce its invariants.

    Also verifies the recorded series covers the same rates — a stale
    ``BENCH_robustness.json`` fails here instead of drifting silently.
    """
    try:
        baseline = json.loads(recorded.read_text())
    except (OSError, ValueError) as error:
        print(f"FAIL: cannot read {recorded}: {error}", file=sys.stderr)
        return 1
    recorded_rates = [r.get("rate") for r in baseline.get("availability", [])]
    if recorded_rates != AVAILABILITY_RATES:
        print(
            f"FAIL: {recorded} availability series covers {recorded_rates}, "
            f"expected {AVAILABILITY_RATES} — regenerate with "
            "'python benchmarks/bench_robustness.py'",
            file=sys.stderr,
        )
        return 1
    try:
        _availability_sweep()
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print("availability gates hold")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output", nargs="?", type=Path, default=_DEFAULT_OUTPUT,
        help="where to write the series JSON",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="re-run only the availability sweep and enforce its CI gates "
        "against the recorded series",
    )
    cli_args = parser.parse_args()
    if cli_args.check:
        raise SystemExit(check(cli_args.output))
    sweep(cli_args.output)
