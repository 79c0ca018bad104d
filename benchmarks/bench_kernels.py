"""Kernel backend comparison on the Figure 3-5 workloads.

Runs both kernel backends (``python-int`` and ``numpy``) over
representative points of
the paper's Figure 3 minC sweeps and the Figure 4/5 minH/minR settings,
for both CubeMiner and RSM.  Each point asserts that all backends
return the *identical* cube list (the differential test suite proves
the full contract; the assertion here guards the benchmark itself
against drift) and records per-kernel wall times.

A fold microbench isolates the primitive the miners spend their time
in — ``intersect_rows`` (per-row AND over a height selection) plus
``popcounts`` on the elutriation-scale grid — away from enumeration
overhead, which is where a backend's raw speed shows before it is
diluted by tree bookkeeping.

Standalone runs write ``BENCH_kernels.json`` at the repo root — the
machine-readable perf trajectory for the backend layer::

    python benchmarks/bench_kernels.py [BENCH_kernels.json]

``--check`` is the cross-backend identity gate: on one point per
figure family, both algorithms, every backend must produce the
bit-identical cube list.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

from common import (
    cdc15_bench,
    elutriation_bench,
    print_series_table,
    scale_minc,
    timed,
)
from repro.core.constraints import Thresholds
from repro.core.kernels import available_kernels, get_kernel
from repro.cubeminer import cubeminer_mine
from repro.rsm import rsm_mine

KERNELS = list(available_kernels())

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _cubeminer(dataset, thresholds):
    return cubeminer_mine(dataset, thresholds)


def _rsm(dataset, thresholds):
    return rsm_mine(dataset, thresholds, base_axis="row")


#: (name, figure, dataset factory, dataset label, algorithm runner,
#:  algorithm label, thresholds) — one benchmark point each.
def _workloads():
    elu_fig3 = [scale_minc(v, 7161) for v in (900, 1100, 1300)]
    cdc_fig3 = [scale_minc(v, 7761) for v in (1000, 1400)]
    points = []
    for min_c in elu_fig3:
        t = Thresholds(3, 3, min_c)
        points.append((f"fig3a-elu-cubeminer-minC={min_c}", "fig3a",
                       elutriation_bench, "elutriation", _cubeminer, "cubeminer", t))
        points.append((f"fig3a-elu-rsm_r-minC={min_c}", "fig3a",
                       elutriation_bench, "elutriation", _rsm, "rsm-r", t))
    for min_c in cdc_fig3:
        t = Thresholds(3, 3, min_c)
        points.append((f"fig3b-cdc15-cubeminer-minC={min_c}", "fig3b",
                       cdc15_bench, "cdc15", _cubeminer, "cubeminer", t))
        points.append((f"fig3b-cdc15-rsm_r-minC={min_c}", "fig3b",
                       cdc15_bench, "cdc15", _rsm, "rsm-r", t))
    elu_minc = scale_minc(1000, 7161)
    for min_h in (5, 7):  # Figure 4 points (minR=3)
        t = Thresholds(min_h, 3, elu_minc)
        points.append((f"fig4a-elu-cubeminer-minH={min_h}", "fig4a",
                       elutriation_bench, "elutriation", _cubeminer, "cubeminer", t))
        points.append((f"fig4a-elu-rsm_r-minH={min_h}", "fig4a",
                       elutriation_bench, "elutriation", _rsm, "rsm-r", t))
    for min_r in (4, 6):  # Figure 5 points (minH=3)
        t = Thresholds(3, min_r, elu_minc)
        points.append((f"fig5a-elu-cubeminer-minR={min_r}", "fig5a",
                       elutriation_bench, "elutriation", _cubeminer, "cubeminer", t))
        points.append((f"fig5a-elu-rsm_r-minR={min_r}", "fig5a",
                       elutriation_bench, "elutriation", _rsm, "rsm-r", t))
    return points


WORKLOADS = _workloads()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "point", WORKLOADS[:6], ids=lambda p: p[0]  # fig3a sweep; full set via sweep()
)
def test_kernel_point(benchmark, kernel, point):
    _name, _fig, factory, _ds, runner, _alg, thresholds = point
    dataset = factory().with_kernel(kernel)
    benchmark.pedantic(runner, args=(dataset, thresholds), rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Fold microbench: the raw intersect-and-count primitive
# ----------------------------------------------------------------------

def _fold_selections(l: int) -> list[int]:
    """A deterministic spread of height-subset bitmasks over ``l`` slices."""
    selections = []
    for size in (2, 3, 4, l - 1, l):
        base = (1 << size) - 1
        for shift in range(0, l - size + 1, 2):
            selections.append(base << shift)
    return selections


def fold_microbench(kernels: list[str], repeats: int = 25) -> dict[str, float]:
    """Seconds per kernel for the intersect_rows + popcounts fold loop.

    Timing is interleaved (one full pass per kernel, alternating) so
    machine noise hits every backend equally; the caller aggregates
    across rounds.
    """
    dataset = elutriation_bench()
    _l, _n, m = dataset.shape
    selections = _fold_selections(dataset.shape[0])
    grids = {
        name: get_kernel(name).pack_grid_from_tensor(dataset.data)
        for name in kernels
    }
    totals = dict.fromkeys(kernels, 0.0)
    for _ in range(repeats):
        for name in kernels:
            kernel = get_kernel(name)
            grid = grids[name]

            def one_pass(kernel=kernel, grid=grid):
                for heights in selections:
                    folded = kernel.intersect_rows(grid, heights, m)
                    kernel.popcounts(folded)

            t, _ = timed(one_pass)
            totals[name] += t
    return totals


# ----------------------------------------------------------------------
# Sweeps and gates
# ----------------------------------------------------------------------

def sweep(output: Path | None = None, fold_repeats: int = 25) -> dict:
    """Time every workload under every kernel; optionally write JSON."""
    records = []
    series: dict[str, list[float]] = {name: [] for name in KERNELS}
    labels: list[str] = []
    counts: list[int] = []
    for name, figure, factory, ds_label, runner, alg, thresholds in WORKLOADS:
        seconds: dict[str, float] = {}
        cubes: set | None = None
        n_cubes = 0
        for kernel in KERNELS:
            dataset = factory().with_kernel(kernel)
            t, result = timed(runner, dataset, thresholds)
            seconds[kernel] = round(t, 4)
            found = {(c.heights, c.rows, c.columns) for c in result.cubes}
            if cubes is None:
                cubes = found
                n_cubes = len(found)
            elif found != cubes:
                raise AssertionError(
                    f"{name}: kernel {kernel!r} mined a different cube set "
                    f"({len(found)} cubes vs {n_cubes}); backends must be "
                    f"bit-identical"
                )
            series[kernel].append(t)
        labels.append(name)
        counts.append(n_cubes)
        records.append({
            "name": name,
            "figure": figure,
            "dataset": ds_label,
            "algorithm": alg,
            "thresholds": [thresholds.min_h, thresholds.min_r, thresholds.min_c],
            "n_cubes": n_cubes,
            "seconds": seconds,
        })
    print_series_table(
        "Kernel backends on Figure 3-5 workloads",
        "workload", labels, series, counts=counts,
    )
    fold = fold_microbench(KERNELS, repeats=fold_repeats)
    print("\n== Fold microbench (intersect_rows + popcounts, elutriation grid) ==")
    for name in KERNELS:
        line = f"{name:>12}: {fold[name]:.4f}s"
        if name != "python-int" and fold.get("python-int"):
            line += f"  ({fold['python-int'] / fold[name]:.2f}x over python-int)"
        print(line)
    payload = {
        "kernels": KERNELS,
        "fold_microbench": {
            "repeats": fold_repeats,
            "seconds": {name: round(fold[name], 4) for name in KERNELS},
        },
        "workloads": records,
    }
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nper-kernel wall times written to {output}")
    return payload


def check() -> None:
    """Enforce cross-backend cube identity; raises :class:`AssertionError`."""
    # Bit-identical cube lists on a representative workload mix (one
    # point per figure family, both algorithms).
    for point in (WORKLOADS[0], WORKLOADS[1], WORKLOADS[6], WORKLOADS[11]):
        name, _fig, factory, _ds, runner, _alg, thresholds = point
        cubes = None
        for kernel in KERNELS:
            result = runner(factory().with_kernel(kernel), thresholds)
            found = {(c.heights, c.rows, c.columns) for c in result.cubes}
            if cubes is None:
                cubes = found
            elif found != cubes:
                raise AssertionError(
                    f"{name}: kernel {kernel!r} mined a different cube set"
                )
        print(f"cube identity OK across {KERNELS}: {name} ({len(cubes or ())} cubes)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output", nargs="?", type=Path, default=_DEFAULT_OUTPUT,
        help="JSON output path for the sweep (default: BENCH_kernels.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="enforce cross-backend cube identity instead of running the "
             "full sweep",
    )
    parser.add_argument(
        "--fold-repeats", type=int, default=25,
        help="fold-microbench passes per kernel",
    )
    args = parser.parse_args(argv)
    if args.check:
        check()
        return 0
    sweep(args.output, fold_repeats=args.fold_repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
