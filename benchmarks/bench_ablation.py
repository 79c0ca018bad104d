"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the individual design
decisions the paper argues for qualitatively:

* **2D substrate choice** — RSM's phase 2 with each registered 2D
  miner, D-Miner (the paper's pick) and CARPENTER;
* **task granularity** — CubeMiner split into at least 1/8/64/256
  branch tasks, each timed alone and list-scheduled onto 4 processors
  (too few tasks -> stragglers, too many -> per-task overhead);
* **base-dimension choice** — RSM enumerating each axis of the same
  dataset (the paper's "pick the smallest dimension" heuristic);
* **auto-transpose** — CubeMiner with and without the canonical
  transpose on a tensor whose largest axis is *not* the column axis.
"""

from __future__ import annotations

import pytest

from common import elutriation_bench, print_series_table, scale_minc, timed
from repro.api import mine
from repro.core.constraints import Thresholds
from repro.fcp import FCP_MINERS
from repro.parallel import measure_cubeminer_task_times, schedule_makespan
from repro.rsm import rsm_mine

MINC = scale_minc(1000, 7161)
THRESHOLDS = Thresholds(3, 3, MINC)


def _substrate_case():
    """A 14x9x100 microarray substitute for the substrate comparison.

    Dense representative slices are exactly the regime the paper picked
    D-Miner for; CARPENTER's row enumeration suits the same few-rows,
    many-columns shape.  The feature-enumeration and pattern-growth
    miners were dropped after losing by 40x or more on the Fig. 3-5
    sweeps (EXPERIMENTS.md, "Ablations").
    """
    from repro.datasets import elutriation_like

    return elutriation_like(100, seed=0), Thresholds(3, 3, 14)


@pytest.mark.parametrize("miner_name", sorted(FCP_MINERS))
def test_ablation_fcp_substrate(benchmark, miner_name):
    dataset, thresholds = _substrate_case()
    result = benchmark.pedantic(
        rsm_mine,
        args=(dataset, thresholds),
        kwargs={"base_axis": "row", "fcp_miner": miner_name},
        rounds=1,
        iterations=1,
    )
    assert result is not None


GRANULARITIES = [1, 8, 64, 256]


@pytest.mark.parametrize("min_tasks", GRANULARITIES, ids=lambda v: f"tasks>={v}")
def test_ablation_task_granularity(benchmark, min_tasks):
    times = benchmark.pedantic(
        measure_cubeminer_task_times,
        args=(elutriation_bench(), THRESHOLDS),
        kwargs={"min_tasks": min_tasks},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["n_tasks"] = len(times)
    benchmark.extra_info["makespan_4_s"] = schedule_makespan(times, 4)


def _base_axis_case():
    """An 8x10x12 planted tensor: every axis is small enough to
    enumerate (2^8 / 2^10 / 2^12 representative slices), so the cost of
    picking the wrong base dimension is measurable without being
    astronomically slow.  RSM's enumeration is exponential in the base
    dimension — base_axis='column' on the 250-gene bench dataset would
    mean 2^250 subsets, which is why this ablation gets its own shape."""
    from repro.datasets import planted_tensor

    planted = planted_tensor(
        (8, 10, 12), n_blocks=4, block_shape=(3, 4, 5),
        background_density=0.25, seed=5,
    )
    return planted.dataset, Thresholds(2, 2, 2)


@pytest.mark.parametrize("base_axis", ["height", "row", "column"])
def test_ablation_base_axis(benchmark, base_axis):
    dataset, thresholds = _base_axis_case()
    benchmark.pedantic(
        rsm_mine,
        args=(dataset, thresholds),
        kwargs={"base_axis": base_axis},
        rounds=1,
        iterations=1,
    )


def _transposed_case():
    """A 120x9x14 tensor: the largest axis lands on heights, the worst
    orientation for the cutter count (120*9 cutters vs 9*14 after the
    canonical transpose).  Scaled so the un-transposed arm stays under
    a second."""
    from repro.datasets import elutriation_like

    dataset = elutriation_like(120, seed=0).transpose((2, 1, 0))
    thresholds = Thresholds(3, 3, 17).permute((2, 1, 0))
    return dataset, thresholds


@pytest.mark.parametrize("auto_transpose", [False, True], ids=["as-is", "transposed"])
def test_ablation_auto_transpose(benchmark, auto_transpose):
    dataset, thresholds = _transposed_case()
    benchmark.pedantic(
        mine,
        args=(dataset, thresholds),
        kwargs={"auto_transpose": auto_transpose},
        rounds=1,
        iterations=1,
    )


def sweep() -> None:
    sub_dataset, sub_thresholds = _substrate_case()
    names = sorted(FCP_MINERS)
    substrate_times = []
    for name in names:
        t, _ = timed(
            rsm_mine, sub_dataset, sub_thresholds, base_axis="row", fcp_miner=name
        )
        substrate_times.append(t)
    print_series_table(
        "Ablation: RSM-R phase-2 substrate choice (14x9x100, dense slices)",
        "miner", names, {"RSM_R time": substrate_times},
    )

    axis_dataset, axis_thresholds = _base_axis_case()
    axes = ["height", "row", "column"]
    axis_times = []
    for axis in axes:
        t, _ = timed(rsm_mine, axis_dataset, axis_thresholds, base_axis=axis)
        axis_times.append(t)
    print_series_table(
        "Ablation: RSM base-dimension choice (shape 8x10x12)",
        "base axis", axes, {"RSM time": axis_times},
    )

    work, makespans = [], []
    for min_tasks in GRANULARITIES:
        times = measure_cubeminer_task_times(
            elutriation_bench(), THRESHOLDS, min_tasks=min_tasks
        )
        work.append(sum(times))
        makespans.append(schedule_makespan(times, 4))
    print_series_table(
        "Ablation: CubeMiner task granularity (simulated 4 processors)",
        "min tasks", GRANULARITIES, {"total work": work, "makespan": makespans},
    )

    transposed, permuted = _transposed_case()
    times = []
    for flag in (False, True):
        t, _ = timed(mine, transposed, permuted, auto_transpose=flag)
        times.append(t)
    print_series_table(
        "Ablation: CubeMiner canonical transpose (120x9x14 input)",
        "auto_transpose", ["off", "on"], {"CubeMiner time": times},
    )


if __name__ == "__main__":
    sweep()
