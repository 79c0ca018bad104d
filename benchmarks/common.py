"""Shared infrastructure for the benchmark harness.

Every figure of the paper's evaluation (Section 7) has one
``bench_figN_*.py`` module.  Each module provides:

* pytest-benchmark tests — one per (series, parameter) point, so
  ``pytest benchmarks/ --benchmark-only`` regenerates the figure's
  series as the benchmark table (test ids encode series and point);
* a ``sweep()`` function printing the series as aligned text the way
  the paper reports them, runnable standalone
  (``python benchmarks/bench_figN_*.py``) — EXPERIMENTS.md embeds that
  output.

Workloads are scaled-down substitutes of the paper's (see DESIGN.md):
the gene axis of the microarray substitutes and the column axis of the
synthetic tensors are reduced so a pure-Python run of the entire
harness finishes in minutes, with every threshold translated
proportionally.  The *relative* curves (who wins, where the crossover
falls, monotone trends) are the reproduction target.
"""

from __future__ import annotations

import time
from functools import lru_cache

from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.datasets import cdc15_like, elutriation_like, planted_tensor


# ----------------------------------------------------------------------
# Benchmark datasets (cached — built once per session)
# ----------------------------------------------------------------------

#: Gene count for the microarray substitutes.  The paper uses 7161/7761;
#: thresholds below are scaled by GENES / 7161 (resp. 7761).
GENES = 250


@lru_cache(maxsize=None)
def elutriation_bench(seed: int = 0) -> Dataset3D:
    """Elutriation substitute: 14 x 9 x GENES (paper: 14 x 9 x 7161)."""
    return elutriation_like(GENES, seed=seed)


@lru_cache(maxsize=None)
def cdc15_bench(seed: int = 1) -> Dataset3D:
    """CDC15 substitute: 19 x 9 x GENES (paper: 19 x 9 x 7761)."""
    return cdc15_like(GENES, seed=seed)


def scale_minc(paper_minc: int, paper_genes: int) -> int:
    """Translate a paper minC (on 7161/7761 genes) to the bench scale."""
    return max(1, round(paper_minc * GENES / paper_genes))


@lru_cache(maxsize=None)
def synthetic_heights_bench(n_heights: int, seed: int | None = None) -> Dataset3D:
    """Figure 7 substitute: n_heights x 12 x 250 at 30% background
    density with planted correlated blocks (paper: h x 20 x 1000, IBM
    generator).  ``seed`` defaults to ``n_heights`` so each sweep point
    draws a distinct but reproducible tensor."""
    planted = planted_tensor(
        (n_heights, 12, 250),
        n_blocks=6,
        block_shape=(min(4, n_heights), 5, 20),
        background_density=0.30,
        seed=n_heights if seed is None else seed,
    )
    return planted.dataset


@lru_cache(maxsize=None)
def skewed_slices_bench(seed: int = 3) -> Dataset3D:
    """A 12 x 9 x 250 tensor whose height slices have very different
    densities (8%..85%) plus planted blocks.

    The zero-ordering heuristic of Figure 2 is a *slice-skew* effect:
    it pays off when some slices carry far more zeros than others (as
    in real cell-cycle time courses, where activity varies by phase).
    The microarray substitute's slices are nearly uniform, which damps
    the effect, so this deliberately skewed dataset accompanies it.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    l, n, m = 12, 9, 250
    densities = np.linspace(0.08, 0.85, l)
    rng.shuffle(densities)
    data = np.stack([rng.random((n, m)) < d for d in densities])
    for _ in range(4):
        hs = rng.choice(l, 5, replace=False)
        rs = rng.choice(n, 4, replace=False)
        cs = rng.choice(m, 30, replace=False)
        data[np.ix_(hs, rs, cs)] = True
    return Dataset3D(data)


@lru_cache(maxsize=None)
def large_synthetic_bench(seed: int = 99) -> Dataset3D:
    """Figure 8 substitute: 24 x 24 x 400 at 10% background density with
    planted blocks (paper: 100 x 100 x 10000, IBM generator)."""
    planted = planted_tensor(
        (24, 24, 400),
        n_blocks=8,
        block_shape=(8, 8, 40),
        background_density=0.10,
        seed=seed,
    )
    return planted.dataset


# ----------------------------------------------------------------------
# Sweep helpers
# ----------------------------------------------------------------------


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    """Run ``fn`` once, returning (elapsed_seconds, result)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def print_series_table(
    title: str,
    x_label: str,
    x_values: list,
    series: dict[str, list[float]],
    *,
    counts: list[int] | None = None,
) -> None:
    """Print one figure's series as an aligned text table."""
    print(f"\n== {title} ==")
    header = f"{x_label:>12} | " + " | ".join(f"{name:>18}" for name in series)
    if counts is not None:
        header += " | " + f"{'#FCCs':>7}"
    print(header)
    print("-" * len(header))
    for idx, x in enumerate(x_values):
        row = f"{x!s:>12} | " + " | ".join(
            f"{values[idx]:>17.3f}s" for values in series.values()
        )
        if counts is not None:
            row += f" | {counts[idx]:>7}"
        print(row)


def thresholds_for(dataset: Dataset3D, min_h: int, min_r: int, min_c: int) -> Thresholds:
    """Build thresholds, clamping to the dataset shape (guards sweeps)."""
    l, n, m = dataset.shape
    return Thresholds(min(min_h, l), min(min_r, n), min(min_c, m))
