"""Micro-benchmarks for the hot kernels under the miners.

Not paper figures — these isolate the primitive operations the
algorithms spend their time in, so a regression in any of them is
visible before it shows up (amplified) in the figure benches:

* mask construction (`Dataset3D` packbits path),
* the three closure operators,
* the Lemma-4/5 checks (kernel sweeps, as CubeMiner runs them at its
  leaves),
* cutter-list construction,
* representative-slice generation,
* one 2D D-Miner call on a dense slice,
* the CubeMiner hot path with and without a no-op event sink (the
  instrumentation premium ``benchmarks/bench_overhead.py`` gates in CI).
"""

from __future__ import annotations

import pytest

from common import elutriation_bench
from repro.core.bitset import full_mask, mask_of
from repro.core.closure import (
    column_support,
    height_set_closed,
    height_support,
    row_set_closed,
    row_support,
)
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.cubeminer.algorithm import cubeminer_mine
from repro.cubeminer.cutter import HeightOrder, build_cutters
from repro.datasets import random_tensor
from repro.fcp import dminer_mine
from repro.obs import null_sink
from repro.rsm.slices import representative_slice


@pytest.fixture(scope="module")
def dataset():
    ds = elutriation_bench()
    ds.ones_mask(0, 0)  # force mask construction outside the benches
    return ds


def test_micro_mask_construction(benchmark):
    source = elutriation_bench()

    def build():
        fresh = Dataset3D(source.data.copy())
        fresh.ones_mask(0, 0)
        return fresh

    benchmark(build)


def test_micro_column_support(benchmark, dataset):
    heights = mask_of(range(5))
    rows = mask_of(range(6))
    result = benchmark(column_support, dataset, heights, rows)
    assert result >= 0


def test_micro_height_support(benchmark, dataset):
    rows = mask_of(range(4))
    columns = mask_of(range(0, 40, 2))
    benchmark(height_support, dataset, rows, columns)


def test_micro_row_support(benchmark, dataset):
    heights = mask_of(range(4))
    columns = mask_of(range(0, 40, 2))
    benchmark(row_support, dataset, heights, columns)


def test_micro_height_check(benchmark, dataset):
    heights = mask_of(range(3))
    rows = full_mask(dataset.n_rows)
    columns = mask_of(range(0, 60, 3))
    benchmark(height_set_closed, dataset, heights, rows, columns)


def test_micro_row_check(benchmark, dataset):
    heights = full_mask(dataset.n_heights)
    rows = mask_of(range(4))
    columns = mask_of(range(0, 60, 3))
    benchmark(row_set_closed, dataset, heights, rows, columns)


@pytest.mark.parametrize("order", list(HeightOrder), ids=lambda o: o.value)
def test_micro_build_cutters(benchmark, dataset, order):
    cutters = benchmark(build_cutters, dataset, order)
    assert len(cutters) == dataset.n_heights * dataset.n_rows


def test_micro_representative_slice(benchmark, dataset):
    heights = mask_of(range(0, dataset.n_heights, 2))
    rs = benchmark(representative_slice, dataset, heights)
    assert rs.n_columns == dataset.n_columns


def test_micro_dminer_dense_slice(benchmark, dataset):
    rs = representative_slice(dataset, mask_of([0, 1, 2]))
    patterns = benchmark.pedantic(
        dminer_mine, args=(rs, 3, 20), rounds=3, iterations=1
    )
    assert isinstance(patterns, list)


@pytest.fixture(scope="module")
def hotpath_dataset():
    """Small-but-busy tensor for whole-run instrumentation benches."""
    return random_tensor((6, 10, 32), 0.45, seed=11)


@pytest.mark.parametrize("sink", [None, null_sink], ids=["no-sink", "null-sink"])
def test_micro_cubeminer_hot_path(benchmark, hotpath_dataset, sink):
    """CubeMiner end to end; the null-sink variant prices the event stream."""
    result = benchmark.pedantic(
        cubeminer_mine,
        args=(hotpath_dataset, Thresholds(2, 2, 2)),
        kwargs={"on_event": sink},
        rounds=3,
        iterations=1,
    )
    assert result.stats["nodes_visited"] > 0
