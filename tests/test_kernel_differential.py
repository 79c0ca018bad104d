"""Differential verification: both dataset storages mine identical cubes.

A dataset built from a boolean tensor (id ``python-int``) is the
behavioural baseline (verified against the paper's running example and
the exponential reference miner elsewhere in the suite).  A dataset over
packed uint64 words (id ``numpy``; see ``tests.conftest.STORAGES``) must
reproduce its canonically-ordered :class:`MiningResult` exactly — on the
paper example and on a grid of seeded synthetic datasets spanning
densities, thresholds and universes wider than one 64-bit word — for
CubeMiner, for RSM under each 2D FCP miner, and for the inline parallel
drivers.  An RSM run whose 2D phase
is the exhaustive ``oracle_mine_2d`` ties the whole stack back to
ground truth.
"""

from __future__ import annotations

import pytest

from repro.core import reference_mine
from repro.core.constraints import Thresholds
from repro.cubeminer.algorithm import cubeminer_mine
from repro.datasets import paper_example, random_tensor
from repro.fcp import FCP_MINERS, FCPMiner, oracle_mine_2d
from repro.parallel import parallel_cubeminer_mine, parallel_rsm_mine
from repro.rsm.algorithm import rsm_mine
from tests.conftest import STORAGES, in_storage

BASELINE = "python-int"
OTHER_STORAGES = [name for name in STORAGES if name != BASELINE]
ALL_STORAGES = list(STORAGES)

# ----------------------------------------------------------------------
# Seeded synthetic grid: shapes x densities x thresholds, 30 configs.
# Column counts 33 and 70 cross the 64-bit word boundary so the packed
# uint64 storage exercises multi-word rows, not just the first word.
# ----------------------------------------------------------------------
_SHAPES = [(3, 4, 8), (4, 5, 12), (5, 4, 20), (4, 6, 70), (6, 5, 33)]
_DENSITIES = [0.35, 0.6, 0.85]
_THRESHOLDS = [(1, 1, 1), (2, 2, 2)]

GRID = [
    pytest.param(shape, density, mins, 1000 + i, id=f"g{i:02d}-{shape}-d{density}-t{mins}")
    for i, (shape, density, mins) in enumerate(
        (shape, density, mins)
        for shape in _SHAPES
        for density in _DENSITIES
        for mins in _THRESHOLDS
    )
]
assert len(GRID) == 30

# A cheaper subsample for the quadratic sweeps (every third config).
GRID_SAMPLE = GRID[::3]

_DATASETS: dict = {}
_BASELINES: dict = {}


def _dataset(shape, density, seed):
    key = (shape, density, seed)
    if key not in _DATASETS:
        _DATASETS[key] = random_tensor(shape, density, seed=seed)
    return _DATASETS[key]


def _baseline_cubes(dataset, thresholds, runner, tag):
    """Cubes from the tensor-built baseline, computed once per workload."""
    key = (id(dataset), thresholds, tag)
    if key not in _BASELINES:
        _BASELINES[key] = runner(in_storage(dataset, BASELINE)).cubes
    return _BASELINES[key]


class _OracleMiner(FCPMiner):
    """The exhaustive 2D oracle dressed as an FCP miner (tests only)."""

    name = "oracle2d"

    def mine(self, matrix, min_rows=1, min_columns=1):
        return oracle_mine_2d(matrix, min_rows=min_rows, min_columns=min_columns)


# ----------------------------------------------------------------------
# Paper running example: every storage, every miner, vs ground truth.
# ----------------------------------------------------------------------
class TestPaperExample:
    @pytest.fixture(scope="class")
    def truth(self, request):
        dataset = paper_example()
        thresholds = Thresholds(2, 2, 2)
        return dataset, thresholds, reference_mine(dataset, thresholds).cubes

    @pytest.mark.parametrize("storage", ALL_STORAGES)
    def test_cubeminer(self, truth, storage):
        dataset, thresholds, expected = truth
        result = cubeminer_mine(in_storage(dataset, storage), thresholds)
        assert result.cubes == expected

    @pytest.mark.parametrize("storage", ALL_STORAGES)
    @pytest.mark.parametrize("fcp", sorted(FCP_MINERS))
    def test_rsm_every_fcp_miner(self, truth, storage, fcp):
        dataset, thresholds, expected = truth
        result = rsm_mine(in_storage(dataset, storage), thresholds, fcp_miner=fcp)
        assert result.cubes == expected

    @pytest.mark.parametrize("storage", ALL_STORAGES)
    def test_rsm_oracle_substrate(self, truth, storage):
        dataset, thresholds, expected = truth
        result = rsm_mine(
            in_storage(dataset, storage), thresholds, fcp_miner=_OracleMiner()
        )
        assert result.cubes == expected


# ----------------------------------------------------------------------
# Synthetic grid: the word storage vs the tensor-built baseline.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", OTHER_STORAGES)
@pytest.mark.parametrize("shape,density,mins,seed", GRID)
def test_cubeminer_matches_baseline(storage, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: cubeminer_mine(ds, thresholds), "cubeminer"
    )
    result = cubeminer_mine(in_storage(dataset, storage), thresholds)
    assert result.cubes == expected


@pytest.mark.parametrize("storage", OTHER_STORAGES)
@pytest.mark.parametrize("shape,density,mins,seed", GRID)
def test_rsm_dminer_matches_baseline(storage, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: rsm_mine(ds, thresholds), "rsm-dminer"
    )
    result = rsm_mine(in_storage(dataset, storage), thresholds)
    assert result.cubes == expected


@pytest.mark.parametrize("storage", OTHER_STORAGES)
@pytest.mark.parametrize("fcp", sorted(set(FCP_MINERS) - {"dminer"}))
@pytest.mark.parametrize("shape,density,mins,seed", GRID_SAMPLE)
def test_rsm_other_fcp_miners_match_baseline(storage, fcp, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: rsm_mine(ds, thresholds), "rsm-dminer"
    )
    result = rsm_mine(in_storage(dataset, storage), thresholds, fcp_miner=fcp)
    assert result.cubes == expected


@pytest.mark.parametrize("storage", OTHER_STORAGES)
@pytest.mark.parametrize("shape,density,mins,seed", GRID_SAMPLE)
def test_rsm_oracle_matches_baseline(storage, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: rsm_mine(ds, thresholds), "rsm-dminer"
    )
    result = rsm_mine(
        in_storage(dataset, storage), thresholds, fcp_miner=_OracleMiner()
    )
    assert result.cubes == expected


# ----------------------------------------------------------------------
# CubeMiner and RSM agree with each other on every storage, and the
# reference miner agrees on the smallest configs (it is exponential).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", ALL_STORAGES)
@pytest.mark.parametrize("shape,density,mins,seed", GRID_SAMPLE)
def test_cubeminer_and_rsm_agree(storage, shape, density, mins, seed):
    dataset = in_storage(_dataset(shape, density, seed), storage)
    thresholds = Thresholds(*mins)
    assert (
        cubeminer_mine(dataset, thresholds).cubes
        == rsm_mine(dataset, thresholds).cubes
    )


@pytest.mark.parametrize("storage", ALL_STORAGES)
@pytest.mark.parametrize("shape,density,mins,seed", GRID[:6])
def test_reference_agrees_on_small_configs(storage, shape, density, mins, seed):
    dataset = in_storage(_dataset(shape, density, seed), storage)
    thresholds = Thresholds(*mins)
    expected = reference_mine(dataset, thresholds).cubes
    assert cubeminer_mine(dataset, thresholds).cubes == expected


# ----------------------------------------------------------------------
# Inline parallel drivers (n_workers=1 avoids process-spawn cost while
# still exercising the worker init + chunk code paths per storage).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("storage", ALL_STORAGES)
@pytest.mark.parametrize("shape,density,mins,seed", GRID_SAMPLE[:4])
def test_parallel_drivers_match_baseline(storage, shape, density, mins, seed):
    dataset = _dataset(shape, density, seed)
    thresholds = Thresholds(*mins)
    expected = _baseline_cubes(
        dataset, thresholds, lambda ds: cubeminer_mine(ds, thresholds), "cubeminer"
    )
    stored = in_storage(dataset, storage)
    rsm = parallel_rsm_mine(stored, thresholds, n_workers=1)
    cm = parallel_cubeminer_mine(stored, thresholds, n_workers=1)
    assert rsm.cubes == expected
    assert cm.cubes == expected


@pytest.mark.parametrize("storage", OTHER_STORAGES)
def test_parallel_two_workers_paper_example(storage):
    dataset = paper_example()
    thresholds = Thresholds(2, 2, 2)
    expected = cubeminer_mine(in_storage(dataset, BASELINE), thresholds).cubes
    result = parallel_rsm_mine(in_storage(dataset, storage), thresholds, n_workers=2)
    assert result.cubes == expected
