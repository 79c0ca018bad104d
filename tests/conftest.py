"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.kernels import words_from_tensor
from repro.datasets import paper_example


@pytest.fixture
def paper_ds() -> Dataset3D:
    """The paper's Table 1 running example (3 x 4 x 5)."""
    return paper_example()


@pytest.fixture
def paper_thresholds() -> Thresholds:
    """The thresholds used throughout the paper's example: all 2."""
    return Thresholds(2, 2, 2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_dataset(
    rng: np.random.Generator,
    max_dim: int = 6,
    density_range: tuple[float, float] = (0.2, 0.95),
) -> Dataset3D:
    """A small random dataset for oracle comparisons."""
    l, n, m = rng.integers(1, max_dim + 1, size=3)
    density = rng.uniform(*density_range)
    return Dataset3D(rng.random((l, n, m)) < density)


#: The two storages a dataset can have, as test parameter ids.  The ids
#: keep their historical names: ``"python-int"`` is a dataset built from
#: a boolean tensor, ``"numpy"`` one over packed little-endian uint64
#: words (:meth:`Dataset3D.from_packed_grid`, the storage behind
#: memory-mapped opens and shared-memory attach).  The miners compute on
#: one int mask grid either way; tests parametrised over these pin that
#: both storages build the same grid and mine the same cubes.
STORAGES = ("numpy", "python-int")


def in_storage(dataset: Dataset3D, storage: str) -> Dataset3D:
    """``dataset`` rebuilt over the named storage (see :data:`STORAGES`)."""
    if storage == "python-int":
        return Dataset3D(
            dataset.data,
            height_labels=dataset.height_labels,
            row_labels=dataset.row_labels,
            column_labels=dataset.column_labels,
        )
    if storage == "numpy":
        return Dataset3D.from_packed_grid(
            words_from_tensor(dataset.data),
            dataset.shape,
            height_labels=dataset.height_labels,
            row_labels=dataset.row_labels,
            column_labels=dataset.column_labels,
        )
    raise ValueError(f"unknown storage {storage!r}; expected one of {STORAGES}")


def grid_dataset(grid: list[list[int]], n_bits: int) -> Dataset3D:
    """The tensor-built dataset whose row ``(k, i)`` has the cells of ``grid[k][i]``."""
    data = np.zeros((len(grid), len(grid[0]), n_bits), dtype=bool)
    for k, per_height in enumerate(grid):
        for i, mask in enumerate(per_height):
            data[k, i] = [bool(mask >> j & 1) for j in range(n_bits)]
    return Dataset3D(data)


def grid_in_storage(grid: list[list[int]], n_bits: int, storage: str) -> list[list[int]]:
    """The int mask grid a dataset of ``grid``'s cells reads from ``storage``."""
    return in_storage(grid_dataset(grid, n_bits), storage).ones_grid()


def masks_in_storage(masks: list[int], n_bits: int, storage: str) -> list[int]:
    """``masks`` stored as the rows of one height slice and read back."""
    return grid_in_storage([masks], n_bits, storage)[0]
