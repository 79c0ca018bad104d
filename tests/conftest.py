"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
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
