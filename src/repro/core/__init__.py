"""Core model: datasets, cubes, closure operators, constraints, results."""

from .bitset import bit_count, full_mask, indices, mask_of
from .closure import (
    close,
    column_support,
    height_support,
    is_all_ones,
    is_closed_cube,
    row_support,
)
from .constraints import Thresholds
from .cube import Cube
from .dataset import Dataset3D
from .reference import reference_mine
from .result import MiningResult, MiningStats
from .verify import VerificationReport, Violation, verify_result

__all__ = [
    "bit_count",
    "full_mask",
    "indices",
    "mask_of",
    "close",
    "column_support",
    "height_support",
    "row_support",
    "is_all_ones",
    "is_closed_cube",
    "Thresholds",
    "Cube",
    "Dataset3D",
    "reference_mine",
    "MiningResult",
    "MiningStats",
    "VerificationReport",
    "Violation",
    "verify_result",
]
