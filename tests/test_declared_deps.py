"""The declared runtime dependencies cover what the package calls.

``np.bitwise_count`` (numpy >= 2.0) backs the numpy kernel's popcounts
and ``stream.outofcore.diamond_dice``, so ``pyproject.toml`` must not
admit an older numpy.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np

if sys.version_info >= (3, 11):
    import tomllib
else:  # Python 3.10: pip vendors the same parser
    from pip._vendor import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def numpy_floor() -> tuple[int, ...]:
    with PYPROJECT.open("rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    floors = [
        match.group(1)
        for dependency in dependencies
        if (match := re.fullmatch(r"numpy\s*>=\s*([0-9.]+)\s*", dependency))
    ]
    assert len(floors) == 1, f"expected one 'numpy>=X' entry, got {dependencies}"
    return tuple(int(part) for part in floors[0].split("."))


def test_numpy_floor_has_bitwise_count():
    assert numpy_floor() >= (2, 0)


def test_installed_numpy_has_bitwise_count():
    assert hasattr(np, "bitwise_count")
