"""Representative Slice Mining: FCCs via 2D FCP miners (Section 4)."""

from .algorithm import RSMMiner, height_closed_in, resolve_base_axis, rsm_mine
from .incremental import append_height_slice
from .slices import (
    count_height_subsets,
    enumerate_height_subsets,
    iter_size_slices,
    representative_slice,
)

__all__ = [
    "RSMMiner",
    "rsm_mine",
    "append_height_slice",
    "resolve_base_axis",
    "height_closed_in",
    "count_height_subsets",
    "enumerate_height_subsets",
    "iter_size_slices",
    "representative_slice",
]
