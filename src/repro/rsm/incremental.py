"""Incremental FCC maintenance under height-slice appends.

Microarray series and sales logs grow along one axis (a new time
point, a new month).  Re-mining from scratch discards everything known
about the old tensor; :func:`append_height_slice` updates an existing
result instead.  It is the one-height-append case of
:func:`repro.stream.maintain`: the new slice is the only dirty height,
so old cubes are patched forward (gaining the new height where it
covers their region) and the only cubes re-mined are those through the
new slice, by a CubeMiner run restricted to that height.
"""

from __future__ import annotations

import numpy as np

from ..core.constraints import Thresholds
from ..core.dataset import Dataset3D
from ..core.result import MiningResult

__all__ = ["append_height_slice"]


def append_height_slice(
    dataset: Dataset3D,
    result: MiningResult,
    new_slice,
    thresholds: Thresholds | None = None,
    *,
    slice_label: str | None = None,
) -> tuple[Dataset3D, MiningResult]:
    """Extend ``dataset`` by one height slice and update ``result``.

    Parameters
    ----------
    dataset:
        The old tensor (``result`` must be its complete FCC set at
        ``thresholds`` — this is NOT validated here; see
        :func:`repro.core.verify.verify_result`).
    result:
        The old mining result.
    new_slice:
        A boolean/0-1 array of shape ``(n_rows, n_columns)``.
    thresholds:
        Defaults to ``result.thresholds``.
    slice_label:
        Height label for the new slice (defaults to ``h<l+1>``).

    Returns the extended dataset and the updated result, exactly as
    :func:`repro.stream.maintain` reports them.
    """
    # Imported here: repro.stream imports repro.rsm at module load.
    from ..stream import AppendSlice, maintain

    append = AppendSlice(0, np.asarray(new_slice, dtype=bool), slice_label)
    return maintain(dataset, result, [append], thresholds)
