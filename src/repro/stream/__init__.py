"""Dynamic FCC maintenance and out-of-core datasets (``repro.stream``).

The paper mines a static tensor that fits in RAM.  This package covers
the two workloads beyond that setting:

* **Dynamic maintenance** — a production tensor receives cell edits and
  slice appends/drops over time.  :func:`apply_deltas` applies a typed
  delta batch (:class:`SetCell` / :class:`ClearCell` /
  :class:`AppendSlice` / :class:`DropSlice`), :class:`DeltaLog` journals
  batches with the checkpoint layer's fingerprint discipline, and
  :func:`maintain` / :class:`IncrementalMaintainer` update an existing
  FCC result to the edited tensor — patching surviving cubes and
  re-mining only the height subsets that intersect the dirty region —
  with output bit-identical to a fresh ``mine()``.
* **Out-of-core mining** — :class:`MmapDatasetStore` persists packed
  uint64 grids as memory-mapped ``.npy`` files
  (:meth:`repro.core.dataset.Dataset3D.open_mmap`); it is also the
  service daemon's one dataset store.  :func:`stream_mine` runs RSM
  over such a mapping in bounded memory: representative slices fold
  chunk-by-chunk with mapped pages released as soon as they are
  consumed, optionally after a diamond-dicing prefilter
  (:func:`diamond_dice`, re-exported from :mod:`repro.core.dice`)
  shrinks the active region.

See ``docs/streaming.md`` for delta semantics, the mmap layout, and the
service's cache-patching rules.
"""

from ..core.dice import DiceRegion, diamond_dice
from .delta import (
    AppendSlice,
    ClearCell,
    Delta,
    DeltaApplication,
    DeltaLog,
    DeltaLogMismatchError,
    DropSlice,
    SetCell,
    apply_deltas,
    delta_from_dict,
    delta_to_dict,
    deltas_from_payload,
    deltas_to_payload,
)
from .maintain import IncrementalMaintainer, maintain
from .outofcore import stream_mine
from .store import MmapDatasetStore, StreamingSliceWriter

__all__ = [
    "SetCell",
    "ClearCell",
    "AppendSlice",
    "DropSlice",
    "Delta",
    "DeltaApplication",
    "apply_deltas",
    "delta_to_dict",
    "delta_from_dict",
    "deltas_to_payload",
    "deltas_from_payload",
    "DeltaLog",
    "DeltaLogMismatchError",
    "maintain",
    "IncrementalMaintainer",
    "MmapDatasetStore",
    "StreamingSliceWriter",
    "stream_mine",
    "diamond_dice",
    "DiceRegion",
]
