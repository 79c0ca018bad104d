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
service's cache-patching rules.  The other public names load lazily
(:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

# ``maintain`` is also the name of the submodule that defines it: bound
# lazily, it would read as the module once anything imported
# ``repro.stream.maintain``.  So these two are imported here.
from .maintain import IncrementalMaintainer, maintain

_EXPORTS = {
    "SetCell": ".delta",
    "ClearCell": ".delta",
    "AppendSlice": ".delta",
    "DropSlice": ".delta",
    "Delta": ".delta",
    "DeltaApplication": ".delta",
    "apply_deltas": ".delta",
    "delta_to_dict": ".delta",
    "delta_from_dict": ".delta",
    "deltas_to_payload": ".delta",
    "deltas_from_payload": ".delta",
    "DeltaLog": ".delta",
    "DeltaLogMismatchError": ".delta",
    "MmapDatasetStore": ".store",
    "StreamingSliceWriter": ".store",
    "stream_mine": ".outofcore",
    "diamond_dice": "..core.dice",
    "DiceRegion": "..core.dice",
}

__all__ = ["maintain", "IncrementalMaintainer", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
