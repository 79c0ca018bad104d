"""The memory-mapped dataset store (out-of-core backend).

A store entry is two files under one root, keyed — like the service's
:class:`~repro.service.registry.DatasetRegistry` — by the dataset's
content fingerprint (:func:`repro.io.dataset_fingerprint`)::

    <root>/<fp>.npy     packed (l, n, words) little-endian uint64 grid
    <root>/<fp>.json    shape, labels, one-count, creation time

The ``.npy`` holds the canonical word layout of
:func:`repro.core.kernels.words_from_tensor`, so
:meth:`MmapDatasetStore.open` hands it straight to
:meth:`repro.core.dataset.Dataset3D.open_mmap`: the mapping *is* the
dataset's storage — no copy, pages fault in on demand — and
:func:`repro.stream.outofcore.stream_mine` can mine a tensor whose
packed size exceeds RAM.  Both files are written to a
temporary name and renamed into place, so a crash mid-write never
leaves a readable-but-wrong entry.

Tensors too large to ever hold in memory enter through
:class:`StreamingSliceWriter`: height slices stream into the mapping
one at a time while the canonical content fingerprint accumulates on
the fly, so even the *writer* never holds more than one slice.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path

import numpy as np

from ..chaos.io import IOShim, StoreCorruptionError, sha256_file
from ..core.dataset import Dataset3D
from ..core.kernels import (
    WORD_DTYPE,
    release_mapped_pages,
    words_from_tensor,
    words_per_row,
)
from ..io import FingerprintStream, dataset_fingerprint
from ..obs.metrics import ChaosCounters

__all__ = ["MmapDatasetStore", "StreamingSliceWriter", "verify_grid"]

#: Version tag of the ``.json`` sidecar schema.
META_VERSION = 1


def verify_grid(path: "str | Path", meta: dict) -> None:
    """Re-hash one entry's packed grid against the digest in its sidecar.

    The one mmap content check: :meth:`MmapDatasetStore.verify` and
    ``repro-fcc fsck`` both call it.  Raises
    :class:`~repro.chaos.io.StoreCorruptionError` on mismatch and does
    nothing for pre-digest legacy entries.
    """
    expected = meta.get("sha256")
    if not expected:
        return
    actual = sha256_file(path)
    if actual != expected:
        raise StoreCorruptionError(
            "mmap", path, f"sha256 {actual[:12]} != recorded {expected[:12]}"
        )


class MmapDatasetStore:
    """Content-addressed store of packed, memory-mappable datasets.

    Opening a store sweeps temp-file debris from earlier hard kills: a
    ``.*.tmp.*`` file older than the newest committed entry cannot
    belong to a write still in flight, so it is removed (and counted in
    ``chaos.stale_temps_swept``).  Entries record the digest of their
    packed grid in the ``.json`` sidecar; :meth:`verify` re-hashes the
    file against it.
    """

    def __init__(
        self,
        root: "str | Path",
        *,
        io: "IOShim | None" = None,
        chaos: "ChaosCounters | None" = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.io = io if io is not None else IOShim()
        self.chaos = chaos if chaos is not None else ChaosCounters()
        self._sweep_stale_temps()

    def _sweep_stale_temps(self) -> int:
        """Remove temp debris that provably outlived its writer.

        Only temps strictly older than the newest committed ``.npy``
        are swept — anything newer might still be an in-flight
        :class:`StreamingSliceWriter` (which cleans up after itself on
        a soft failure; this sweep is for hard kills).  A store with no
        committed entries has no age baseline and sweeps nothing.
        """
        committed = []
        for path in self.root.glob("*.npy"):
            if path.name.startswith("."):
                continue
            try:
                committed.append(path.stat().st_mtime)
            except OSError:
                continue
        if not committed:
            return 0
        newest = max(committed)
        swept = 0
        for tmp in self.root.glob(".*"):
            if ".tmp" not in tmp.name:
                continue
            try:
                if tmp.stat().st_mtime < newest:
                    tmp.unlink()
                    swept += 1
            except OSError:
                continue
        self.chaos.stale_temps_swept += swept
        return swept

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path(self, fingerprint: str) -> Path:
        """Where the packed grid of ``fingerprint`` lives."""
        return self.root / f"{fingerprint}.npy"

    def meta_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, dataset: Dataset3D) -> str:
        """Store an in-memory dataset; returns its fingerprint.

        Re-storing the same content is a no-op (content addressing).
        For tensors too large to materialize, use :meth:`writer`.
        """
        fingerprint = dataset_fingerprint(dataset)
        if fingerprint in self:
            return fingerprint
        words = dataset.packed_grid()
        tmp = self.root / f".{fingerprint}.tmp.npy"
        try:
            np.save(tmp, words)
            # Digest the bytes we *meant* to commit, before the rename:
            # anything that mutates the file afterwards (chaos faults,
            # disk rot) is exactly what verify() must catch.
            digest = sha256_file(tmp)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.io.atomic_finalize("mmap", tmp, self.path(fingerprint))
        self._write_meta(
            fingerprint,
            dataset.shape,
            dataset.count_ones(),
            dataset.height_labels,
            dataset.row_labels,
            dataset.column_labels,
            sha256=digest,
        )
        return fingerprint

    def _write_meta(
        self,
        fingerprint: str,
        shape: tuple[int, int, int],
        n_ones: int,
        height_labels,
        row_labels,
        column_labels,
        *,
        sha256: "str | None" = None,
    ) -> None:
        meta = {
            "schema": META_VERSION,
            "fingerprint": fingerprint,
            "shape": [int(d) for d in shape],
            "n_ones": int(n_ones),
            "height_labels": [str(s) for s in height_labels],
            "row_labels": [str(s) for s in row_labels],
            "column_labels": [str(s) for s in column_labels],
            "created": time.time(),
        }
        if sha256 is not None:
            meta["sha256"] = sha256
        self.io.atomic_write_text(
            "mmap", self.meta_path(fingerprint), json.dumps(meta, indent=2)
        )

    def writer(
        self,
        shape: tuple[int, int, int],
        *,
        height_labels=None,
        row_labels=None,
        column_labels=None,
    ) -> "StreamingSliceWriter":
        """Open a :class:`StreamingSliceWriter` filling a new entry."""
        return StreamingSliceWriter(
            self,
            shape,
            height_labels=height_labels,
            row_labels=row_labels,
            column_labels=column_labels,
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def meta(self, fingerprint: str) -> dict:
        """The sidecar metadata of one entry (:class:`KeyError` if absent)."""
        path = self.meta_path(fingerprint)
        if not path.exists():
            raise KeyError(f"no stored dataset {fingerprint!r}")
        return json.loads(path.read_text())

    def verify(self, fingerprint: str) -> None:
        """Re-hash one entry's packed grid against its recorded digest.

        A whole-file hash defeats the point of memory-mapping on every
        open, so verification is explicit: ``repro-fcc fsck`` and the
        chaos battery call it; hot paths trust the digest until asked.
        Raises :class:`~repro.chaos.io.StoreCorruptionError` on
        mismatch (see :func:`verify_grid`).
        """
        try:
            verify_grid(self.path(fingerprint), self.meta(fingerprint))
        except StoreCorruptionError:
            self.chaos.corruption_detected += 1
            raise

    def open(self, fingerprint: str) -> Dataset3D:
        """Open one entry as a memory-mapped dataset."""
        meta = self.meta(fingerprint)
        return Dataset3D.open_mmap(
            self.path(fingerprint),
            tuple(meta["shape"]),
            height_labels=meta.get("height_labels"),
            row_labels=meta.get("row_labels"),
            column_labels=meta.get("column_labels"),
        )

    def list(self) -> list[str]:
        """Fingerprints of every complete entry, sorted."""
        out = []
        for meta_path in sorted(self.root.glob("*.json")):
            if meta_path.name.startswith("."):
                continue
            fingerprint = meta_path.stem
            if self.path(fingerprint).exists():
                out.append(fingerprint)
        return out

    def __contains__(self, fingerprint: str) -> bool:
        return (
            self.path(fingerprint).exists() and self.meta_path(fingerprint).exists()
        )

    def __len__(self) -> int:
        return len(self.list())


class StreamingSliceWriter:
    """Build one store entry height-slice by height-slice.

    The packed grid streams into a temporary memory-mapped ``.npy``
    (pages released as slices land, so resident memory stays one slice
    deep) while the canonical content fingerprint accumulates through
    :class:`repro.io.FingerprintStream`.  :meth:`seal` renames the finished
    file under the fingerprint it computed — until then the store never
    shows a partial entry.  Usable as a context manager; leaving the
    block without sealing aborts and removes the temporary file.
    """

    def __init__(
        self,
        store: MmapDatasetStore,
        shape: tuple[int, int, int],
        *,
        height_labels=None,
        row_labels=None,
        column_labels=None,
    ) -> None:
        l, n, m = (int(d) for d in shape)
        if min(l, n, m) < 1:
            raise ValueError(f"streamed dataset shape {shape!r} must be positive")
        self.store = store
        self.shape = (l, n, m)
        self._labels = (height_labels, row_labels, column_labels)
        self._tmp = store.root / f".stream-{uuid.uuid4().hex}.tmp.npy"
        self._grid = np.lib.format.open_memmap(
            self._tmp, mode="w+", dtype=WORD_DTYPE, shape=(l, n, words_per_row(m))
        )
        self._fingerprint = FingerprintStream(self.shape)
        self._next = 0
        self._n_ones = 0

    @property
    def slices_written(self) -> int:
        return self._next

    def append_slice(self, values) -> None:
        """Write the next height slice (an ``(n_rows, n_columns)`` 0/1 array)."""
        if self._grid is None:
            raise RuntimeError("writer is sealed or aborted")
        l, n, m = self.shape
        if self._next >= l:
            raise ValueError(f"all {l} height slices already written")
        arr = np.asarray(values)
        if arr.shape != (n, m):
            raise ValueError(
                f"height slice has shape {arr.shape}, expected {(n, m)}"
            )
        arr = arr.astype(bool, copy=False)
        self._grid[self._next] = words_from_tensor(arr[None])[0]
        release_mapped_pages(self._grid)
        self._fingerprint.update(arr)
        self._n_ones += int(arr.sum())
        self._next += 1

    def seal(self) -> str:
        """Flush, fingerprint, rename into the store; returns the fingerprint."""
        if self._grid is None:
            raise RuntimeError("writer is sealed or aborted")
        l = self.shape[0]
        if self._next != l:
            raise ValueError(
                f"only {self._next} of {l} height slices written"
            )
        self._grid.flush()
        self._grid = None
        fingerprint = self._fingerprint.hexdigest()
        digest = sha256_file(self._tmp)
        self.store.io.atomic_finalize(
            "mmap", self._tmp, self.store.path(fingerprint)
        )
        self.store._write_meta(
            fingerprint,
            self.shape,
            self._n_ones,
            self._labels[0] or [f"h{i + 1}" for i in range(self.shape[0])],
            self._labels[1] or [f"r{i + 1}" for i in range(self.shape[1])],
            self._labels[2] or [f"c{i + 1}" for i in range(self.shape[2])],
            sha256=digest,
        )
        return fingerprint

    def abort(self) -> None:
        """Drop the partial entry (idempotent)."""
        self._grid = None
        try:
            os.unlink(self._tmp)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "StreamingSliceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._grid is not None:
            self.abort()
