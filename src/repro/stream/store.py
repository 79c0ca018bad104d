"""The dataset store: every dataset once, as its packed word grid.

An entry is two files under one root, keyed by the dataset's content
fingerprint (:func:`repro.io.dataset_fingerprint`)::

    <root>/<fp>.npy     packed (l, n, words) little-endian uint64 grid
    <root>/<fp>.json    fingerprint, shape, one-count, labels, creation
                        time, the sha256 of the ``.npy`` and the sha256
                        of the sidecar itself (``meta_sha256``)

It is the mining daemon's one dataset store (``<data_dir>/datasets/``;
:class:`repro.service.registry.DatasetRegistry` is this class) and the
out-of-core backend.  Registering the same cell content twice — even
under different labels — lands on the same entry, which is what makes
the threshold-lattice result cache shareable across uploaders.

The ``.npy`` holds the canonical word layout of
:func:`repro.core.kernels.words_from_tensor`, so :meth:`MmapDatasetStore.load`
hands it straight to :meth:`repro.core.dataset.Dataset3D.open_mmap`: the
mapping *is* the dataset's storage — no copy, pages fault in on demand
— and :func:`repro.stream.outofcore.stream_mine` can mine a tensor
whose packed size exceeds RAM.  Reads verify: :func:`read_meta` checks
the sidecar against its own digest, and :func:`open_entry` re-hashes
the grid against the digest in the sidecar before mapping it, so
corrupt bytes in either file never reach a miner.  It is the one
dataset read: the store's :meth:`~MmapDatasetStore.load` and the job
worker call it, and ``repro-fcc fsck`` calls its content checks,
:func:`verify_meta` and :func:`verify_grid`.

Both files are written to a temporary name unique to the writer and
renamed into place through the :class:`~repro.chaos.io.IOShim` (chaos
site ``registry``), so a crash mid-write never leaves a
readable-but-wrong entry and concurrent writers of one fingerprint
never share a temp file.  Tensors too large to ever hold in memory
enter through :class:`StreamingSliceWriter`: height slices stream into
the mapping one at a time while the canonical content fingerprint
accumulates on the fly, so even the *writer* never holds more than one
slice.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..chaos.io import IOShim, StoreCorruptionError, sha256_bytes, sha256_file
from ..core.dataset import Dataset3D
from ..core.kernels import (
    WORD_DTYPE,
    release_mapped_pages,
    words_from_tensor,
    words_per_row,
)
from ..io import FingerprintStream, dataset_fingerprint
from ..obs.metrics import ChaosCounters

if TYPE_CHECKING:
    from ..service.registry import DatasetEntry

__all__ = [
    "MmapDatasetStore",
    "StreamingSliceWriter",
    "open_entry",
    "read_meta",
    "verify_grid",
    "verify_meta",
]

#: Version tag of the ``.json`` sidecar schema.
META_VERSION = 1


def read_meta(meta_path: "str | Path", fingerprint: str) -> dict:
    """The sidecar of entry ``fingerprint``, verified by :func:`verify_meta`.

    The one metadata rule: a sidecar that is missing, is not a JSON
    object, or names another fingerprint makes its entry invisible
    (:class:`KeyError`); one that fails its own digest raises
    :class:`~repro.chaos.io.StoreCorruptionError`.
    """
    try:
        meta = json.loads(Path(meta_path).read_text())
    except FileNotFoundError:
        raise KeyError(f"no stored dataset {fingerprint!r}") from None
    except ValueError:
        meta = None
    if not isinstance(meta, dict) or meta.get("fingerprint") != fingerprint:
        raise KeyError(f"no valid metadata for dataset {fingerprint!r}")
    verify_meta(meta_path, meta)
    return meta


def _meta_digest(meta: dict) -> str:
    """sha256 of a sidecar's canonical JSON, its own digest left out."""
    body = {key: value for key, value in meta.items() if key != "meta_sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return sha256_bytes(canonical.encode())


def verify_meta(path: "str | Path", meta: dict) -> None:
    """Check a sidecar's fields against the digest it records.

    Raises :class:`~repro.chaos.io.StoreCorruptionError` on a mismatch
    or a sidecar without a digest.
    """
    recorded = meta.get("meta_sha256")
    if not isinstance(recorded, str) or not recorded:
        raise StoreCorruptionError("registry", path, "no recorded sidecar sha256")
    actual = _meta_digest(meta)
    if actual != recorded:
        raise StoreCorruptionError(
            "registry",
            path,
            f"sidecar sha256 {actual[:12]} != recorded {recorded[:12]}",
        )


def verify_grid(path: "str | Path", meta: dict) -> None:
    """Re-hash one entry's packed grid against the digest in its sidecar.

    The one dataset content check: :func:`open_entry` and
    ``repro-fcc fsck`` both call it.  Raises
    :class:`~repro.chaos.io.StoreCorruptionError` on a mismatch or a
    sidecar without a digest.
    """
    expected = meta.get("sha256")
    if not isinstance(expected, str) or not expected:
        raise StoreCorruptionError("registry", path, "no recorded sha256")
    actual = sha256_file(path)
    if actual != expected:
        raise StoreCorruptionError(
            "registry", path, f"sha256 {actual[:12]} != recorded {expected[:12]}"
        )


def open_entry(path: "str | Path", fingerprint: str) -> Dataset3D:
    """Verify one stored grid, then open it memory-mapped.

    ``path`` is the entry's ``.npy``; its sidecar sits next to it.
    Raises :class:`KeyError` when the sidecar is missing or invalid
    (:func:`read_meta`), :class:`~repro.chaos.io.StoreCorruptionError`
    when the grid fails its digest or does not decode, and
    :class:`OSError` when a file cannot be read.  A plain function, so
    job workers read without constructing a store.
    """
    path = Path(path)
    meta = read_meta(path.with_suffix(".json"), fingerprint)
    verify_grid(path, meta)
    try:
        return Dataset3D.open_mmap(
            path,
            tuple(meta["shape"]),
            height_labels=meta.get("height_labels"),
            row_labels=meta.get("row_labels"),
            column_labels=meta.get("column_labels"),
        )
    except (ValueError, KeyError, TypeError) as error:
        raise StoreCorruptionError(
            "registry", path, f"unreadable grid: {error}"
        ) from error


class MmapDatasetStore:
    """Content-addressed store of packed, memory-mappable datasets.

    Opening a store does two pieces of upkeep.  It sweeps temp-file
    debris from earlier hard kills: a ``.*.tmp.*`` file older than the
    newest committed entry cannot belong to a write still in flight, so
    it is removed (and counted in ``chaos.stale_temps_swept``).  Then it
    brings entries written by older daemons up to date (:meth:`_migrate`).
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
        self._lock = threading.Lock()
        self._sweep_stale_temps()
        self._migrate()

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

    def _migrate(self) -> None:
        """Convert ``<fp>.npz`` entries and digest older sidecars.

        Older daemons stored each dataset as an NPZ tensor with a
        four-field sidecar.  A pair whose tensor hashes to its
        fingerprint is rewritten as a packed grid (keeping ``created``)
        and its ``.npz`` removed.  A sidecar without its own digest gets
        one when its grid verifies.  Anything that does not decode, fails
        its hash or cannot be rewritten stays in place for
        ``repro-fcc fsck`` to report.
        """
        for npz in sorted(self.root.glob("*.npz")):
            fingerprint = npz.stem
            if npz.name.startswith("."):
                continue
            try:
                meta = json.loads(self.meta_path(fingerprint).read_text())
                created = float(meta["created"])
                dataset = Dataset3D.load_npz(npz)
            except Exception:  # noqa: BLE001 - numpy/zipfile decode errors are untyped
                continue
            if dataset_fingerprint(dataset) != fingerprint:
                continue
            try:
                self._write(fingerprint, dataset, created=created)
                if fingerprint in self:
                    npz.unlink()
            except OSError:
                continue
        for meta_path in sorted(self.root.glob("*.json")):
            if meta_path.name.startswith("."):
                continue
            try:
                meta = json.loads(meta_path.read_text())
                if "meta_sha256" in meta or meta["fingerprint"] != meta_path.stem:
                    continue
                verify_grid(self.path(meta_path.stem), meta)
                meta["meta_sha256"] = _meta_digest(meta)
                self.io.atomic_write_text(
                    "registry", meta_path, json.dumps(meta, indent=2)
                )
            except (ValueError, TypeError, KeyError, OSError, StoreCorruptionError):
                continue

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
    def register(self, dataset: Dataset3D) -> "DatasetEntry":
        """Store a dataset; returns its :class:`~repro.service.registry.DatasetEntry`.

        Re-registering known content is a no-op (content addressing).
        The entry is read back before it is returned: a sidecar write
        that does not read back (torn, say) raises ``EIO``, and the next
        call writes the entry again.  For tensors too large to
        materialize, use :meth:`writer`.
        """
        fingerprint = dataset_fingerprint(dataset)
        with self._lock:
            try:
                return self.get(fingerprint)
            except KeyError:
                pass
            self._write(fingerprint, dataset)
            try:
                return self.get(fingerprint)
            except KeyError:
                raise OSError(
                    errno.EIO,
                    f"metadata of dataset {fingerprint[:12]} did not read back",
                ) from None

    def _write(
        self, fingerprint: str, dataset: Dataset3D, *, created: "float | None" = None
    ) -> None:
        # np.save appends ".npy" to any other suffix, so the temp keeps it.
        tmp = self.root / f".{fingerprint}.{uuid.uuid4().hex[:8]}.tmp.npy"
        try:
            np.save(tmp, dataset.packed_grid())
            # Digest the bytes we *meant* to commit, before the rename:
            # anything that mutates the file afterwards (chaos faults,
            # disk rot) is exactly what verify_grid() must catch.
            digest = sha256_file(tmp)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._commit(
            fingerprint,
            tmp,
            digest,
            dataset.shape,
            dataset.count_ones(),
            (dataset.height_labels, dataset.row_labels, dataset.column_labels),
            created=created,
        )

    def _commit(
        self,
        fingerprint: str,
        tmp: Path,
        digest: str,
        shape: tuple[int, int, int],
        n_ones: int,
        labels: tuple,
        *,
        created: "float | None" = None,
    ) -> None:
        """Rename a written temp grid into place, then write its sidecar."""
        self.io.atomic_finalize("registry", tmp, self.path(fingerprint))
        meta = {
            "schema": META_VERSION,
            "fingerprint": fingerprint,
            "shape": [int(d) for d in shape],
            "n_ones": int(n_ones),
            "height_labels": [str(s) for s in labels[0]],
            "row_labels": [str(s) for s in labels[1]],
            "column_labels": [str(s) for s in labels[2]],
            "created": time.time() if created is None else created,
            "sha256": digest,
        }
        meta["meta_sha256"] = _meta_digest(meta)
        self.io.atomic_write_text(
            "registry", self.meta_path(fingerprint), json.dumps(meta, indent=2)
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
        """The sidecar of one complete entry.

        Raises :class:`KeyError` when the entry has no ``.npy`` or
        :func:`read_meta` rejects its sidecar, and
        :class:`~repro.chaos.io.StoreCorruptionError` when the sidecar
        fails its digest.
        """
        meta = read_meta(self.meta_path(fingerprint), fingerprint)
        if not self.path(fingerprint).exists():
            raise KeyError(f"no stored dataset {fingerprint!r}")
        return meta

    def get(self, fingerprint: str) -> "DatasetEntry":
        """The :class:`~repro.service.registry.DatasetEntry` of one entry.

        Raises :class:`KeyError` for an unknown fingerprint or an entry
        whose sidecar :func:`read_meta` rejects.  A sidecar that fails
        its digest is counted in ``corruption_detected`` and hides its
        entry the same way, so registering the dataset again rewrites it.
        """
        from ..service.registry import DatasetEntry

        try:
            return DatasetEntry.from_dict(self.meta(fingerprint))
        except StoreCorruptionError:
            self.chaos.corruption_detected += 1
            raise KeyError(f"corrupt metadata for dataset {fingerprint!r}") from None
        except (ValueError, TypeError):
            raise KeyError(f"no valid metadata for dataset {fingerprint!r}") from None

    def load(self, fingerprint: str) -> Dataset3D:
        """Open one entry memory-mapped, verified by :func:`open_entry`.

        A digest mismatch raises
        :class:`~repro.chaos.io.StoreCorruptionError` (counted in
        ``corruption_detected``) instead of letting corrupt cells
        masquerade as the registered dataset.
        """
        path = self.path(fingerprint)
        self.io.check("registry", "read", str(path))
        try:
            return open_entry(path, fingerprint)
        except StoreCorruptionError:
            self.chaos.corruption_detected += 1
            raise

    def list(self) -> "list[DatasetEntry]":
        """Every complete entry's ``DatasetEntry``, newest first."""
        entries = []
        for meta_path in self.root.glob("*.json"):
            if meta_path.name.startswith("."):
                continue
            try:
                entries.append(self.get(meta_path.stem))
            except KeyError:
                continue
        return sorted(entries, key=lambda e: e.created, reverse=True)

    def __contains__(self, fingerprint: str) -> bool:
        try:
            self.get(fingerprint)
        except KeyError:
            return False
        return True

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
        self.store._commit(
            fingerprint,
            self._tmp,
            sha256_file(self._tmp),
            self.shape,
            self._n_ones,
            (
                self._labels[0] or [f"h{i + 1}" for i in range(self.shape[0])],
                self._labels[1] or [f"r{i + 1}" for i in range(self.shape[1])],
                self._labels[2] or [f"c{i + 1}" for i in range(self.shape[2])],
            ),
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
