"""The dataset registry: upload once, mine forever.

Datasets are stored on disk under their sha256 *content* fingerprint
(:func:`repro.io.dataset_fingerprint`): ``<root>/<fp>.npz`` holds the
tensor (the library's native NPZ form, so workers load it with
:meth:`Dataset3D.load_npz`) and ``<root>/<fp>.json`` a small metadata
record.  Registering the same cell content twice — even under different
labels — lands on the same entry, which is exactly what makes the
threshold-lattice result cache shareable across uploaders.

Writes are atomic (tmp file + ``os.replace`` through the
:class:`~repro.chaos.io.IOShim`, rolled back on failure), so a daemon
killed mid-upload never leaves a half-written dataset behind; an
``.npz`` without its ``.json`` twin (or vice versa) is ignored on scan.
Reads verify: :func:`load_verified` re-fingerprints the loaded tensor
against its content address and raises a typed
:class:`~repro.chaos.io.StoreCorruptionError` on mismatch — corrupt
bytes never reach a miner.  It is the one dataset check: the registry's
:meth:`DatasetRegistry.load`, the job worker and ``repro-fcc fsck`` all
call it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..chaos.io import IOShim, StoreCorruptionError
from ..core.dataset import Dataset3D
from ..io import dataset_fingerprint
from ..obs.metrics import ChaosCounters

__all__ = ["DatasetEntry", "DatasetRegistry", "load_verified"]


def load_verified(path: "str | Path", fingerprint: str) -> Dataset3D:
    """Load one stored ``.npz`` and check it against its content address.

    Raises :class:`~repro.chaos.io.StoreCorruptionError` when the archive
    does not decode or its tensor does not hash to ``fingerprint``
    (disk rot, a truncated write that survived, anything), and
    :class:`OSError` when the file cannot be read.
    """
    try:
        dataset = Dataset3D.load_npz(path)
    except OSError:
        raise
    except Exception as error:  # numpy/zipfile raise untyped decode errors
        raise StoreCorruptionError(
            "registry", path, f"unreadable npz: {error}"
        ) from error
    actual = dataset_fingerprint(dataset)
    if actual != fingerprint:
        raise StoreCorruptionError(
            "registry",
            path,
            f"fingerprint {actual[:12]} != expected {fingerprint[:12]}",
        )
    return dataset


@dataclass(frozen=True)
class DatasetEntry:
    """Metadata of one registered dataset."""

    fingerprint: str
    shape: tuple[int, int, int]
    n_ones: int
    created: float

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "shape": list(self.shape),
            "n_ones": self.n_ones,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DatasetEntry":
        return cls(
            fingerprint=str(payload["fingerprint"]),
            shape=tuple(int(s) for s in payload["shape"]),  # type: ignore[arg-type]
            n_ones=int(payload["n_ones"]),
            created=float(payload.get("created", 0.0)),
        )


class DatasetRegistry:
    """Content-addressed persistent dataset store."""

    def __init__(
        self,
        root: str | Path,
        *,
        io: "IOShim | None" = None,
        chaos: "ChaosCounters | None" = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.io = io if io is not None else IOShim()
        self.chaos = chaos if chaos is not None else ChaosCounters()
        self._lock = threading.Lock()
        self._entries: dict[str, DatasetEntry] = {}
        self._scan()

    def _scan(self) -> None:
        for meta_path in sorted(self.root.glob("*.json")):
            fp = meta_path.stem
            if not (self.root / f"{fp}.npz").exists():
                continue  # half-registered leftovers are invisible
            try:
                entry = DatasetEntry.from_dict(json.loads(meta_path.read_text()))
            except (ValueError, KeyError, TypeError):
                continue
            if entry.fingerprint == fp:
                self._entries[fp] = entry

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def register(self, dataset: Dataset3D) -> DatasetEntry:
        """Store a dataset; a re-upload of known content is a no-op."""
        fp = dataset_fingerprint(dataset)
        with self._lock:
            existing = self._entries.get(fp)
            if existing is not None:
                return existing
            entry = DatasetEntry(
                fingerprint=fp,
                shape=dataset.shape,
                n_ones=dataset.count_ones(),
                created=time.time(),
            )
            # The tmp name must keep the .npz suffix: numpy appends one
            # to anything else, and the rename source would not exist.
            npz_tmp = self.root / f".{fp}.tmp.npz"
            try:
                dataset.save_npz(npz_tmp)
            except OSError:
                try:
                    os.unlink(npz_tmp)
                except OSError:
                    pass
                raise
            self.io.atomic_finalize("registry", npz_tmp, self.root / f"{fp}.npz")
            self.io.atomic_write_text(
                "registry",
                self.root / f"{fp}.json",
                json.dumps(entry.to_dict(), indent=2),
            )
            self._entries[fp] = entry
            return entry

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> DatasetEntry:
        """Metadata for one fingerprint (KeyError if unregistered)."""
        with self._lock:
            return self._entries[fingerprint]

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def path(self, fingerprint: str) -> Path:
        """Filesystem path of the stored NPZ (KeyError if unregistered)."""
        self.get(fingerprint)
        return self.root / f"{fingerprint}.npz"

    def load(self, fingerprint: str) -> Dataset3D:
        """Materialize a registered dataset, verified by :func:`load_verified`.

        A mismatch raises :class:`~repro.chaos.io.StoreCorruptionError`
        (counted in ``corruption_detected``) instead of letting corrupt
        cells masquerade as the registered dataset.
        """
        path = self.path(fingerprint)
        self.io.check("registry", "read", str(path))
        try:
            return load_verified(path, fingerprint)
        except StoreCorruptionError:
            self.chaos.corruption_detected += 1
            raise

    def list(self) -> list[DatasetEntry]:
        """All entries, newest first."""
        with self._lock:
            return sorted(
                self._entries.values(), key=lambda e: e.created, reverse=True
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
