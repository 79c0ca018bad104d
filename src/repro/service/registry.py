"""The dataset registry: upload once, mine forever.

The daemon keeps every dataset once, under ``<data_dir>/datasets/``, in
the word-grid store of :mod:`repro.stream.store`: ``<fp>.npy`` holds the
packed grid and ``<fp>.json`` its metadata, keyed by the sha256 *content*
fingerprint (:func:`repro.io.dataset_fingerprint`).
:class:`DatasetRegistry` is that store's class under the service's name:
:meth:`~repro.stream.store.MmapDatasetStore.register` writes an entry and
:meth:`~repro.stream.store.MmapDatasetStore.load` reads one verified and
memory-mapped.  This module adds the entry record the HTTP API serves.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..stream.store import MmapDatasetStore

__all__ = ["DatasetEntry", "DatasetRegistry"]

#: The daemon's dataset store (one class, two names).
DatasetRegistry = MmapDatasetStore


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
