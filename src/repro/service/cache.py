"""The threshold-lattice result cache.

Threshold monotonicity (Definition 3.3: all four FCC constraints are
anti-monotone) gives the cache its shape: the FCC set mined at loose
thresholds ``t`` contains, as a subset, the FCC set of every
element-wise tighter ``t'`` — closedness is a property of the dataset
alone, so tightening thresholds only *filters* the result, never
changes a cube.  Completed results are therefore stored per
``(dataset_fingerprint, algorithm)`` under their exact thresholds, and
a query is answered whenever any stored entry *dominates* it
(:meth:`Thresholds.dominates`): the stored cube list is filtered with
:meth:`Cube.satisfies` and served with ``cache_hit`` / ``filtered_from``
provenance in ``MiningStats.extra["cache"]``.

Entries persist under ``<root>/<fp>/<algorithm>/<h>-<r>-<c>-<v>.json``
as the checksummed result document of
:meth:`~repro.chaos.io.IOShim.write_document` (``{"schema": 1,
"sha256": <digest of the payload bytes>, "payload":
<MiningResult.to_payload()>}``), so a restarted daemon reopens its
whole cache by scanning the tree.  Every read goes through
:meth:`~repro.chaos.io.IOShim.read_document`; an entry that fails (bit
rot, torn write) degrades to a **miss** and is evicted, never served —
the caller simply mines fresh and re-stores.  Plain pre-envelope
payload files from older daemons still load (unverified).  Hit / miss /
filter counters are kept for ``/health``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

from ..chaos.io import IOShim, StoreCorruptionError
from ..core.constraints import Thresholds
from ..core.result import MiningResult, MiningStats
from ..obs.metrics import ChaosCounters

__all__ = ["CacheAnswer", "ThresholdLatticeCache", "load_entry_payload"]


def load_entry_payload(path: "str | Path") -> dict:
    """Read one stored cache file through the one document reader.

    Returns the ``MiningResult`` payload dict; a file that fails
    verification raises :class:`~repro.chaos.io.StoreCorruptionError`.
    """
    return IOShim().read_document("cache", path)


@dataclass
class CacheAnswer:
    """One cache-served result with its provenance."""

    #: The filtered result, thresholded at the *query* thresholds.
    result: MiningResult
    #: Thresholds the source entry was actually mined at.
    filtered_from: Thresholds
    #: True when the query matched a stored entry exactly (no filtering).
    exact: bool
    #: Cubes dropped by the threshold filter.
    cubes_filtered: int


def _key_name(thresholds: Thresholds) -> str:
    return (
        f"{thresholds.min_h}-{thresholds.min_r}-"
        f"{thresholds.min_c}-{thresholds.min_volume}"
    )


class ThresholdLatticeCache:
    """Persistent result cache ordered by threshold dominance."""

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
        #: (fingerprint, algorithm) -> {thresholds: result-file path}
        self._index: dict[tuple[str, str], dict[Thresholds, Path]] = {}
        self.hits = 0
        self.misses = 0
        self.filtered_served = 0
        self._scan()

    def _scan(self) -> None:
        for path in sorted(self.root.glob("*/*/*.json")):
            algorithm_dir = path.parent
            fp = algorithm_dir.parent.name
            algorithm = algorithm_dir.name
            try:
                h, r, c, v = (int(part) for part in path.stem.split("-"))
                thresholds = Thresholds(h, r, c, min_volume=v)
            except (ValueError, TypeError):
                continue
            self._index.setdefault((fp, algorithm), {})[thresholds] = path

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(
        self,
        fingerprint: str,
        algorithm: str,
        result: MiningResult,
    ) -> None:
        """Store one completed result under its exact thresholds.

        Results without thresholds (never produced by the service) are
        ignored rather than stored unkeyed.
        """
        if result.thresholds is None:
            return
        entry_dir = self.root / fingerprint / algorithm
        entry_dir.mkdir(parents=True, exist_ok=True)
        path = entry_dir / f"{_key_name(result.thresholds)}.json"
        self.io.write_document("cache", path, result.to_payload())
        with self._lock:
            self._index.setdefault((fingerprint, algorithm), {})[
                result.thresholds
            ] = path

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lookup(
        self,
        fingerprint: str,
        algorithm: str,
        thresholds: Thresholds,
    ) -> CacheAnswer | None:
        """Answer a query from the lattice, or ``None`` on a miss.

        Among all stored entries dominating the query, the tightest one
        (largest threshold sum) is filtered — it holds the fewest
        extraneous cubes.  An exact-threshold entry short-circuits with
        no filtering at all.
        """
        with self._lock:
            entries = dict(self._index.get((fingerprint, algorithm), {}))
        best: tuple[Thresholds, Path] | None = None
        for stored, path in entries.items():
            if stored == thresholds:
                best = (stored, path)
                break
            if stored.dominates(thresholds):
                if best is None or self._tightness(stored) > self._tightness(
                    best[0]
                ):
                    best = (stored, path)
        if best is None:
            with self._lock:
                self.misses += 1
            return None
        stored_thresholds, path = best
        try:
            source = MiningResult.from_payload(self.io.read_document("cache", path))
        except (
            OSError, ValueError, KeyError, TypeError, StoreCorruptionError
        ) as error:
            # A vanished or corrupt entry degrades to a miss, never an
            # error: the caller simply mines fresh (and re-stores).
            # Corruption additionally evicts the poisoned file so a
            # restart cannot resurrect it.
            with self._lock:
                self._index.get((fingerprint, algorithm), {}).pop(
                    stored_thresholds, None
                )
                self.misses += 1
            if not isinstance(error, OSError):
                self.chaos.corruption_detected += 1
                self.chaos.corruption_evicted += 1
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return None
        exact = stored_thresholds == thresholds
        kept = (
            source.cubes
            if exact
            else [cube for cube in source.cubes if cube.satisfies(thresholds)]
        )
        cubes_filtered = len(source.cubes) - len(kept)
        extra = {
            "cache": {
                "hit": True,
                "exact": exact,
                "filtered_from": stored_thresholds.to_dict(),
                "cubes_scanned": len(source.cubes),
                "cubes_kept": len(kept),
                "cubes_filtered": cubes_filtered,
            }
        }
        result = MiningResult(
            cubes=kept,
            algorithm=source.algorithm,
            thresholds=thresholds,
            dataset_shape=source.dataset_shape,
            elapsed_seconds=0.0,
            stats=MiningStats(metrics=source.stats.metrics, extra=extra),
        )
        with self._lock:
            self.hits += 1
            if not exact:
                self.filtered_served += 1
        return CacheAnswer(
            result=result,
            filtered_from=stored_thresholds,
            exact=exact,
            cubes_filtered=cubes_filtered,
        )

    def entries(self, fingerprint: str) -> list[tuple[str, Thresholds, Path]]:
        """Every stored ``(algorithm, thresholds, path)`` of one dataset.

        This is the maintenance fan-out set: when a dataset evolves
        through ``POST /v1/datasets/{fp}/updates``, each entry here
        spawns one incremental-maintenance job whose output lands under
        the successor fingerprint — the lattice is *patched forward*,
        never dropped.
        """
        with self._lock:
            out = [
                (algorithm, thresholds, path)
                for (fp, algorithm), stored in self._index.items()
                if fp == fingerprint
                for thresholds, path in stored.items()
            ]
        return sorted(out, key=lambda item: (item[0], _key_name(item[1])))

    def entry_path(
        self,
        fingerprint: str,
        algorithm: str,
        thresholds: Thresholds,
    ) -> Path | None:
        """The stored file of one *exact* entry, or ``None``."""
        with self._lock:
            return self._index.get((fingerprint, algorithm), {}).get(thresholds)

    @staticmethod
    def _tightness(thresholds: Thresholds) -> tuple[int, int]:
        return (
            thresholds.min_h
            + thresholds.min_r
            + thresholds.min_c,
            thresholds.min_volume,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot for ``/health`` and benchmarks."""
        with self._lock:
            entries = sum(len(v) for v in self._index.values())
            return {
                "entries": entries,
                "hits": self.hits,
                "misses": self.misses,
                "filtered_served": self.filtered_served,
            }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._index.values())
