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
:meth:`Thresholds.admits` and served with ``cache_hit`` /
``filtered_from`` provenance in ``MiningStats.extra["cache"]``.

Entries persist under ``<root>/<fp>/<algorithm>/<h>-<r>-<c>-<v>.json``
as the checksummed result document of
:meth:`~repro.chaos.io.IOShim.write_document` (``{"schema": 1,
"sha256": <digest of the payload bytes>, "payload":
<MiningResult.to_payload()>}``), so a restarted daemon reopens its
whole cache by scanning the tree.

Every lookup re-reads its entry's bytes and re-hashes them
(:meth:`~repro.chaos.io.IOShim.read_verified`); an entry that fails
(bit rot, torn write) degrades to a **miss** and is evicted, never
served — the caller simply mines fresh and re-stores.  Only a digest
that has just verified is compared with the one-entry memo: the last
entry decoded, as a header (every payload field but ``cubes``) plus the
sorted int rows ``(h, r, c, |h|, |r|, |c|)``.  A memo hit skips
``json.loads`` and the decode, so it pays off while queries repeat one
entry (as a client walking a threshold ladder does); either way the
answer is filtered on the rows' supports and
encoded straight into :meth:`MiningResult.to_payload`'s schema, with
no :class:`~repro.core.cube.Cube` built.  Plain pre-envelope payload
files from older daemons still load (unverified, and never memoised).
Hit / miss / filter / decode counters are kept for ``/health``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from ..chaos.io import IOShim, StoreCorruptionError, parse_document
from ..core.constraints import Thresholds
from ..core.result import MiningResult, MiningStats, result_payload
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

    #: The filtered result as a :meth:`MiningResult.to_payload` dict,
    #: thresholded at the *query* thresholds.
    payload: dict
    #: Thresholds the source entry was actually mined at.
    filtered_from: Thresholds
    #: True when the query matched a stored entry exactly (no filtering).
    exact: bool
    #: Cubes dropped by the threshold filter.
    cubes_filtered: int

    @cached_property
    def result(self) -> MiningResult:
        """:attr:`payload` decoded into a :class:`MiningResult`."""
        return MiningResult.from_payload(self.payload)


@dataclass(frozen=True)
class _DecodedEntry:
    """One stored payload, parsed once: header fields plus int rows."""

    #: :meth:`MiningResult.header_from_payload` of the stored payload.
    header: dict
    #: ``(h, r, c, |h|, |r|, |c|)`` per cube, unique and in canonical
    #: (``Cube.sort_key``) order.
    rows: tuple


def _decode_entry(payload: dict) -> _DecodedEntry:
    """Validate a stored payload as :meth:`MiningResult.from_payload`
    does, without building a :class:`Cube`."""
    header = MiningResult.header_from_payload(payload)
    rows = {
        (h, r, c, h.bit_count(), r.bit_count(), c.bit_count())
        for h, r, c in MiningResult.masks_from_payload(payload)
    }
    return _DecodedEntry(header, tuple(sorted(rows)))


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
        #: ``(verified sha256, decoded entry)`` of the last entry read.
        #: One slot: it pays off only while queries repeat one entry (a
        #: client walking a threshold ladder; 26 of perfbench
        #: ``service-mixed``'s 28 hits per pass), and an entry costs
        #: about twice its stored JSON in memory (680 KB for a
        #: 3,612-cube, 321 KB entry).
        self._memo: "tuple[str, _DecodedEntry] | None" = None
        self.hits = 0
        self.misses = 0
        self.filtered_served = 0
        self.decoded = 0
        self.decoded_reused = 0
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
            source, reused = self._read_entry(path)
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
            source.rows
            if exact
            else [
                row
                for row in source.rows
                if thresholds.admits(row[3], row[4], row[5])
            ]
        )
        cubes_filtered = len(source.rows) - len(kept)
        extra = {
            "cache": {
                "hit": True,
                "exact": exact,
                "filtered_from": stored_thresholds.to_dict(),
                "cubes_scanned": len(source.rows),
                "cubes_kept": len(kept),
                "cubes_filtered": cubes_filtered,
            }
        }
        header = source.header
        payload = result_payload(
            algorithm=header["algorithm"],
            thresholds=thresholds,
            dataset_shape=header["dataset_shape"],
            elapsed_seconds=0.0,
            stats=MiningStats(metrics=header["stats"].metrics, extra=extra),
            masks=[[h, r, c] for h, r, c, _, _, _ in kept],
        )
        with self._lock:
            self.hits += 1
            if not exact:
                self.filtered_served += 1
            if reused:
                self.decoded_reused += 1
            else:
                self.decoded += 1
        return CacheAnswer(
            payload=payload,
            filtered_from=stored_thresholds,
            exact=exact,
            cubes_filtered=cubes_filtered,
        )

    def _read_entry(self, path: Path) -> "tuple[_DecodedEntry, bool]":
        """Read and verify one entry; decode it unless the memo has it.

        Returns the decoded entry and whether the memo served it.  The
        bytes are read and hashed on every call; only then is the
        verified digest compared with the memo's, so a corrupt file can
        never be served from the memo.  A legacy plain payload has no
        digest and is decoded afresh each time.
        """
        body, digest = self.io.read_verified("cache", path)
        memo = self._memo
        if memo is not None and memo[0] == digest:
            return memo[1], True
        source = _decode_entry(parse_document("cache", path, body, digest))
        if digest is not None:
            self._memo = (digest, source)
        return source, False

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
                "decoded": self.decoded,
                "decoded_reused": self.decoded_reused,
            }

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._index.values())
