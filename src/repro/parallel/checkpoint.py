"""Chunk-level checkpoint/resume journal for supervised parallel runs.

The journal is an append-only JSONL file.  Line 1 is a header binding
the journal to one exact run configuration (algorithm, dataset shape,
thresholds, task fingerprint and chunk count); every
subsequent line records one completed chunk — its raw cube triples (in
the driver's working axis order, via
:func:`repro.io.raw_cubes_to_payload`) and its per-chunk
:class:`~repro.obs.metrics.MiningMetrics` tallies.

Because chunks are independent and results are reassembled by chunk id,
replaying the journal and mining only the missing chunks reproduces the
uninterrupted run bit-for-bit: same cube list (set *and* order), same
merged metric totals.  A process killed mid-append leaves at most one
truncated trailing line, which :func:`load_journal` tolerates (that
chunk is simply re-mined); a journal whose fingerprint does not match
the resuming run raises :class:`CheckpointMismatchError` instead of
silently splicing results from a different dataset or threshold set.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import IO

from ..io import raw_cubes_from_payload, raw_cubes_to_payload

__all__ = [
    "CheckpointMismatchError",
    "CheckpointJournal",
    "run_fingerprint",
    "load_journal",
    "journal_status",
]

#: Version tag of the journal line schema.
JOURNAL_VERSION = 1


class CheckpointMismatchError(ValueError):
    """A journal's header does not match the run trying to resume it."""


def run_fingerprint(
    algorithm: str,
    dataset_shape: tuple[int, int, int],
    thresholds: tuple[int, ...],
    chunks: list[list],
) -> str:
    """A stable digest binding a journal to one run configuration.

    Covers the algorithm name, dataset shape, all four thresholds and
    the exact chunked task decomposition (task generation is
    deterministic, so equal configurations yield equal chunk lists).
    Integers are hashed as bytes, never as decimal strings, so task
    masks of any width fingerprint in linear time (a column mask of a
    tensor with more than ~14,000 columns passes Python's int-to-str
    digit limit).
    """
    digest = hashlib.sha256()
    digest.update(algorithm.encode())
    digest.update(repr(tuple(dataset_shape)).encode())
    digest.update(repr(tuple(thresholds)).encode())
    _hash_value(digest, chunks)
    return digest.hexdigest()


def _hash_value(digest, value) -> None:
    """Feed ``value``, nested lists and tuples of ints, to ``digest``."""
    if isinstance(value, (list, tuple)):
        digest.update(b"(%d:" % len(value))
        for item in value:
            _hash_value(digest, item)
        digest.update(b")")
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
        digest.update(b"i%d:" % len(raw))
        digest.update(raw)


def load_journal(
    path: str | Path,
) -> tuple[dict | None, dict[int, tuple[list[tuple[int, int, int]], dict]]]:
    """Read a journal, tolerating a truncated trailing line.

    Returns ``(header, completed)`` where ``completed`` maps chunk id to
    ``(raw_triples, metric_tallies)``.  A missing file yields
    ``(None, {})``.  Reading stops at the first undecodable line — a
    crash mid-append corrupts at most the final line, and any chunk
    after a corruption point is treated as not-yet-mined.
    """
    path = Path(path)
    if not path.exists():
        return None, {}
    header: dict | None = None
    completed: dict[int, tuple[list[tuple[int, int, int]], dict]] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if not isinstance(record, dict):
                break
            if record.get("kind") == "header":
                header = record
            elif record.get("kind") == "chunk":
                try:
                    chunk_id = int(record["chunk"])
                    raw = raw_cubes_from_payload(record["cubes"])
                    tallies = dict(record["metrics"])
                except (KeyError, TypeError, ValueError):
                    break
                completed[chunk_id] = (raw, tallies)
            else:
                break
    return header, completed


def journal_status(path: str | Path) -> dict:
    """Cheap progress summary of a checkpoint journal.

    Returns ``{"exists": bool, "n_chunks": int | None, "completed":
    int, "algorithm": str | None}`` — how far a (possibly interrupted)
    run got, without touching the cube payloads.  The service daemon
    reports this as the resumable progress of a killed job.
    """
    header, completed = load_journal(path)
    return {
        "exists": header is not None,
        "n_chunks": header.get("n_chunks") if header else None,
        "completed": len(completed),
        "algorithm": header.get("algorithm") if header else None,
    }


class CheckpointJournal:
    """Append-only writer (plus resume loader) for one supervised run."""

    def __init__(
        self,
        path: str | Path,
        handle: IO[str],
        completed: dict[int, tuple[list[tuple[int, int, int]], dict]],
        *,
        io=None,
    ) -> None:
        from ..chaos.io import IOShim

        self.path = Path(path)
        self._handle = handle
        self.io = io if io is not None else IOShim()
        #: Chunk results replayed from a previous run of this journal.
        self.completed = completed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        algorithm: str,
        fingerprint: str,
        n_chunks: int,
        resume: bool = False,
        io=None,
    ) -> "CheckpointJournal":
        """Open a journal for writing, optionally resuming an earlier one.

        With ``resume=True`` an existing journal is validated against
        ``fingerprint`` (mismatch raises
        :class:`CheckpointMismatchError`), its completed chunks are
        loaded, and new chunk records append after them.  Otherwise any
        existing file is truncated and a fresh header written.  ``io``
        is the :class:`~repro.chaos.io.IOShim` chunk appends route
        through (the hardened default when unset).
        """
        path = Path(path)
        completed: dict[int, tuple[list[tuple[int, int, int]], dict]] = {}
        if resume and path.exists():
            header, completed = load_journal(path)
            if header is not None:
                if header.get("fingerprint") != fingerprint:
                    raise CheckpointMismatchError(
                        f"checkpoint {path} was written by a different run "
                        f"configuration (algorithm {header.get('algorithm')!r}, "
                        f"{header.get('n_chunks')} chunk(s)); refusing to "
                        "splice its results"
                    )
                # Drop chunk ids beyond this run's decomposition (a
                # truncated header would have failed the fingerprint).
                completed = {
                    cid: entry
                    for cid, entry in completed.items()
                    if 0 <= cid < n_chunks
                }
                handle = open(path, "a")
                return cls(path, handle, completed, io=io)
            # Unreadable/empty journal: fall through to a fresh start.
            completed = {}
        handle = open(path, "w")
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "algorithm": algorithm,
            "fingerprint": fingerprint,
            "n_chunks": n_chunks,
        }
        handle.write(json.dumps(header) + "\n")
        handle.flush()
        return cls(path, handle, completed, io=io)

    def record(
        self,
        chunk_id: int,
        raw: list[tuple[int, int, int]],
        tallies: dict,
    ) -> None:
        """Append one completed chunk and flush it to disk."""
        line = json.dumps(
            {
                "kind": "chunk",
                "chunk": int(chunk_id),
                "cubes": raw_cubes_to_payload(raw),
                "metrics": {k: int(v) for k, v in tallies.items()},
            }
        )
        self.io.append_line("checkpoint", self._handle, line)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
