"""The injectable IO shim: one seam between every store and the disk.

All service-layer stores (the dataset store
:class:`~repro.stream.store.MmapDatasetStore`, which the service calls
:class:`~repro.service.registry.DatasetRegistry`,
:class:`~repro.service.cache.ThresholdLatticeCache`,
:class:`~repro.service.jobs.JobManager`,
:class:`~repro.stream.delta.DeltaLog`,
:class:`~repro.parallel.checkpoint.CheckpointJournal`) route their disk
traffic through an :class:`IOShim`.  The default shim is the hardened
production path — ENOSPC-safe atomic writes that roll back their
temporary file on any failure, fsynced journal appends — and
:class:`ChaosShim` is the same surface with a
:class:`~repro.chaos.plan.ChaosPlan` deciding, per call, whether the
operation fails (ENOSPC/EIO), commits corrupted bytes (torn write,
bit-flip), leaves debris behind (stale temp), stalls, or resets the
connection.  Because both shims share one code path, every fault the
chaos battery proves survivable is a fault the production writes are
actually structured to survive.

:class:`StoreCorruptionError` is the typed verify-on-read failure: a
store that finds a checksum or fingerprint mismatch raises it instead
of handing corrupt data up the stack, and the service degrades it to
miss-evict-requeue instead of crashing the daemon.

:meth:`IOShim.write_document` / :meth:`IOShim.read_document` are the one
writer and the one reader of the checksummed result document that both
the threshold-lattice cache entries and the job results are stored as.
The reader is :meth:`IOShim.read_verified` (read the bytes, check the
digest) followed by :func:`parse_document`; the result cache calls the
two halves itself so that it can key a decoded copy by the digest that
just verified.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
import uuid
from pathlib import Path

__all__ = [
    "StoreCorruptionError",
    "IOShim",
    "ChaosShim",
    "parse_document",
    "sha256_bytes",
    "sha256_file",
]

#: The envelope around a stored payload's exact JSON bytes:
#: ``{"schema": 1, "sha256": "<64 hex digits>", "payload": <body>}``.
_ENVELOPE_HEAD = b'{"schema": 1, "sha256": "'
_ENVELOPE_MID = b'", "payload": '
_DIGEST_LEN = 64

#: :attr:`StoreCorruptionError.detail` of a document whose bytes do not
#: hash to their recorded digest.
CHECKSUM_MISMATCH = "checksum mismatch"


class StoreCorruptionError(RuntimeError):
    """Verify-on-read failed: stored bytes do not match their digest."""

    def __init__(self, store: str, path: "str | Path", detail: str) -> None:
        super().__init__(f"corrupt {store} entry {Path(path).name}: {detail}")
        self.store = store
        self.path = str(path)
        self.detail = detail


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: "str | Path", chunk_size: int = 1 << 20) -> str:
    """Streamed file digest (bounded memory, for mmap-scale payloads)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def parse_document(
    site: str, path: "str | Path", body: bytes, digest: "str | None"
) -> dict:
    """Parse what :meth:`IOShim.read_verified` returned into a payload.

    A body without a verified ``digest`` is a plain pre-envelope file:
    it must carry ``schema`` and ``cubes`` to count as a result payload.
    Anything else raises :class:`StoreCorruptionError`.
    """
    try:
        document = json.loads(body)
    except ValueError as error:
        raise StoreCorruptionError(site, path, f"not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise StoreCorruptionError(site, path, "not a JSON object")
    if digest is None and ("schema" not in document or "cubes" not in document):
        raise StoreCorruptionError(
            site, path, "neither a checksummed envelope nor a result payload"
        )
    return document


def _flip_bit(data: bytes, bit: int) -> bytes:
    if not data:
        return data
    buf = bytearray(data)
    bit %= len(buf) * 8
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


class IOShim:
    """Hardened default IO: atomic, rolled-back, fsynced where it counts.

    Subclasses inject faults by overriding :meth:`_draw`; the write
    helpers here already contain every fault branch, so the production
    path and the chaos path cannot drift apart.
    """

    # ------------------------------------------------------------------
    # Fault hook
    # ------------------------------------------------------------------
    def _draw(self, site: str, op: str, path: str = ""):
        """The fault striking this operation (``None`` in production)."""
        return None

    def trace(self) -> list[dict]:
        """Faults fired so far (empty for the production shim)."""
        return []

    # ------------------------------------------------------------------
    # Raise-style faults for read/transport paths
    # ------------------------------------------------------------------
    def check(self, site: str, op: str, path: str = "") -> None:
        """Apply raise/stall faults before an operation with no payload."""
        self._apply_inline(self._draw(site, op, path), path)

    @staticmethod
    def _apply_inline(fault, path: str) -> None:
        if fault is None:
            return
        if fault.kind == "enospc":
            raise OSError(errno.ENOSPC, f"injected ENOSPC at {path or fault.site}")
        if fault.kind == "eio":
            raise OSError(errno.EIO, f"injected EIO at {path or fault.site}")
        if fault.kind == "slow":
            time.sleep(fault.seconds)
        elif fault.kind == "reset":
            raise ConnectionResetError(
                errno.ECONNRESET, f"injected connection reset at {fault.site}"
            )

    # ------------------------------------------------------------------
    # Atomic writes (tmp + rename, rollback on failure)
    # ------------------------------------------------------------------
    def atomic_write_bytes(self, site: str, path: "str | Path", data: bytes) -> None:
        """Write ``path`` atomically; no temp survives a failed write."""
        path = Path(path)
        fault = self._draw(site, "write", str(path))
        if fault is not None:
            if fault.kind == "eio":
                raise OSError(errno.EIO, f"injected EIO writing {path.name}")
            if fault.kind == "slow":
                time.sleep(fault.seconds)
        payload = data
        if fault is not None:
            if fault.kind == "torn-write":
                payload = data[: len(data) // 2]
            elif fault.kind == "bit-flip":
                payload = _flip_bit(data, self._randbelow(max(1, len(data) * 8)))
        tmp = path.parent / f".{path.name}.{uuid.uuid4().hex[:8]}.tmp"
        try:
            tmp.write_bytes(payload)
            if fault is not None and fault.kind == "enospc":
                # Disk filled mid-write: the partial temp must not leak.
                raise OSError(
                    errno.ENOSPC, f"injected ENOSPC writing {path.name}"
                )
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if fault is not None and fault.kind == "stale-tmp":
            debris = path.parent / f".{path.name}.{uuid.uuid4().hex[:8]}.tmp"
            debris.write_bytes(payload)

    def atomic_write_text(self, site: str, path: "str | Path", text: str) -> None:
        self.atomic_write_bytes(site, path, text.encode())

    def atomic_finalize(
        self, site: str, tmp: "str | Path", dst: "str | Path"
    ) -> None:
        """Commit a caller-written temp (``np.save`` payloads).

        The caller wrote ``tmp`` itself (numpy needs a real path); this
        seals it under ``dst``.  On failure the temp is removed — the
        rollback contract matches :meth:`atomic_write_bytes`.
        """
        tmp, dst = Path(tmp), Path(dst)
        fault = self._draw(site, "finalize", str(dst))
        try:
            if fault is not None:
                if fault.kind == "eio":
                    raise OSError(errno.EIO, f"injected EIO committing {dst.name}")
                if fault.kind == "enospc":
                    raise OSError(
                        errno.ENOSPC, f"injected ENOSPC committing {dst.name}"
                    )
                if fault.kind == "slow":
                    time.sleep(fault.seconds)
                elif fault.kind == "torn-write":
                    size = tmp.stat().st_size
                    with open(tmp, "r+b") as handle:
                        handle.truncate(max(0, size // 2))
                elif fault.kind == "bit-flip":
                    size = tmp.stat().st_size
                    if size:
                        bit = self._randbelow(size * 8)
                        with open(tmp, "r+b") as handle:
                            handle.seek(bit // 8)
                            byte = handle.read(1)
                            handle.seek(bit // 8)
                            handle.write(bytes([byte[0] ^ (1 << (bit % 8))]))
            os.replace(tmp, dst)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if fault is not None and fault.kind == "stale-tmp":
            debris = dst.parent / f".{dst.stem}.{uuid.uuid4().hex[:8]}.tmp{dst.suffix}"
            debris.write_bytes(b"\x00" * 64)

    # ------------------------------------------------------------------
    # Journal appends
    # ------------------------------------------------------------------
    def append_line(
        self, site: str, handle, line: str, *, fsync: bool = True
    ) -> None:
        """Append one JSONL record; a torn append leaves a partial tail
        (which every journal reader in the library already tolerates)."""
        fault = self._draw(site, "append", getattr(handle, "name", "") or "")
        if fault is not None:
            if fault.kind == "enospc":
                raise OSError(errno.ENOSPC, "injected ENOSPC appending to journal")
            if fault.kind == "eio":
                raise OSError(errno.EIO, "injected EIO appending to journal")
            if fault.kind == "slow":
                time.sleep(fault.seconds)
            elif fault.kind == "torn-write":
                handle.write(line[: max(1, len(line) // 2)])
                handle.flush()
                raise OSError(errno.EIO, "injected torn journal append")
        handle.write(line + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_bytes(self, site: str, path: "str | Path") -> bytes:
        fault = self._draw(site, "read", str(path))
        if fault is not None:
            if fault.kind == "eio":
                raise OSError(errno.EIO, f"injected EIO reading {Path(path).name}")
            if fault.kind == "slow":
                time.sleep(fault.seconds)
        data = Path(path).read_bytes()
        if fault is not None and fault.kind == "bit-flip":
            data = _flip_bit(data, self._randbelow(max(1, len(data) * 8)))
        return data

    def read_text(self, site: str, path: "str | Path") -> str:
        return self.read_bytes(site, path).decode()

    # ------------------------------------------------------------------
    # Checksummed result documents
    # ------------------------------------------------------------------
    def write_document(self, site: str, path: "str | Path", payload: dict) -> None:
        """Store ``payload`` atomically inside a checksummed envelope.

        The digest covers the payload's exact serialization; splicing
        the envelope around the already-serialized body makes the hashed
        bytes the stored bytes.
        """
        body = json.dumps(payload).encode()
        digest = sha256_bytes(body).encode()
        self.atomic_write_bytes(
            site, path, _ENVELOPE_HEAD + digest + _ENVELOPE_MID + body + b"}"
        )

    def read_verified(
        self,
        site: str,
        path: "str | Path",
        *,
        legacy_digest: "str | None" = None,
    ) -> "tuple[bytes, str | None]":
        """Read one stored document and check its bytes; returns
        ``(body, digest)``.

        An envelope from :meth:`write_document` is checked by hashing the
        stored payload bytes: ``body`` is that payload's JSON and
        ``digest`` the sha256 it just matched.  Any other file comes back
        whole with ``digest=None``; with ``legacy_digest`` (the
        ``result.sha256`` sidecar an older job directory holds) its
        bytes must first hash to that digest.  A mismatch raises
        :class:`StoreCorruptionError`; a failed read raises
        :class:`OSError`.  Nothing is parsed: :func:`parse_document`
        does that, and a caller may key a decoded copy by ``digest``.
        """
        data = self.read_bytes(site, path)
        digest_end = len(_ENVELOPE_HEAD) + _DIGEST_LEN
        body_start = digest_end + len(_ENVELOPE_MID)
        if (
            data.startswith(_ENVELOPE_HEAD)
            and data[digest_end:body_start] == _ENVELOPE_MID
            and data.endswith(b"}")
        ):
            body = data[body_start:-1]
            digest = sha256_bytes(body)
            if digest.encode() != data[len(_ENVELOPE_HEAD) : digest_end]:
                raise StoreCorruptionError(site, path, CHECKSUM_MISMATCH)
            return body, digest
        if legacy_digest is not None and sha256_bytes(data) != legacy_digest:
            raise StoreCorruptionError(site, path, CHECKSUM_MISMATCH)
        return data, None

    def read_document(
        self,
        site: str,
        path: "str | Path",
        *,
        legacy_digest: "str | None" = None,
    ) -> dict:
        """Read one stored document and verify it; returns the payload.

        :meth:`read_verified` then :func:`parse_document`: an envelope
        must hash to its recorded digest, and any other file must be a
        plain payload carrying ``schema`` and ``cubes``, as older
        daemons wrote.  Everything else raises
        :class:`StoreCorruptionError`; a failed read raises
        :class:`OSError`.
        """
        body, digest = self.read_verified(site, path, legacy_digest=legacy_digest)
        return parse_document(site, path, body, digest)

    # ------------------------------------------------------------------
    # Worker faults
    # ------------------------------------------------------------------
    def worker_fault(self, job_id: str) -> "dict | None":
        """A fault manifest block for one worker launch, or ``None``.

        ``crash``/``hang`` faults cross the process boundary through the
        job's ``task.json`` manifest (the worker has no shim of its
        own), extending the :class:`repro.parallel.faults.FaultPlan`
        idea from pool chunks to whole service jobs.
        """
        fault = self._draw("worker", "start", job_id)
        if fault is None or fault.kind not in ("crash", "hang", "slow"):
            return None
        if fault.kind == "crash":
            return {"kind": "crash"}
        return {"kind": "hang", "seconds": float(fault.seconds)}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _randbelow(self, n: int) -> int:
        return 0


class ChaosShim(IOShim):
    """The default shim with a :class:`ChaosPlan` deciding each call."""

    def __init__(self, plan) -> None:
        self.plan = plan

    def _draw(self, site: str, op: str, path: str = ""):
        return self.plan.draw(site, op, path)

    def _randbelow(self, n: int) -> int:
        return self.plan.randbelow(n)

    def trace(self) -> list[dict]:
        return self.plan.trace()
