"""Zero-copy dataset hand-off through POSIX shared memory.

The parallel drivers historically pickled the whole dataset into every
worker through the pool initializer — a per-worker copy tax that grows
with the tensor.  This module publishes the dataset's packed-uint64
word grid (the canonical layout of
:func:`repro.core.kernels.words_from_tensor`) into one
``multiprocessing.shared_memory`` segment and hands workers a
:class:`ShmDatasetRef` instead: segment name, shape and a sha256
fingerprint — O(1) bytes regardless of dataset size.

A worker attaches with :func:`attach_dataset`: the segment becomes the
dataset's word storage with **zero copies**
(:meth:`repro.core.dataset.Dataset3D.from_packed_grid`), and the
worker reads its int mask grid straight from the words.

Lifecycle and crash-safety:

* every segment a process creates is tracked in a module registry
  (:func:`active_segments` — what the leak tests assert on) and torn
  down by :meth:`ShmManager.cleanup`, by ``with ShmManager()``, or at
  interpreter exit via ``atexit``;
* ``cleanup`` unlinks even while numpy views still map the segment
  (``close`` raising :class:`BufferError` is expected there): on Linux
  the ``/dev/shm`` name disappears at once and the memory itself is
  freed when the last map goes away — worker death, clean or not, never
  leaks a segment;
* a publisher that is killed runs none of that, so the process that
  reaps it calls :func:`unlink_segments_of` with its pid (which every
  segment name carries);
* attaching processes deregister from the ``resource_tracker``
  (Python < 3.13 registers attachments too, which would let a worker's
  exit unlink a segment the driver still owns);
* a forked worker inherits the driver's registry, so attaching resolves
  to the already-mapped segment without any syscalls.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import secrets
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..core.dataset import Dataset3D
from ..core.kernels import WORD_DTYPE, words_per_row

__all__ = [
    "SHM_PREFIX",
    "ShmError",
    "ShmDatasetRef",
    "ShmAttachment",
    "ShmManager",
    "publish_dataset",
    "attach_dataset",
    "active_segments",
    "unlink_segments_of",
]

#: Every segment this library creates carries this name prefix, so a
#: leak check can scan ``/dev/shm`` for leftovers unambiguously.
SHM_PREFIX = "repro-fcc-"


class ShmError(RuntimeError):
    """A shared-memory publish/attach operation failed."""


@dataclass(frozen=True)
class ShmDatasetRef:
    """O(1)-size picklable handle to a dataset published in shared memory.

    This is what travels to pool workers in place of the dataset itself:
    the segment name, the ``(l, n, m)`` shape, the exact byte length and
    a sha256 fingerprint of the packed words (verified on attach, so a
    stale or recycled segment name cannot silently feed wrong bits into
    a worker).
    """

    segment: str
    shape: tuple[int, int, int]
    nbytes: int
    fingerprint: str

    @property
    def words_shape(self) -> tuple[int, int, int]:
        """Shape of the packed word grid the segment holds."""
        l, n, m = self.shape
        return (l, n, words_per_row(m))


# ----------------------------------------------------------------------
# Process-wide segment registry (the crash-safety net)
# ----------------------------------------------------------------------
_CREATED: dict[str, shared_memory.SharedMemory] = {}
_ATEXIT_REGISTERED = False


def active_segments() -> tuple[str, ...]:
    """Names of segments this process created and has not yet unlinked.

    The lifecycle invariant the tests pin: after every driver run —
    clean, cancelled, or fault-recovered — this is empty again.
    """
    return tuple(sorted(_CREATED))


def _release(name: str) -> None:
    shm = _CREATED.pop(name, None)
    if shm is None:
        return
    try:
        shm.close()
    except BufferError:
        # Live numpy views still map the segment (e.g. the driver's own
        # inline attachment).  Unlinking below removes the /dev/shm name
        # anyway; the memory is freed once the last map drops.
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def _cleanup_all() -> None:
    for name in list(_CREATED):
        _release(name)


def _creator_prefix(pid: int) -> str:
    return f"{SHM_PREFIX}{pid:x}-"


def unlink_segments_of(pid: int) -> list[str]:
    """Unlink every segment that process ``pid`` created; return their names.

    For a publisher killed before its own cleanup ran (``SIGKILL``, or
    an exit that skips ``atexit``).  Only call it for a process that is
    known to be gone, such as a child just reaped: a live one would
    lose segments it still uses.  A no-op without ``/dev/shm``.
    """
    prefix = _creator_prefix(pid)
    try:
        names = sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:
        return []
    for name in names:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except FileNotFoundError:
            pass
    return names


def _untrack(shm: shared_memory.SharedMemory) -> None:
    # Python < 3.13 registers *attached* segments with the resource
    # tracker too (bpo-39959), so a worker's exit would unlink memory
    # the driver still owns.  Drop the attach-side record.
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


class ShmManager:
    """Owns the segments one driver run publishes.

    ``create`` allocates a uniquely named segment and records it in the
    process registry; ``cleanup`` (idempotent, also the context-manager
    exit) closes and unlinks everything this manager created.  Whatever
    a crashed run leaves behind is still swept by the ``atexit`` hook,
    because the registry — not the manager instance — is the source of
    truth.
    """

    __slots__ = ("_names",)

    def __init__(self) -> None:
        self._names: list[str] = []

    @property
    def segments(self) -> tuple[str, ...]:
        """Names of the segments this manager currently owns."""
        return tuple(self._names)

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        global _ATEXIT_REGISTERED
        if nbytes <= 0:
            raise ShmError(f"segment size must be positive, got {nbytes}")
        name = f"{_creator_prefix(os.getpid())}{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        if not _ATEXIT_REGISTERED:
            atexit.register(_cleanup_all)
            _ATEXIT_REGISTERED = True
        _CREATED[shm.name] = shm
        self._names.append(shm.name)
        return shm

    def cleanup(self) -> None:
        for name in self._names:
            _release(name)
        self._names.clear()

    def __enter__(self) -> "ShmManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()


# ----------------------------------------------------------------------
# Publish / attach
# ----------------------------------------------------------------------
def publish_dataset(dataset: Dataset3D, manager: ShmManager) -> ShmDatasetRef:
    """Copy the dataset's packed word grid into a shared segment.

    The segment holds the canonical little-endian layout of
    :meth:`~repro.core.dataset.Dataset3D.packed_grid`.  Raises
    :class:`ShmError` for empty datasets (a zero-byte segment is
    invalid)."""
    words = np.ascontiguousarray(dataset.packed_grid())
    if words.nbytes == 0:
        raise ShmError(
            f"cannot publish an empty dataset {dataset.shape} through "
            "shared memory"
        )
    shm = manager.create(words.nbytes)
    view = np.ndarray(words.shape, dtype=WORD_DTYPE, buffer=shm.buf)
    view[:] = words
    del view
    return ShmDatasetRef(
        segment=shm.name,
        shape=dataset.shape,
        nbytes=words.nbytes,
        fingerprint=hashlib.sha256(words).hexdigest(),
    )


@dataclass
class ShmAttachment:
    """A worker-side view of a published dataset.

    :attr:`dataset` reads its words from the segment in place, so the
    attachment keeps the segment handle open for the dataset's
    lifetime; :meth:`close` releases it (tolerating live views, which
    on Linux merely defer the actual unmap)."""

    dataset: Dataset3D
    ref: ShmDatasetRef
    _shm: shared_memory.SharedMemory | None = field(default=None, repr=False)

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except BufferError:
                pass


def attach_dataset(
    ref: ShmDatasetRef,
    *,
    verify: bool = True,
) -> ShmAttachment:
    """Reconstruct a dataset from a :class:`ShmDatasetRef`.

    A segment this process itself published (or inherited through
    ``fork``) short-circuits to the already-open mapping.  A fresh
    attach opens the segment by name, deregisters from the resource
    tracker and — with ``verify`` (the default) — checks the sha256
    fingerprint before trusting a single bit."""
    l, n, m = ref.shape
    need = l * n * words_per_row(m) * 8
    if ref.nbytes != need:
        raise ShmError(
            f"ref declares {ref.nbytes} bytes but shape {ref.shape} "
            f"packs to {need}"
        )
    owned = ref.segment in _CREATED
    if owned:
        shm = _CREATED[ref.segment]
    else:
        try:
            shm = shared_memory.SharedMemory(name=ref.segment)
        except FileNotFoundError as exc:
            raise ShmError(
                f"shared-memory segment {ref.segment!r} does not exist "
                "(already unlinked, or published by another machine?)"
            ) from exc
        _untrack(shm)
    try:
        if shm.size < ref.nbytes:
            raise ShmError(
                f"segment {ref.segment!r} holds {shm.size} bytes, "
                f"ref expects {ref.nbytes}"
            )
        if verify and not owned:
            digest = hashlib.sha256(shm.buf[: ref.nbytes]).hexdigest()
            if digest != ref.fingerprint:
                raise ShmError(
                    f"segment {ref.segment!r} fingerprint mismatch: "
                    f"expected {ref.fingerprint[:12]}…, found {digest[:12]}…"
                )
        words = np.ndarray(ref.words_shape, dtype=WORD_DTYPE, buffer=shm.buf)
        dataset = Dataset3D.from_packed_grid(words, ref.shape)
        return ShmAttachment(dataset, ref, None if owned else shm)
    except Exception:
        if not owned:
            try:
                shm.close()
            except BufferError:
                pass
        raise
