"""The packed-word storage layout.

Masks are Python ints everywhere the miners compute (see
:mod:`repro.core.bitset` and :mod:`repro.core.kernels.python_int`).
Packed little-endian ``uint64`` words are only a *storage* format: the
zero-copy layout behind shared-memory hand-off
(:mod:`repro.parallel.shm`), memory-mapped datasets
(:meth:`repro.core.dataset.Dataset3D.open_mmap`,
:class:`repro.stream.MmapDatasetStore`) and the out-of-core folds of
:func:`repro.core.dice.diamond_dice` and
:func:`repro.stream.outofcore.stream_mine`.  This module holds the plain
functions that convert at those boundaries.

Layout: a ``(l, n, m)`` tensor packs to ``(l, n, words_per_row(m))``
words, bit ``j`` of row ``(k, i)`` living in word ``j // 64`` at bit
``j % 64``; bits at or beyond ``m`` are zero.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_DTYPE",
    "PackedBufferError",
    "words_per_row",
    "words_from_tensor",
    "tensor_from_words",
    "masks_from_words",
    "check_words",
    "release_mapped_pages",
]

#: Canonical packed-word dtype: little-endian uint64, word ``w`` holding
#: bits ``64w .. 64w+63``.
WORD_DTYPE = np.dtype("<u8")


class PackedBufferError(ValueError):
    """A packed word buffer does not match its declared geometry.

    Raised when caller-supplied shape metadata disagrees with the actual
    buffer (wrong dtype, rank, word count, or stray bits beyond the
    declared universe) — e.g. a corrupted or mislabeled shared-memory
    segment.  Subclasses :class:`ValueError` so untyped callers keep
    working.
    """


def words_per_row(n_bits: int) -> int:
    """Number of 64-bit words needed for an ``n_bits`` universe."""
    return (n_bits + 63) // 64


def words_from_tensor(data: np.ndarray) -> np.ndarray:
    """Pack an ``(l, n, m)`` bool tensor into ``(l, n, words)`` uint64 words."""
    l, n, m = data.shape
    words = words_per_row(m)
    bits = np.packbits(data, axis=-1, bitorder="little")
    padded = np.zeros((l, n, words * 8), dtype=np.uint8)
    padded[:, :, : bits.shape[2]] = bits
    return padded.view(WORD_DTYPE)


def tensor_from_words(words_arr: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Unpack ``(l, n, words)`` uint64 words back into an ``(l, n, m)`` bool
    tensor (inverse of :func:`words_from_tensor`)."""
    l, n, m = shape
    if m == 0 or l == 0 or n == 0:
        return np.zeros(shape, dtype=bool)
    raw = np.ascontiguousarray(words_arr, dtype=WORD_DTYPE).view(np.uint8)
    bits = np.unpackbits(raw, axis=-1, bitorder="little", count=m)
    return bits.astype(bool)


def masks_from_words(rows: np.ndarray) -> list[int]:
    """The int masks of a rank-2 packed array, one per row.

    ``rows`` may hold uint64 words or the uint8 bytes ``np.packbits``
    (``bitorder="little"``) produces: both are the same little-endian
    byte string per row, read with one ``int.from_bytes`` each.
    """
    count = rows.shape[0]
    raw = np.ascontiguousarray(rows).tobytes()
    if not raw:
        return [0] * count
    step = len(raw) // count
    from_bytes = int.from_bytes
    return [
        from_bytes(raw[start : start + step], "little")
        for start in range(0, len(raw), step)
    ]


def check_words(arr: np.ndarray, n_bits: int, ndim: int, *, tail: bool = True) -> None:
    """Validate a packed word array against an ``n_bits`` universe.

    Checks dtype, rank and the per-row word count, and (with ``tail``)
    that no row carries bits at or beyond ``n_bits``.  Raises
    :class:`PackedBufferError` on any mismatch; guards buffers that
    arrive from outside the process (shared-memory segments, mapped
    files) before their bits are trusted.
    """
    if arr.dtype != WORD_DTYPE or arr.ndim != ndim:
        raise PackedBufferError(
            f"packed buffer must be a rank-{ndim} little-endian uint64 array, "
            f"got rank {arr.ndim} {arr.dtype}"
        )
    if arr.shape[-1] != words_per_row(n_bits):
        raise PackedBufferError(
            f"buffer holds {arr.shape[-1]} words per row, expected "
            f"{words_per_row(n_bits)} for a {n_bits}-bit universe"
        )
    tail_bits = n_bits % 64
    if tail and arr.size and tail_bits:
        allowed = np.uint64((1 << tail_bits) - 1)
        if (arr[..., -1] & ~allowed).any():
            raise PackedBufferError(
                f"buffer carries stray bits beyond the {n_bits}-bit universe"
            )


def release_mapped_pages(array: np.ndarray) -> bool:
    """Drop the resident pages of a memory-mapped array (best effort).

    Walks ``array``'s base chain to the underlying :class:`numpy.memmap`
    (views created by slicing or ``setflags`` keep the mapping as their
    base) and advises the kernel the pages are no longer needed.  The
    data stays valid — the next access simply faults back in from disk —
    so out-of-core scans can touch an arbitrarily large mapping while
    keeping their resident set bounded to the pages between two release
    calls.  Returns ``False`` (and changes nothing) when ``array`` is
    not file-backed or the platform lacks ``madvise``.
    """
    import mmap as _mmap

    node = array
    while node is not None:
        mapping = getattr(node, "_mmap", None)
        if mapping is not None:
            try:
                mapping.madvise(_mmap.MADV_DONTNEED)
            except (AttributeError, ValueError, OSError):
                return False
            return True
        node = getattr(node, "base", None)
    return False
