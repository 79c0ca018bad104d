"""The compute kernel and the packed-word storage layout.

:data:`KERNEL` is the one instance of
:class:`~repro.core.kernels.python_int.PythonIntKernel`; every bulk
bitset operation of the miners goes through its methods.  Packed
little-endian uint64 words (:mod:`repro.core.kernels.words`) are only a
storage format, converted at the shared-memory, memory-mapped and
out-of-core boundaries.
"""

from __future__ import annotations

from .python_int import PythonIntKernel
from .words import (
    WORD_DTYPE,
    PackedBufferError,
    check_words,
    masks_from_words,
    release_mapped_pages,
    tensor_from_words,
    words_from_tensor,
    words_per_row,
)

__all__ = [
    "KERNEL",
    "PythonIntKernel",
    "WORD_DTYPE",
    "PackedBufferError",
    "check_words",
    "masks_from_words",
    "words_per_row",
    "words_from_tensor",
    "tensor_from_words",
    "release_mapped_pages",
]

#: The compute kernel.
KERNEL = PythonIntKernel()


# perfbench is the only caller: it times the methods of type(resolve_kernel(None)).
def resolve_kernel(spec: str | None = None) -> PythonIntKernel:
    if spec not in (None, KERNEL.name):
        raise ValueError(f"unknown kernel {spec!r}; the only kernel is {KERNEL.name!r}")
    return KERNEL


# perfbench is the only caller (its run stamp); there is no native backend.
def native_available() -> bool:
    return False


# perfbench is the only caller (its run stamp); there is no native backend.
def native_features() -> None:
    return None
