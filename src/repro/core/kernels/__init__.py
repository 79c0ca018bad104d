"""Pluggable bitset kernel backends.

Every bulk set-intersection in the library — the closure operators
``H(R' x C')`` / ``R(H' x C')`` / ``C(H' x R')``, representative-slice
construction, CubeMiner's closure checks, and the 2D binary-matrix
supports — goes through a :class:`~repro.core.kernels.base.Kernel`.
Two backends ship, both always available:

* ``python-int`` — arbitrary-precision int masks, loop-based batch ops
  (the default and the compute backend);
* ``numpy`` — packed little-endian uint64 word arrays with vectorized
  batch operations, the storage and hand-off layout behind zero-copy
  shared memory, memory-mapped datasets and out-of-core mining.

Selection precedence (see ``docs/kernels.md``):

1. an explicit argument — ``mine(..., kernel="numpy")``,
   ``Dataset3D(..., kernel=...)`` or the ``--kernel`` CLI flag;
2. the ``REPRO_KERNEL`` environment variable;
3. the built-in default, ``python-int``.

New backends register through :func:`register_kernel`, which makes them
instantly available to every miner, the CLI, and the differential test
suite (the suite iterates :func:`available_kernels`).
"""

from __future__ import annotations

import os

from .base import (
    Kernel,
    PackedBufferError,
    release_mapped_pages,
    tensor_from_words,
    words_from_tensor,
    words_per_row,
)
from .numpy_kernel import NumpyKernel
from .python_int import PythonIntKernel

__all__ = [
    "Kernel",
    "PackedBufferError",
    "words_per_row",
    "words_from_tensor",
    "tensor_from_words",
    "release_mapped_pages",
    "PythonIntKernel",
    "NumpyKernel",
    "KERNEL_ENV_VAR",
    "DEFAULT_KERNEL",
    "register_kernel",
    "available_kernels",
    "get_kernel",
    "default_kernel_name",
    "resolve_kernel",
]

#: Environment variable consulted when no kernel is passed explicitly.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Fallback backend when neither an argument nor the env var selects one.
DEFAULT_KERNEL = "python-int"

_REGISTRY: dict[str, type[Kernel]] = {}
_INSTANCES: dict[str, Kernel] = {}


def register_kernel(cls: type[Kernel]) -> type[Kernel]:
    """Register a :class:`Kernel` subclass under its ``name`` (decorator-friendly)."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"kernel class {cls!r} must define a non-empty string name")
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    return cls


def available_kernels() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_kernel(name: str) -> Kernel:
    """Return the shared instance of the backend called ``name``.

    Raises :class:`ValueError` for an unknown name.
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {available_kernels()}"
        )
    instance = _INSTANCES[name] = cls()
    return instance


def default_kernel_name() -> str:
    """The backend selected by ``REPRO_KERNEL``, or the built-in default."""
    return os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL


def resolve_kernel(spec: "str | Kernel | None" = None) -> Kernel:
    """Resolve a kernel spec with arg > env > default precedence.

    ``spec`` may be a :class:`Kernel` instance (returned as-is), a
    registered name, or ``None`` to fall back to the environment /
    default.  The env var is read at call time, not import time, so
    changing ``REPRO_KERNEL`` affects datasets created afterwards.
    """
    if spec is None:
        name = default_kernel_name()
        try:
            return get_kernel(name)
        except ValueError:
            raise ValueError(
                f"{KERNEL_ENV_VAR}={name!r} does not name a registered kernel; "
                f"choose from {available_kernels()}"
            ) from None
    if isinstance(spec, Kernel):
        return spec
    return get_kernel(spec)


# There is no native backend; perfbench's run stamp still imports these two.
def native_available() -> bool:
    return False


def native_features() -> None:
    return None


register_kernel(PythonIntKernel)
register_kernel(NumpyKernel)
