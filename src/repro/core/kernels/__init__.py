"""Pluggable bitset kernel backends.

Every bulk set-intersection in the library — the closure operators
``H(R' x C')`` / ``R(H' x C')`` / ``C(H' x R')``, representative-slice
construction, CubeMiner's closure checks, and the 2D binary-matrix
supports — goes through a :class:`~repro.core.kernels.base.Kernel`.
Three backends ship by default:

* ``python-int`` — arbitrary-precision int masks, loop-based batch ops
  (the historical implementation and behavioural baseline);
* ``numpy`` — packed little-endian uint64 word arrays with vectorized
  batch operations;
* ``native`` — the same packed layout driven by the optional ``_native``
  C extension (built by ``setup.py`` when a compiler is present); when
  the extension is missing the name stays *known but unavailable*:
  explicit requests raise
  :class:`~repro.core.kernels.base.KernelUnavailableError`, while
  environment-driven auto-selection degrades to ``numpy`` and counts
  the event (:func:`kernel_fallback_count`, surfaced per run as the
  ``kernel_fallbacks`` counter of
  :class:`~repro.obs.metrics.MiningMetrics`).

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
import warnings

from .base import (
    Kernel,
    KernelUnavailableError,
    PackedBufferError,
    release_mapped_pages,
    tensor_from_words,
    words_from_tensor,
    words_per_row,
)
from .native_kernel import (
    NativeKernel,
    native_available,
    native_features,
    native_import_error,
)
from .numpy_kernel import NumpyKernel
from .python_int import PythonIntKernel

__all__ = [
    "Kernel",
    "PackedBufferError",
    "KernelUnavailableError",
    "words_per_row",
    "words_from_tensor",
    "tensor_from_words",
    "release_mapped_pages",
    "PythonIntKernel",
    "NumpyKernel",
    "NativeKernel",
    "native_available",
    "native_import_error",
    "native_features",
    "KERNEL_ENV_VAR",
    "DEFAULT_KERNEL",
    "FALLBACK_KERNEL",
    "register_kernel",
    "available_kernels",
    "known_kernels",
    "get_kernel",
    "default_kernel_name",
    "resolve_kernel",
    "kernel_fallback_count",
    "preferred_words_native_kernel",
]

#: Environment variable consulted when no kernel is passed explicitly.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Fallback backend when neither an argument nor the env var selects one.
DEFAULT_KERNEL = "python-int"

#: Backend substituted when auto-selection names an unavailable kernel
#: (``REPRO_KERNEL=native`` without the built extension): same packed
#: word layout, next-fastest batch operations.
FALLBACK_KERNEL = "numpy"

_REGISTRY: dict[str, type[Kernel]] = {}
_INSTANCES: dict[str, Kernel] = {}

#: Backends whose names are recognised but whose implementation cannot
#: run here, mapped to the human-readable reason.  ``get_kernel`` turns
#: these into :class:`KernelUnavailableError` instead of "unknown".
_UNAVAILABLE: dict[str, str] = {}

#: Auto-selection degradations recorded by :func:`resolve_kernel` (the
#: env var named an unavailable backend).  Monotone; runs snapshot it
#: around their own kernel resolution to attribute events (see
#: ``repro.api.mine``).
_FALLBACK_COUNT = 0

_WARNED_FALLBACKS: set[str] = set()


def register_kernel(cls: type[Kernel]) -> type[Kernel]:
    """Register a :class:`Kernel` subclass under its ``name`` (decorator-friendly)."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"kernel class {cls!r} must define a non-empty string name")
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    _UNAVAILABLE.pop(name, None)
    return cls


def available_kernels() -> tuple[str, ...]:
    """Registered, runnable backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def known_kernels() -> tuple[str, ...]:
    """Every recognised backend name, runnable or not, sorted.

    The superset of :func:`available_kernels` that includes backends
    whose implementation is missing on this interpreter (e.g. the
    ``native`` C extension before it is compiled).  The CLI advertises
    these so a request for one fails with the typed unavailability
    error instead of an "invalid choice" parse error.
    """
    return tuple(sorted(set(_REGISTRY) | set(_UNAVAILABLE)))


def kernel_fallback_count() -> int:
    """Total auto-selection degradations recorded in this process."""
    return _FALLBACK_COUNT


def get_kernel(name: str) -> Kernel:
    """Return the shared instance of the backend called ``name``.

    Raises :class:`KernelUnavailableError` for a recognised backend
    that cannot run here, plain :class:`ValueError` for an unknown name.
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    cls = _REGISTRY.get(name)
    if cls is None:
        if name in _UNAVAILABLE:
            raise KernelUnavailableError(name, _UNAVAILABLE[name])
        raise ValueError(
            f"unknown kernel {name!r}; choose from {available_kernels()}"
        )
    instance = _INSTANCES[name] = cls()
    return instance


def default_kernel_name() -> str:
    """The backend selected by ``REPRO_KERNEL``, or the built-in default."""
    return os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL


def _record_fallback(name: str, error: KernelUnavailableError) -> None:
    global _FALLBACK_COUNT
    _FALLBACK_COUNT += 1
    if name not in _WARNED_FALLBACKS:
        _WARNED_FALLBACKS.add(name)
        warnings.warn(
            f"{KERNEL_ENV_VAR}={name} is unavailable ({error.reason}); "
            f"falling back to the {FALLBACK_KERNEL!r} kernel",
            RuntimeWarning,
            stacklevel=3,
        )


def resolve_kernel(spec: "str | Kernel | None" = None) -> Kernel:
    """Resolve a kernel spec with arg > env > default precedence.

    ``spec`` may be a :class:`Kernel` instance (returned as-is), a
    registered name, or ``None`` to fall back to the environment /
    default.  The env var is read at call time, not import time, so
    changing ``REPRO_KERNEL`` affects datasets created afterwards.

    An *explicit* spec naming a known-but-unavailable backend raises
    :class:`KernelUnavailableError` — the caller asked for something
    this interpreter cannot deliver.  When the *environment* names one,
    resolution degrades to :data:`FALLBACK_KERNEL` instead (with a
    one-time warning and a fallback-counter increment): an env var set
    for a whole CI job or shell must not brick processes that never
    compiled the extension.
    """
    if spec is None:
        name = default_kernel_name()
        try:
            return get_kernel(name)
        except KernelUnavailableError as error:
            _record_fallback(name, error)
            return get_kernel(FALLBACK_KERNEL)
        except ValueError:
            raise ValueError(
                f"{KERNEL_ENV_VAR}={name!r} does not name a registered kernel; "
                f"choose from {available_kernels()}"
            ) from None
    if isinstance(spec, Kernel):
        return spec
    return get_kernel(spec)


def preferred_words_native_kernel() -> str:
    """The fastest registered backend operating on packed word buffers.

    ``native`` when the C extension is built, else ``numpy`` — the
    choice services make when they need zero-copy shared-memory or
    memory-mapped operation and the user expressed no preference.
    """
    return "native" if "native" in _REGISTRY else FALLBACK_KERNEL


register_kernel(PythonIntKernel)
register_kernel(NumpyKernel)
if native_available():
    register_kernel(NativeKernel)
else:
    _UNAVAILABLE["native"] = (
        native_import_error() or "the _native C extension is not built"
    )
