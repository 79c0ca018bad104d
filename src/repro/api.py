"""Top-level convenience API.

:func:`mine` is the single entry point most users need: it picks an
algorithm from a registry, applies per-algorithm typed options
(:mod:`repro.options`), threads the instrumentation surface (metrics,
events, progress, deadlines — :mod:`repro.obs`) and optionally mines on
CubeMiner's canonical transpose (largest axis on columns, Section 5.2)
while transparently mapping thresholds and result cubes back.

Third-party miners plug in through :func:`register_algorithm`; the
:data:`ALGORITHMS` tuple is derived from the registry, never
hand-maintained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core.constraints import Thresholds
from .core.dataset import Dataset3D
from .core.kernels import Kernel
from .core.permute import map_cube_from_transposed
from .core.result import MiningResult
from .obs import EventSink, MiningCancelled, MiningMetrics, ProgressController
from .options import (
    AlgorithmOptions,
    CubeMinerOptions,
    ParallelOptions,
    ReferenceOptions,
    RSMOptions,
)

__all__ = [
    "mine",
    "ALGORITHMS",
    "AlgorithmSpec",
    "register_algorithm",
    "unregister_algorithm",
    "get_algorithm",
]

#: A mining entry point: ``fn(dataset, thresholds, **kwargs) -> MiningResult``.
MinerFn = Callable[..., MiningResult]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry for :func:`mine`.

    ``loader`` returns the mining function on first use — built-in specs
    import lazily so ``import repro`` stays light and cycle-free.
    """

    name: str
    loader: Callable[[], MinerFn]
    options_type: Optional[type] = None
    description: str = ""

    def resolve(self) -> MinerFn:
        return self.loader()


_REGISTRY: dict[str, AlgorithmSpec] = {}

#: Algorithm names accepted by :func:`mine` (derived from the registry).
ALGORITHMS: tuple[str, ...] = ()


def _refresh_names() -> None:
    global ALGORITHMS
    ALGORITHMS = tuple(_REGISTRY)


def register_algorithm(
    name: str,
    loader: Callable[[], MinerFn],
    *,
    options_type: Optional[type] = None,
    description: str = "",
    replace: bool = False,
) -> AlgorithmSpec:
    """Register a mining algorithm under ``name``.

    Parameters
    ----------
    name:
        Registry key, as passed to ``mine(..., algorithm=name)``.
    loader:
        Zero-argument callable returning the mining function
        ``fn(dataset, thresholds, **kwargs) -> MiningResult``.  Called
        on first dispatch (import your implementation inside it to keep
        registration cheap).  The function should accept the
        instrumentation keywords ``metrics`` / ``on_event`` /
        ``progress`` / ``deadline``.
    options_type:
        Optional typed options dataclass with a
        ``to_kwargs(algorithm)`` method (see :mod:`repro.options`).
    replace:
        Allow overwriting an existing entry; otherwise a duplicate name
        raises :class:`ValueError`.
    """
    if not replace and name in _REGISTRY:
        raise ValueError(f"algorithm {name!r} is already registered")
    spec = AlgorithmSpec(name, loader, options_type, description)
    _REGISTRY[name] = spec
    _refresh_names()
    return spec


def unregister_algorithm(name: str) -> None:
    """Remove a registered algorithm (KeyError if absent)."""
    del _REGISTRY[name]
    _refresh_names()


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registry entry by name (ValueError if absent)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {ALGORITHMS}"
        ) from None


def _load_cubeminer() -> MinerFn:
    from .cubeminer.algorithm import cubeminer_mine

    return cubeminer_mine


def _load_rsm() -> MinerFn:
    from .rsm.algorithm import rsm_mine

    return rsm_mine


def _load_reference() -> MinerFn:
    from .core.reference import reference_mine

    return reference_mine


def _load_parallel_cubeminer() -> MinerFn:
    from .parallel.executor import parallel_cubeminer_mine

    return parallel_cubeminer_mine


def _load_parallel_rsm() -> MinerFn:
    from .parallel.executor import parallel_rsm_mine

    return parallel_rsm_mine


register_algorithm(
    "cubeminer",
    _load_cubeminer,
    options_type=CubeMinerOptions,
    description="Direct 3D splitting-tree miner (Section 5).",
)
register_algorithm(
    "rsm",
    _load_rsm,
    options_type=RSMOptions,
    description="Representative Slice Mining over a 2D FCP miner (Section 4).",
)
register_algorithm(
    "reference",
    _load_reference,
    options_type=ReferenceOptions,
    description="Exponential brute-force oracle (tiny inputs only).",
)
register_algorithm(
    "parallel-cubeminer",
    _load_parallel_cubeminer,
    options_type=ParallelOptions,
    description="CubeMiner tree branches fanned across worker processes.",
)
register_algorithm(
    "parallel-rsm",
    _load_parallel_rsm,
    options_type=ParallelOptions,
    description="Representative slices fanned across worker processes.",
)


def mine(
    dataset: Dataset3D,
    thresholds: Thresholds,
    *,
    algorithm: str = "cubeminer",
    auto_transpose: bool = False,
    kernel: str | Kernel | None = None,
    options: AlgorithmOptions | None = None,
    metrics: MiningMetrics | None = None,
    on_event: EventSink | None = None,
    progress: "ProgressController | Callable | None" = None,
    deadline: float | None = None,
) -> MiningResult:
    """Mine all frequent closed cubes of ``dataset``.

    Parameters
    ----------
    dataset:
        The 3D boolean context (heights, rows, columns).
    thresholds:
        Minimum supports per axis, in the dataset's axis order.
    algorithm:
        One of :data:`ALGORITHMS` (or anything added through
        :func:`register_algorithm`).  ``"cubeminer"`` (default) operates
        on the 3D tensor directly; ``"rsm"`` enumerates a base dimension
        and reuses a 2D FCP miner; ``"reference"`` is the exponential
        oracle (tiny inputs only); the ``parallel-*`` variants fan the
        task decomposition of Section 6 across worker processes.
    auto_transpose:
        When True, permute axes so the column axis is the largest before
        mining (CubeMiner's preprocessing heuristic) and map the found
        cubes back to the original axis order.
    kernel:
        Bitset backend override for this run (name or
        :class:`~repro.core.kernels.Kernel`); ``None`` keeps the
        dataset's own kernel (itself defaulting to ``REPRO_KERNEL`` /
        ``python-int``).  Backends never change the mined cubes.
    options:
        Typed options dataclass matching the algorithm
        (:class:`~repro.options.CubeMinerOptions`,
        :class:`~repro.options.RSMOptions`,
        :class:`~repro.options.ParallelOptions`).  Passing a mismatched
        class raises :class:`TypeError`.  For the ``parallel-*``
        variants, :class:`~repro.options.ParallelOptions` also carries
        the fault-tolerance knobs (``retries``, ``task_timeout``,
        ``backoff``) and chunk-level checkpoint/resume
        (``checkpoint_path``, ``resume``) — see ``docs/robustness.md``.
    metrics:
        A :class:`~repro.obs.metrics.MiningMetrics` to accumulate into;
        a fresh counter set is attached to ``result.stats.metrics``
        either way.
    on_event:
        Optional sink receiving typed start/node/prune/slice/done
        events (:mod:`repro.obs.events`).
    progress:
        A :class:`~repro.obs.progress.ProgressController` or bare
        callback taking :class:`~repro.obs.progress.ProgressUpdate`.
    deadline:
        Wall-clock budget in seconds.  On expiry (or
        ``ProgressController.cancel()``) the run raises
        :class:`~repro.obs.progress.MiningCancelled` whose ``partial``
        attribute holds the cubes and metrics gathered so far.

    .. versionchanged:: 2.0
        The pre-1.1 loose-keyword path (``mine(..., order=...,
        n_workers=...)``) was removed after a deprecation cycle; the
        typed ``options=`` dataclasses are the only option channel.
        See ``docs/api.md`` for the keyword-by-keyword migration table.
    """
    spec = get_algorithm(algorithm)
    kwargs: dict = {}
    if options is not None:
        to_kwargs = getattr(options, "to_kwargs", None)
        if to_kwargs is None:
            raise TypeError(
                f"options must be a typed options dataclass with to_kwargs(), "
                f"got {type(options).__name__}"
            )
        kwargs.update(to_kwargs(algorithm))
    for key, value in (
        ("metrics", metrics),
        ("on_event", on_event),
        ("progress", progress),
        ("deadline", deadline),
    ):
        if value is not None:
            kwargs[key] = value
    if kernel is not None:
        dataset = dataset.with_kernel(kernel)

    # Resolve the kernel now so a bad name (argument or REPRO_KERNEL)
    # fails before any mining starts, whatever the algorithm.
    dataset.kernel

    if auto_transpose:
        return _mine_transposed(dataset, thresholds, spec, kwargs)
    return _dispatch(dataset, thresholds, spec, kwargs)


def _dispatch(
    dataset: Dataset3D,
    thresholds: Thresholds,
    spec: AlgorithmSpec,
    kwargs: dict,
) -> MiningResult:
    return spec.resolve()(dataset, thresholds, **kwargs)


def _mine_transposed(
    dataset: Dataset3D,
    thresholds: Thresholds,
    spec: AlgorithmSpec,
    kwargs: dict,
) -> MiningResult:
    """Mine on the canonical transpose and map cubes back.

    Cancellation still works: a ``MiningCancelled`` escaping the
    transposed run has its partial cubes mapped back to the caller's
    axis order before re-raising.
    """
    import numpy as np

    order = tuple(int(axis) for axis in np.argsort(dataset.shape, kind="stable"))
    if order == (0, 1, 2):
        return _dispatch(dataset, thresholds, spec, kwargs)
    transposed = dataset.transpose(order)  # type: ignore[arg-type]

    def map_back(result: MiningResult) -> MiningResult:
        return MiningResult(
            cubes=[map_cube_from_transposed(cube, order) for cube in result.cubes],  # type: ignore[arg-type]
            algorithm=result.algorithm + "+transpose",
            thresholds=thresholds,
            dataset_shape=dataset.shape,
            elapsed_seconds=result.elapsed_seconds,
            stats=result.stats,
        )

    try:
        result = _dispatch(transposed, thresholds.permute(order), spec, kwargs)  # type: ignore[arg-type]
    except MiningCancelled as exc:
        if exc.partial is not None:
            exc.partial = map_back(exc.partial)
        raise
    return map_back(result)
