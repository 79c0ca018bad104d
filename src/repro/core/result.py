"""Mining-result container.

Every miner in the library returns a :class:`MiningResult`: the set of
frequent closed cubes plus provenance (algorithm name, thresholds,
dataset shape, wall-clock time, run counters).  Results compare as
*sets of cubes* regardless of discovery order, which is what the
cross-algorithm equivalence tests rely on.

Run counters live in :class:`MiningStats`: the always-on
:class:`~repro.obs.metrics.MiningMetrics` counter set plus a small
``extra`` dict of algorithm-specific values.  ``MiningStats`` keeps the
historical dict-style access (``result.stats["nodes_visited"]``,
``.items()``, ``in``) and adds a stable JSON schema via
:meth:`MiningStats.to_dict` / :meth:`MiningStats.from_dict`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, MutableMapping
from dataclasses import dataclass, field

from ..obs.metrics import MiningMetrics
from .constraints import Thresholds
from .cube import Cube
from .dataset import Dataset3D

__all__ = ["MiningStats", "MiningResult", "result_payload"]


@dataclass
class MiningStats(MutableMapping):
    """Counters of one mining run, with dict-style access.

    ``metrics`` holds the always-on counter set (``None`` for results
    rebuilt from legacy payloads that never carried one); ``extra``
    holds algorithm-specific values (``n_workers``, legacy key aliases,
    ...).  The mapping view is the union of all metric fields and the
    extras, with extras winning on key clashes.
    """

    #: Version tag of the :meth:`to_dict` JSON schema.
    SCHEMA_VERSION = 1

    metrics: MiningMetrics | None = None
    extra: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Mapping protocol (backward-compatible dict-style access)
    # ------------------------------------------------------------------
    def _combined(self) -> dict[str, object]:
        data: dict[str, object] = (
            self.metrics.as_dict() if self.metrics is not None else {}
        )
        data.update(self.extra)
        return data

    def __getitem__(self, key: str) -> object:
        if key in self.extra:
            return self.extra[key]
        if self.metrics is not None and hasattr(self.metrics, key):
            return getattr(self.metrics, key)
        raise KeyError(key)

    def __setitem__(self, key: str, value: object) -> None:
        self.extra[key] = value

    def __delitem__(self, key: str) -> None:
        del self.extra[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._combined())

    def __len__(self) -> int:
        return len(self._combined())

    def __contains__(self, key: object) -> bool:
        return key in self.extra or (
            isinstance(key, str)
            and self.metrics is not None
            and hasattr(self.metrics, key)
        )

    # ------------------------------------------------------------------
    # Stable JSON schema
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Serialize with a stable, versioned schema."""
        return {
            "schema": self.SCHEMA_VERSION,
            "metrics": self.metrics.as_dict() if self.metrics is not None else None,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: "dict | MiningStats | None") -> "MiningStats":
        """Rebuild from :meth:`to_dict` output.

        Legacy flat dicts (pre-schema results, e.g. old JSON files or
        ad-hoc ``stats={...}`` constructions) load as ``extra`` so
        every historical key keeps resolving.
        """
        if payload is None:
            return cls()
        if isinstance(payload, MiningStats):
            return payload
        if "schema" in payload and "metrics" in payload:
            raw = payload.get("metrics")
            return cls(
                metrics=MiningMetrics.from_dict(raw) if raw is not None else None,
                extra=dict(payload.get("extra") or {}),
            )
        return cls(extra=dict(payload))


@dataclass
class MiningResult:
    """The outcome of one FCC mining run."""

    #: Version tag of the :meth:`to_json` payload schema.
    SCHEMA_VERSION = 1

    cubes: list[Cube]
    algorithm: str = "unknown"
    thresholds: Thresholds | None = None
    dataset_shape: tuple[int, int, int] | None = None
    elapsed_seconds: float = 0.0
    stats: MiningStats = field(default_factory=MiningStats)

    def __post_init__(self) -> None:
        # Canonicalize: drop duplicates, order deterministically.
        unique = {cube: None for cube in self.cubes}
        self.cubes = sorted(unique, key=Cube.sort_key)
        if not isinstance(self.stats, MiningStats):
            # Legacy callers pass plain dicts; keep them working.
            self.stats = MiningStats.from_dict(self.stats)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __contains__(self, cube: object) -> bool:
        return cube in set(self.cubes)

    def cube_set(self) -> frozenset[Cube]:
        """The result as an order-free set."""
        return frozenset(self.cubes)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def same_cubes(self, other: "MiningResult | Iterable[Cube]") -> bool:
        """True when both runs found exactly the same cubes."""
        other_set = (
            other.cube_set() if isinstance(other, MiningResult) else frozenset(other)
        )
        return self.cube_set() == other_set

    def difference(
        self, other: "MiningResult | Iterable[Cube]"
    ) -> tuple[frozenset[Cube], frozenset[Cube]]:
        """Return ``(only_in_self, only_in_other)``."""
        mine = self.cube_set()
        theirs = (
            other.cube_set() if isinstance(other, MiningResult) else frozenset(other)
        )
        return mine - theirs, theirs - mine

    # ------------------------------------------------------------------
    # Stable JSON round-trip (the service wire format)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Serialize to a JSON-ready dict with a stable, versioned schema.

        Cubes travel as raw ``[heights, rows, columns]`` bitmask triples
        (arbitrary-precision ints, which JSON represents exactly), so
        ``from_payload(result.to_payload())`` is a lossless round-trip:
        same cube set *and* order, same thresholds (including
        ``min_volume``), same :class:`MiningStats` content.  This is the
        shape service responses use — a library object and a service
        response are the same data.
        """
        return result_payload(
            algorithm=self.algorithm,
            thresholds=self.thresholds,
            dataset_shape=self.dataset_shape,
            elapsed_seconds=self.elapsed_seconds,
            stats=self.stats,
            masks=[[cube.heights, cube.rows, cube.columns] for cube in self.cubes],
        )

    @classmethod
    def header_from_payload(cls, payload: dict) -> dict:
        """Validate a :meth:`to_payload` dict and decode all but its cubes.

        Returns the constructor keywords other than ``cubes``
        (``algorithm``, ``thresholds``, ``dataset_shape``,
        ``elapsed_seconds``, ``stats``); raises :class:`ValueError` on
        a foreign schema or a missing ``cubes`` list.  The result cache
        decodes a stored entry with it and :meth:`masks_from_payload`,
        so the two readers cannot disagree on any field.
        """
        schema = payload.get("schema")
        if schema != cls.SCHEMA_VERSION:
            raise ValueError(
                f"unsupported MiningResult schema {schema!r} "
                f"(this build reads schema {cls.SCHEMA_VERSION})"
            )
        raw_cubes = payload.get("cubes")
        if not isinstance(raw_cubes, list):
            raise ValueError(
                "MiningResult payload needs a 'cubes' list, got "
                f"{type(raw_cubes).__name__}"
            )
        raw_thresholds = payload.get("thresholds")
        shape = payload.get("dataset_shape")
        return {
            "algorithm": str(payload.get("algorithm", "unknown")),
            "thresholds": (
                Thresholds.from_dict(raw_thresholds)
                if raw_thresholds is not None
                else None
            ),
            "dataset_shape": tuple(int(s) for s in shape) if shape else None,
            "elapsed_seconds": float(payload.get("elapsed_seconds", 0.0)),
            "stats": MiningStats.from_dict(payload.get("stats")),
        }

    @staticmethod
    def masks_from_payload(payload: dict) -> Iterator[tuple[int, int, int]]:
        """Yield each ``cubes`` entry of a payload as checked ``(h, r, c)``.

        The one rule for a stored cube: three masks, each converted with
        ``int()`` and non-negative; anything else raises
        :class:`ValueError`.  Call it after :meth:`header_from_payload`,
        which checks that ``cubes`` is a list.
        """
        for entry in payload["cubes"]:
            if len(entry) != 3:
                raise ValueError(f"expected [h, r, c] masks, got {entry!r}")
            h, r, c = entry
            h, r, c = int(h), int(r), int(c)
            if h < 0 or r < 0 or c < 0:
                raise ValueError(f"cube masks must be non-negative, got {entry!r}")
            yield h, r, c

    @classmethod
    def from_payload(cls, payload: dict) -> "MiningResult":
        """Rebuild a result from :meth:`to_payload` output."""
        header = cls.header_from_payload(payload)
        cubes = [Cube(h, r, c) for h, r, c in cls.masks_from_payload(payload)]
        return cls(cubes=cubes, **header)

    def to_json(self, *, indent: int | None = None) -> str:
        """:meth:`to_payload` rendered as a JSON document."""
        import json

        return json.dumps(self.to_payload(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MiningResult":
        """Rebuild a result from :meth:`to_json` output."""
        import json

        return cls.from_payload(json.loads(text))

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def format_table(self, dataset: Dataset3D | None = None) -> str:
        """Render the cubes one per line in the paper's notation."""
        lines = [
            f"# {self.algorithm}: {len(self.cubes)} FCC(s)"
            + (f" [{self.thresholds}]" if self.thresholds else "")
        ]
        lines.extend(cube.format(dataset) for cube in self.cubes)
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line run summary for logs and benchmark harnesses."""
        shape = (
            "x".join(str(s) for s in self.dataset_shape)
            if self.dataset_shape
            else "?"
        )
        return (
            f"{self.algorithm}: {len(self.cubes)} FCCs on {shape} "
            f"in {self.elapsed_seconds:.3f}s"
        )

    def __repr__(self) -> str:
        return f"MiningResult(algorithm={self.algorithm!r}, n_cubes={len(self.cubes)})"


def result_payload(
    *,
    algorithm: str,
    thresholds: Thresholds | None,
    dataset_shape: "tuple[int, int, int] | None",
    elapsed_seconds: float,
    stats: MiningStats,
    masks: list,
) -> dict:
    """The one writer of the :meth:`MiningResult.to_payload` schema.

    ``masks`` is the canonically ordered list of ``[heights, rows,
    columns]`` triples.  The result cache calls this directly with the
    int triples it filtered, so a cache answer has a result's exact
    payload without any :class:`Cube` being built.
    """
    return {
        "schema": MiningResult.SCHEMA_VERSION,
        "algorithm": algorithm,
        "thresholds": thresholds.to_dict() if thresholds is not None else None,
        "dataset_shape": list(dataset_shape) if dataset_shape is not None else None,
        "elapsed_seconds": elapsed_seconds,
        "stats": stats.to_dict(),
        "cubes": masks,
    }
