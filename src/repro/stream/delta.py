"""Typed tensor deltas and the JSONL delta log.

A *delta* is one edit to a 3D binary tensor: flip a cell on
(:class:`SetCell`) or off (:class:`ClearCell`), append a slice along
any axis (:class:`AppendSlice`), or drop one (:class:`DropSlice`).
:func:`apply_deltas` applies a batch in order and reports, alongside
the edited dataset, exactly what the incremental maintainer needs: the
*dirty* height set (heights whose slice content may differ from the old
tensor's) and the old→new index map of every axis.

Dirtiness is tracked at height granularity because RSM's work units are
height subsets: a cell edit dirties its height, a height append/drop
dirties the new height (respectively nothing — drops only remap), and
any row/column append/drop dirties *every* height, since each height
slice gains or loses cells.  Heights left clean are guaranteed to hold
the same slice content (over surviving rows/columns) before and after
the batch — the invariant :func:`repro.stream.maintain.maintain` builds
on.

:class:`DeltaLog` journals batches as JSONL with the checkpoint layer's
discipline (:mod:`repro.parallel.checkpoint`): line 1 is a header
binding the log to one base tensor by content fingerprint and shape;
each following line is one batch with the fingerprint of the tensor it
produces.  Loading tolerates a truncated trailing line; binding a log
to the wrong base raises :class:`DeltaLogMismatchError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from ..core.dataset import AXIS_NAMES, Dataset3D
from ..io import dataset_fingerprint

__all__ = [
    "SetCell",
    "ClearCell",
    "AppendSlice",
    "DropSlice",
    "Delta",
    "DeltaApplication",
    "apply_deltas",
    "delta_to_dict",
    "delta_from_dict",
    "deltas_to_payload",
    "deltas_from_payload",
    "DeltaLog",
    "DeltaLogMismatchError",
]

#: Version tag of the delta log's line schema.
DELTA_LOG_VERSION = 1

_AXIS_PREFIX = {0: "h", 1: "r", 2: "c"}


def _axis_index(axis: "int | str") -> int:
    if isinstance(axis, str):
        try:
            return AXIS_NAMES.index(axis)
        except ValueError:
            raise ValueError(
                f"unknown axis {axis!r}, expected one of {AXIS_NAMES}"
            ) from None
    axis = int(axis)
    if axis not in (0, 1, 2):
        raise ValueError(f"axis index must be 0, 1 or 2, got {axis}")
    return axis


# ----------------------------------------------------------------------
# The delta types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SetCell:
    """Turn one cell on: ``O[height, row, column] = 1``."""

    height: int
    row: int
    column: int


@dataclass(frozen=True)
class ClearCell:
    """Turn one cell off: ``O[height, row, column] = 0``."""

    height: int
    row: int
    column: int


@dataclass(frozen=True)
class AppendSlice:
    """Append one slice at the end of ``axis``.

    ``values`` is the slice content in the shape of the tensor with
    ``axis`` removed — ``(n_rows, n_columns)`` for a height,
    ``(n_heights, n_columns)`` for a row, ``(n_heights, n_rows)`` for a
    column.  Stored as nested tuples so the delta stays hashable and
    JSON-serializable.
    """

    axis: int
    values: tuple
    label: "str | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", _axis_index(self.axis))
        frozen = tuple(
            tuple(int(v) for v in row) for row in np.asarray(self.values)
        )
        for row in frozen:
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"slice values must be 0/1, found {v}")
        object.__setattr__(self, "values", frozen)


@dataclass(frozen=True)
class DropSlice:
    """Remove the slice at ``index`` along ``axis``."""

    axis: int
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", _axis_index(self.axis))


Delta = Union[SetCell, ClearCell, AppendSlice, DropSlice]

_OP_NAMES = {
    SetCell: "set-cell",
    ClearCell: "clear-cell",
    AppendSlice: "append-slice",
    DropSlice: "drop-slice",
}


def delta_to_dict(delta: Delta) -> dict:
    """One delta as a JSON-ready dict (inverse of :func:`delta_from_dict`)."""
    op = _OP_NAMES.get(type(delta))
    if op is None:
        raise TypeError(f"not a delta: {delta!r}")
    if isinstance(delta, (SetCell, ClearCell)):
        return {
            "op": op,
            "height": delta.height,
            "row": delta.row,
            "column": delta.column,
        }
    if isinstance(delta, AppendSlice):
        payload: dict = {
            "op": op,
            "axis": delta.axis,
            "values": [list(row) for row in delta.values],
        }
        if delta.label is not None:
            payload["label"] = delta.label
        return payload
    return {"op": op, "axis": delta.axis, "index": delta.index}


def delta_from_dict(payload: dict) -> Delta:
    """Rebuild one delta from :func:`delta_to_dict` output."""
    if not isinstance(payload, dict):
        raise ValueError(f"delta must be a JSON object, got {payload!r}")
    op = payload.get("op")
    if op in ("set-cell", "clear-cell"):
        cls = SetCell if op == "set-cell" else ClearCell
        return cls(
            height=int(payload["height"]),
            row=int(payload["row"]),
            column=int(payload["column"]),
        )
    if op == "append-slice":
        label = payload.get("label")
        return AppendSlice(
            axis=payload["axis"],
            values=payload["values"],
            label=None if label is None else str(label),
        )
    if op == "drop-slice":
        return DropSlice(axis=payload["axis"], index=int(payload["index"]))
    raise ValueError(f"unknown delta op {op!r}")


def deltas_to_payload(deltas: "list[Delta] | tuple[Delta, ...]") -> list[dict]:
    """A delta batch as a JSON-ready list."""
    return [delta_to_dict(delta) for delta in deltas]


def deltas_from_payload(payload: list) -> list[Delta]:
    """Rebuild a delta batch from :func:`deltas_to_payload` output."""
    if not isinstance(payload, list):
        raise ValueError(f"delta batch must be a JSON list, got {payload!r}")
    return [delta_from_dict(entry) for entry in payload]


# ----------------------------------------------------------------------
# Application
# ----------------------------------------------------------------------
@dataclass
class DeltaApplication:
    """The outcome of applying one delta batch.

    ``dirty_heights`` is a bitmask over the *new* tensor's height
    indices; a clean height's slice is guaranteed identical (over
    surviving rows/columns) to its old counterpart.  The three maps
    give, per old index, the index it landed on in the new tensor — or
    ``None`` when the slice was dropped.
    """

    dataset: Dataset3D
    dirty_heights: int
    height_map: tuple
    row_map: tuple
    column_map: tuple
    n_deltas: int


def _fresh_label(axis: int, existing: list[str]) -> str:
    taken = set(existing)
    k = len(existing) + 1
    while f"{_AXIS_PREFIX[axis]}{k}" in taken:
        k += 1
    return f"{_AXIS_PREFIX[axis]}{k}"


def apply_deltas(
    dataset: Dataset3D,
    deltas: "list[Delta] | tuple[Delta, ...]",
) -> DeltaApplication:
    """Apply a delta batch in order and return the edited dataset.

    Coordinates are validated against the tensor shape *at the point
    the delta applies* (earlier deltas in the batch may have resized
    it).  Dropping the last slice of an axis is rejected — a dataset
    keeps at least one slice per axis.
    """
    tensor = np.array(dataset.data, dtype=bool)
    labels = [
        list(dataset.height_labels),
        list(dataset.row_labels),
        list(dataset.column_labels),
    ]
    # origins[axis][current_index] -> old index, or None for appended.
    origins: list[list] = [list(range(d)) for d in dataset.shape]
    dirty: set[int] = set()

    for position, delta in enumerate(deltas):
        try:
            tensor, dirty = _apply_one(tensor, labels, origins, dirty, delta)
        except (ValueError, IndexError, TypeError) as error:
            raise ValueError(f"delta #{position}: {error}") from None

    new = Dataset3D(
        tensor,
        height_labels=labels[0],
        row_labels=labels[1],
        column_labels=labels[2],
    )
    maps = []
    for axis, old_size in enumerate(dataset.shape):
        forward: list = [None] * old_size
        for current, old in enumerate(origins[axis]):
            if old is not None:
                forward[old] = current
        maps.append(tuple(forward))
    dirty_mask = 0
    for k in dirty:
        dirty_mask |= 1 << k
    return DeltaApplication(
        dataset=new,
        dirty_heights=dirty_mask,
        height_map=maps[0],
        row_map=maps[1],
        column_map=maps[2],
        n_deltas=len(deltas),
    )


def _apply_one(
    tensor: np.ndarray,
    labels: list[list[str]],
    origins: list[list],
    dirty: set[int],
    delta: Delta,
) -> tuple[np.ndarray, set[int]]:
    if isinstance(delta, (SetCell, ClearCell)):
        k, i, j = int(delta.height), int(delta.row), int(delta.column)
        l, n, m = tensor.shape
        if not (0 <= k < l and 0 <= i < n and 0 <= j < m):
            raise ValueError(
                f"cell ({k}, {i}, {j}) is outside the tensor shape {(l, n, m)}"
            )
        tensor[k, i, j] = isinstance(delta, SetCell)
        dirty.add(k)
        return tensor, dirty
    if isinstance(delta, AppendSlice):
        axis = delta.axis
        values = np.asarray(delta.values, dtype=bool)
        expected = tuple(d for a, d in enumerate(tensor.shape) if a != axis)
        if values.shape != expected:
            raise ValueError(
                f"appended {AXIS_NAMES[axis]} slice has shape {values.shape}, "
                f"expected {expected}"
            )
        label = delta.label or _fresh_label(axis, labels[axis])
        if label in labels[axis]:
            raise ValueError(f"{AXIS_NAMES[axis]} label {label!r} already exists")
        tensor = np.concatenate([tensor, np.expand_dims(values, axis)], axis=axis)
        labels[axis].append(label)
        origins[axis].append(None)
        if axis == 0:
            dirty.add(tensor.shape[0] - 1)
        else:
            dirty = set(range(tensor.shape[0]))
        return tensor, dirty
    if isinstance(delta, DropSlice):
        axis, index = delta.axis, int(delta.index)
        if not 0 <= index < tensor.shape[axis]:
            raise ValueError(
                f"{AXIS_NAMES[axis]} index {index} is outside "
                f"0..{tensor.shape[axis] - 1}"
            )
        if tensor.shape[axis] == 1:
            raise ValueError(f"cannot drop the last {AXIS_NAMES[axis]} slice")
        tensor = np.delete(tensor, index, axis=axis)
        del labels[axis][index]
        del origins[axis][index]
        if axis == 0:
            dirty = {k - 1 if k > index else k for k in dirty if k != index}
        else:
            dirty = set(range(tensor.shape[0]))
        return tensor, dirty
    raise TypeError(f"not a delta: {delta!r}")


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
class DeltaLogMismatchError(ValueError):
    """A delta log's header does not match the tensor it is bound to."""


class DeltaLog:
    """Append-only JSONL journal of delta batches over one base tensor.

    The header pins the base tensor's content fingerprint and shape;
    every batch line records its sequence number, its deltas, and the
    fingerprint of the tensor the batch produces, so
    :meth:`tip_fingerprint` names the current tensor without replaying
    anything and :meth:`replay` can verify each step it re-applies.
    """

    def __init__(
        self,
        path: Path,
        header: dict,
        batches: list[dict],
        *,
        io=None,
    ) -> None:
        from ..chaos.io import IOShim

        self.path = path
        self.io = io if io is not None else IOShim()
        self._header = header
        self._batches = batches

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: "str | Path",
        *,
        dataset: "Dataset3D | None" = None,
        fingerprint: "str | None" = None,
        shape: "tuple[int, int, int] | None" = None,
        io=None,
    ) -> "DeltaLog":
        """Open a delta log, creating it when missing.

        The base tensor is named either directly (``fingerprint`` +
        ``shape``) or via ``dataset``.  An existing log must match that
        base (:class:`DeltaLogMismatchError` otherwise); a new log
        requires it.  ``io`` is the :class:`~repro.chaos.io.IOShim`
        appends route through (the hardened default when unset).
        """
        path = Path(path)
        if dataset is not None:
            fingerprint = dataset_fingerprint(dataset)
            shape = dataset.shape
        if path.exists():
            header, batches = _load_log(path)
            if header is None:
                raise DeltaLogMismatchError(f"{path} has no readable header")
            if fingerprint is not None and header.get("fingerprint") != fingerprint:
                raise DeltaLogMismatchError(
                    f"{path} is bound to base {header.get('fingerprint')!r}, "
                    f"not {fingerprint!r}"
                )
            return cls(path, header, batches, io=io)
        if fingerprint is None or shape is None:
            raise ValueError(
                "creating a delta log needs a base dataset or a "
                "fingerprint + shape"
            )
        header = {
            "kind": "header",
            "version": DELTA_LOG_VERSION,
            "fingerprint": fingerprint,
            "shape": [int(d) for d in shape],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        log = cls(path, header, [], io=io)
        with open(path, "a") as handle:
            log.io.append_line("delta", handle, json.dumps(header))
        return log

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the base tensor."""
        return str(self._header["fingerprint"])

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of the base tensor."""
        return tuple(int(d) for d in self._header["shape"])  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._batches)

    def batches(self) -> list[list[Delta]]:
        """Every journalled batch, in append order."""
        return [deltas_from_payload(b["deltas"]) for b in self._batches]

    def tip_fingerprint(self) -> str:
        """Fingerprint of the tensor after the last batch (base if none)."""
        if self._batches:
            return str(self._batches[-1]["fingerprint"])
        return self.fingerprint

    # ------------------------------------------------------------------
    # Write / replay
    # ------------------------------------------------------------------
    def append(
        self, deltas: "list[Delta] | tuple[Delta, ...]", *, fingerprint: str
    ) -> int:
        """Journal one batch; returns its sequence number.

        ``fingerprint`` is the content fingerprint of the tensor the
        batch produces (the next batch's base).  The line is flushed and
        fsynced before returning, matching the checkpoint journal's
        durability.
        """
        record = {
            "kind": "batch",
            "seq": len(self._batches),
            "deltas": deltas_to_payload(list(deltas)),
            "fingerprint": fingerprint,
        }
        with open(self.path, "a") as handle:
            self.io.append_line("delta", handle, json.dumps(record))
        self._batches.append(record)
        return record["seq"]

    def replay(self, dataset: Dataset3D) -> Dataset3D:
        """Re-apply every batch to ``dataset`` (which must be the base).

        Each step's result is verified against the journalled
        fingerprint, so a log spliced onto the wrong tensor fails at
        the first divergence instead of silently drifting.
        """
        if dataset_fingerprint(dataset) != self.fingerprint:
            raise DeltaLogMismatchError(
                "replay base does not match the log's base fingerprint"
            )
        current = dataset
        for record in self._batches:
            current = apply_deltas(
                current, deltas_from_payload(record["deltas"])
            ).dataset
            if dataset_fingerprint(current) != record["fingerprint"]:
                raise DeltaLogMismatchError(
                    f"batch {record['seq']} replayed to a different tensor "
                    "than the journal recorded"
                )
        return current


def _load_log(path: Path) -> tuple["dict | None", list[dict]]:
    """Read a delta log, tolerating a truncated trailing line."""
    header: "dict | None" = None
    batches: list[dict] = []
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
            elif record.get("kind") == "batch":
                if record.get("seq") != len(batches) or "fingerprint" not in record:
                    break
                try:
                    deltas_from_payload(record.get("deltas"))
                except (ValueError, KeyError, TypeError):
                    break
                batches.append(record)
            else:
                break
    return header, batches
