"""Interchange formats for datasets and mining results.

Datasets travel in three forms: the dense text of
:meth:`Dataset3D.to_text`, compressed NPZ
(:meth:`Dataset3D.save_npz`), and — here — a *sparse triples* text
format listing only the one-cells, the natural shape for transaction
logs and adjacency data::

    # any comment lines
    3 4 5          <- l n m header
    0 0 0          <- one-cell coordinates: height row column
    0 0 1
    ...

Results serialize to JSON (lossless, with labels and provenance) and
CSV (one cube per line, for spreadsheets/pandas).
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import json
from pathlib import Path

import numpy as np

from .core.constraints import Thresholds
from .core.cube import Cube
from .core.dataset import Dataset3D
from .core.result import MiningResult, MiningStats

__all__ = [
    "DatasetFormatError",
    "save_triples",
    "load_triples",
    "load_event_csv",
    "FingerprintStream",
    "dataset_fingerprint",
    "dataset_to_payload",
    "dataset_from_payload",
    "result_to_json",
    "result_from_json",
    "result_to_csv",
    "raw_cubes_to_payload",
    "raw_cubes_from_payload",
]


class DatasetFormatError(ValueError):
    """A dataset file is malformed (bad header, token, range, duplicate).

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    handlers keep working; carries the offending ``path`` and 1-based
    ``line_no`` when known so tools (and the CLI, which maps this to
    exit code 65) can point at the exact input line.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | Path | None = None,
        line_no: int | None = None,
    ) -> None:
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if line_no is not None:
            prefix += f"line {line_no}: "
        super().__init__(prefix + message)
        self.path = str(path) if path is not None else None
        self.line_no = line_no


# ----------------------------------------------------------------------
# Sparse triples
# ----------------------------------------------------------------------
def save_triples(dataset: Dataset3D, path: str | Path) -> None:
    """Write the dataset's one-cells as sparse triples text."""
    l, n, m = dataset.shape
    with open(Path(path), "w") as handle:
        handle.write(f"{l} {n} {m}\n")
        for k, i, j in np.argwhere(dataset.data):
            handle.write(f"{k} {i} {j}\n")


def load_triples(path: str | Path, **label_kwargs) -> Dataset3D:
    """Read a sparse-triples file back into a dataset.

    Blank lines and ``#`` comments are skipped.  Every malformation —
    truncated or non-numeric header, wrong token counts, non-integer
    tokens, out-of-range coordinates, duplicate cells — raises a single
    typed :class:`DatasetFormatError` carrying the offending line
    number, so callers never see a bare ``ValueError``/``IndexError``
    from parsing internals.
    """
    path = Path(path)
    header: tuple[int, int, int] | None = None
    cells: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                what = "header" if header is None else "cell"
                raise DatasetFormatError(
                    f"expected 3 integers for the {what}, got {line!r}",
                    path=path,
                    line_no=line_no,
                )
            try:
                k, i, j = (int(p) for p in parts)
            except ValueError:
                raise DatasetFormatError(
                    f"expected 3 integers, got {line!r}",
                    path=path,
                    line_no=line_no,
                ) from None
            if header is None:
                if min(k, i, j) < 0:
                    raise DatasetFormatError(
                        f"header sizes must be >= 0, got {k} {i} {j}",
                        path=path,
                        line_no=line_no,
                    )
                header = (k, i, j)
                continue
            l, n, m = header
            if not (0 <= k < l and 0 <= i < n and 0 <= j < m):
                raise DatasetFormatError(
                    f"cell ({k},{i},{j}) outside {l}x{n}x{m}",
                    path=path,
                    line_no=line_no,
                )
            if (k, i, j) in seen:
                raise DatasetFormatError(
                    f"duplicate cell ({k},{i},{j})",
                    path=path,
                    line_no=line_no,
                )
            seen.add((k, i, j))
            cells.append((k, i, j))
    if header is None:
        raise DatasetFormatError(
            "triples file has no 'l n m' header", path=path
        )
    return Dataset3D.from_cells(header, cells, **label_kwargs)


def load_event_csv(
    path: str | Path,
    *,
    height_column: str,
    row_column: str,
    column_column: str,
    delimiter: str = ",",
) -> Dataset3D:
    """Build a 3D context from a CSV event log.

    Each CSV record is one observed event — e.g. ``(month, region,
    item)`` for "item sold in region during month".  The distinct
    values of each designated column become that axis's labels (in
    first-appearance order), and every event sets its cell to 1.
    This is the on-ramp from real transaction logs to FCC mining::

        ds = load_event_csv("sales.csv", height_column="month",
                            row_column="region", column_column="item")
    """
    with open(Path(path), newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ValueError("event CSV has no header row")
        for needed in (height_column, row_column, column_column):
            if needed not in reader.fieldnames:
                raise ValueError(
                    f"column {needed!r} not in CSV header {reader.fieldnames}"
                )
        heights: dict[str, int] = {}
        rows: dict[str, int] = {}
        columns: dict[str, int] = {}
        events: list[tuple[int, int, int]] = []
        for record in reader:
            k = heights.setdefault(record[height_column], len(heights))
            i = rows.setdefault(record[row_column], len(rows))
            j = columns.setdefault(record[column_column], len(columns))
            events.append((k, i, j))
    if not events:
        raise ValueError("event CSV holds no data rows")
    return Dataset3D.from_cells(
        (len(heights), len(rows), len(columns)),
        events,
        height_labels=list(heights),
        row_labels=list(rows),
        column_labels=list(columns),
    )


# ----------------------------------------------------------------------
# Content fingerprint and JSON wire format (the service registry key)
# ----------------------------------------------------------------------
class FingerprintStream:
    """The content fingerprint, fed one chunk of cells at a time.

    The fingerprint hashes the shape, then the *flattened* boolean
    tensor packed in C order with big-endian bit order, byte-padded
    only at the very end.  Feeding it slice by slice therefore needs a
    bit carry: a chunk whose bit count is not a multiple of 8 leaves up
    to 7 bits for the next chunk's first byte.
    """

    #: Cells absorbed per packbits round — bounds the temporaries so a
    #: whole height slice is never duplicated just to hash it.
    _STEP = 1 << 23

    def __init__(self, shape: tuple[int, int, int]) -> None:
        self._digest = hashlib.sha256()
        self._digest.update(repr(tuple(int(d) for d in shape)).encode())
        self._carry = np.zeros(0, dtype=np.uint8)
        self._done = False

    def update(self, bits: np.ndarray) -> None:
        """Absorb the next chunk of cell values (any shape, C order)."""
        if self._done:
            raise RuntimeError("fingerprint stream already finalized")
        flat = np.asarray(bits, dtype=bool).reshape(-1).view(np.uint8)
        for pos in range(0, len(flat), self._STEP):
            chunk = flat[pos : pos + self._STEP]
            if len(self._carry):
                chunk = np.concatenate([self._carry, chunk])
            whole = (len(chunk) // 8) * 8
            if whole:
                self._digest.update(np.packbits(chunk[:whole]).tobytes())
            # Copy so the carry never pins the chunk (or the caller's
            # slice buffer) alive between updates.
            self._carry = chunk[whole:].copy()

    def hexdigest(self) -> str:
        """Finalize (padding the trailing partial byte) and return."""
        if not self._done:
            if len(self._carry):
                self._digest.update(np.packbits(self._carry).tobytes())
                self._carry = np.zeros(0, dtype=np.uint8)
            self._done = True
        return self._digest.hexdigest()


def dataset_fingerprint(dataset: Dataset3D) -> str:
    """A sha256 digest of the dataset's *cell content*.

    Covers the shape and every cell value (bit-packed in canonical C
    order) but deliberately not the labels: they do not change the
    mined cube sets, so two uploads of the same
    tensor share one registry entry and one threshold-lattice cache
    line.  This is the key the service's dataset registry and result
    cache are organized around.  Heights are hashed one at a time
    through :class:`FingerprintStream`, so a dataset stored as packed
    words (memory-mapped, shared memory) never builds its tensor.
    """
    stream = FingerprintStream(dataset.shape)
    for k in range(dataset.n_heights):
        stream.update(dataset.height_slice(k))
    return stream.hexdigest()


def dataset_to_payload(dataset: Dataset3D) -> dict:
    """Serialize a dataset to the sparse JSON upload format.

    The shape, the one-cell coordinate triples, and the axis labels —
    the JSON twin of the sparse-triples text format, used by
    ``POST /v1/datasets``.
    """
    return {
        "schema": 1,
        "shape": list(dataset.shape),
        "cells": np.argwhere(dataset.data).tolist(),
        "height_labels": list(dataset.height_labels),
        "row_labels": list(dataset.row_labels),
        "column_labels": list(dataset.column_labels),
    }


def dataset_from_payload(payload: dict) -> Dataset3D:
    """Rebuild a dataset from :func:`dataset_to_payload` output.

    Labels are optional — defaults apply when omitted.  Malformed
    payloads raise :class:`DatasetFormatError`, same as the text
    loaders.  The cells are parsed, bounds-checked and duplicate-checked
    as one ``(N, 3)`` int64 array; a payload that fails is walked cell
    by cell only to name its first offending cell.
    """
    try:
        shape = tuple(int(s) for s in payload["shape"])
        cells = payload.get("cells", [])
    except (KeyError, TypeError, ValueError) as error:
        raise DatasetFormatError(
            f"malformed dataset payload: {error}"
        ) from None
    try:
        triples = np.array(cells, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        triples = None
    if triples is not None and triples.shape == (0,):
        triples = triples.reshape(0, 3)
    if triples is None or triples.ndim != 2 or triples.shape[1] != 3:
        raise _first_bad_cell(cells, shape)
    _check_payload_shape(shape)
    # Equal cells sort side by side, whatever the key order.
    ranked = triples[np.lexsort(triples.T)]
    if ((triples < 0) | (triples >= np.array(shape))).any() or (
        (ranked[1:] == ranked[:-1]).all(axis=1).any()
    ):
        raise _first_bad_cell(cells, shape)
    label_kwargs = {}
    for key in ("height_labels", "row_labels", "column_labels"):
        if payload.get(key) is not None:
            label_kwargs[key] = [str(v) for v in payload[key]]
    try:
        return Dataset3D.from_cells(shape, triples, **label_kwargs)
    except ValueError as error:
        raise DatasetFormatError(str(error)) from None


def _check_payload_shape(shape: tuple) -> None:
    if len(shape) != 3 or any(s < 0 for s in shape):
        raise DatasetFormatError(
            f"dataset payload shape must be 3 non-negative sizes, got {shape!r}"
        )


def _first_bad_cell(cells, shape: tuple) -> DatasetFormatError:
    """The error that names the first offending cell of a rejected payload.

    Every coordinate must convert with ``int()`` (the first that does
    not is reported, before any other check), then the shape must be 3
    sizes, then each cell in payload order must have 3 coordinates
    inside ``shape`` and must not repeat an earlier one.
    """
    try:
        parsed = [tuple(int(v) for v in cell) for cell in cells]
    except (TypeError, ValueError, OverflowError) as error:
        return DatasetFormatError(f"malformed dataset payload: {error}")
    _check_payload_shape(shape)
    l, n, m = shape
    seen: set[tuple[int, ...]] = set()
    for cell in parsed:
        if len(cell) != 3:
            return DatasetFormatError(f"expected [k, i, j] cells, got {cell!r}")
        k, i, j = cell
        if not (0 <= k < l and 0 <= i < n and 0 <= j < m):
            return DatasetFormatError(f"cell ({k},{i},{j}) outside {l}x{n}x{m}")
        if cell in seen:
            return DatasetFormatError(f"duplicate cell ({k},{i},{j})")
        seen.add(cell)
    return DatasetFormatError(
        "malformed dataset payload: cells must be a list of [k, i, j] integer triples"
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def raw_cubes_to_payload(
    raw: list[tuple[int, int, int]],
) -> list[list[int]]:
    """Serialize raw ``(heights, rows, columns)`` mask triples to JSON.

    Masks are arbitrary-precision ints, which JSON represents exactly;
    this is the chunk-result wire format of the parallel checkpoint
    journal (:mod:`repro.parallel.checkpoint`).
    """
    return [[int(h), int(r), int(c)] for h, r, c in raw]


def raw_cubes_from_payload(payload: list) -> list[tuple[int, int, int]]:
    """Rebuild raw mask triples from :func:`raw_cubes_to_payload` output."""
    out: list[tuple[int, int, int]] = []
    for entry in payload:
        if len(entry) != 3:
            raise ValueError(f"expected [h, r, c] masks, got {entry!r}")
        h, r, c = (int(v) for v in entry)
        out.append((h, r, c))
    return out


def result_to_json(result: MiningResult, dataset: Dataset3D | None = None) -> str:
    """Serialize a result (with optional labels) to a JSON document."""
    payload: dict = {
        "algorithm": result.algorithm,
        "dataset_shape": list(result.dataset_shape) if result.dataset_shape else None,
        "thresholds": result.thresholds.to_dict() if result.thresholds else None,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": result.stats.to_dict(),
        "cubes": [
            {
                "heights": list(cube.height_indices()),
                "rows": list(cube.row_indices()),
                "columns": list(cube.column_indices()),
            }
            for cube in result
        ],
    }
    if dataset is not None:
        payload["labels"] = {
            "heights": list(dataset.height_labels),
            "rows": list(dataset.row_labels),
            "columns": list(dataset.column_labels),
        }
    return json.dumps(payload, indent=2)


def result_from_json(text: str) -> MiningResult:
    """Rebuild a :class:`MiningResult` from :func:`result_to_json` output."""
    payload = json.loads(text)
    cubes = [
        Cube.from_indices(entry["heights"], entry["rows"], entry["columns"])
        for entry in payload["cubes"]
    ]
    thresholds = (
        Thresholds.from_dict(payload["thresholds"])
        if payload.get("thresholds")
        else None
    )
    shape = payload.get("dataset_shape")
    return MiningResult(
        cubes=cubes,
        algorithm=payload.get("algorithm", "unknown"),
        thresholds=thresholds,
        dataset_shape=tuple(shape) if shape else None,
        elapsed_seconds=payload.get("elapsed_seconds", 0.0),
        stats=MiningStats.from_dict(payload.get("stats") or {}),
    )


def result_to_csv(result: MiningResult, dataset: Dataset3D | None = None) -> str:
    """One cube per CSV row: supports plus space-separated members."""
    buffer = _io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["h_support", "r_support", "c_support", "heights", "rows", "columns"]
    )
    for cube in result:
        if dataset is not None:
            hs = " ".join(dataset.height_labels[k] for k in cube.height_indices())
            rs = " ".join(dataset.row_labels[i] for i in cube.row_indices())
            cs = " ".join(dataset.column_labels[j] for j in cube.column_indices())
        else:
            hs = " ".join(str(k) for k in cube.height_indices())
            rs = " ".join(str(i) for i in cube.row_indices())
            cs = " ".join(str(j) for j in cube.column_indices())
        writer.writerow(
            [cube.h_support, cube.r_support, cube.c_support, hs, rs, cs]
        )
    return buffer.getvalue()
