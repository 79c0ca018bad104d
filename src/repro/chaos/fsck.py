"""``repro-fcc fsck``: scan every on-disk store for damage, and repair.

One service data directory holds four stores (``datasets/``,
``cache/``, ``jobs/``, ``deltas/``), each with its own integrity
invariants.  :func:`fsck_data_dir` walks all of them and
reports every violation as a typed :class:`FsckIssue`:

* **errors** — corruption: unreadable metadata, checksum or
  fingerprint mismatches, delta logs without a readable header,
  corrupt job results.  A daemon must not serve from these
  (``repro-fcc serve`` refuses to start over them, exit 65).
* **warnings** — debris: orphaned temp files, half-registered entry
  pairs, dead job directories, delta logs whose base dataset is no
  longer registered.  Harmless to correctness, but they accumulate.
  A dataset still in the older NPZ layout (``<fp>.npz`` next to its
  ``<fp>.json``), or with a sidecar that records no digest of its own,
  is a warning too, which repair never moves: opening the store
  converts it, unless its content fails its check.

fsck owns the *structure* of the tree — names, pairings, orphans,
temps, record ids.  For *content* it calls each store's own check: the
result-document reader (:meth:`~repro.chaos.io.IOShim.read_document`,
through :func:`~repro.service.jobs.read_job_result` for job results)
for cache entries and job results, and the dataset store's
:func:`~repro.stream.store.verify_meta` and
:func:`~repro.stream.store.verify_grid` for sidecars and packed grids.
It never constructs a store (the dataset store's constructor sweeps
temps and migrates older entries).

With ``repair=True`` corrupt and orphaned items are moved into
``<data_dir>/quarantined/fsck/`` (never deleted — an operator can
post-mortem them) and stale temps are removed; a second scan of the
repaired tree reports clean.  ``queued``/``running`` jobs are *not*
issues: they are the restart-recovery story and are counted in
``report.scanned["jobs_resumable"]`` instead.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from .io import CHECKSUM_MISMATCH, IOShim, StoreCorruptionError

__all__ = ["FsckIssue", "FsckReport", "fsck_data_dir"]

#: Subdirectories of a data dir that fsck never scans for issues.
_QUARANTINE_DIRS = frozenset({"quarantined"})


def _is_temp(path: Path) -> bool:
    return path.name.startswith(".") and ".tmp" in path.name


@dataclass
class FsckIssue:
    """One integrity violation found in one store."""

    store: str
    path: str
    kind: str
    detail: str
    severity: str = "error"
    repaired: bool = False

    def to_dict(self) -> dict:
        return {
            "store": self.store,
            "path": self.path,
            "kind": self.kind,
            "detail": self.detail,
            "severity": self.severity,
            "repaired": self.repaired,
        }

    def format(self) -> str:
        mark = "repaired" if self.repaired else self.severity
        return f"[{mark}] {self.store}: {self.kind}: {self.path} ({self.detail})"


@dataclass
class FsckReport:
    """Everything one scan found, plus what a repair pass did."""

    root: str
    issues: list[FsckIssue] = field(default_factory=list)
    scanned: dict[str, int] = field(default_factory=dict)
    repaired: int = 0

    @property
    def errors(self) -> list[FsckIssue]:
        return [i for i in self.issues if i.severity == "error" and not i.repaired]

    @property
    def warnings(self) -> list[FsckIssue]:
        return [i for i in self.issues if i.severity == "warn" and not i.repaired]

    @property
    def clean(self) -> bool:
        """True when nothing unrepaired remains."""
        return not self.errors and not self.warnings

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "clean": self.clean,
            "scanned": dict(self.scanned),
            "repaired": self.repaired,
            "issues": [issue.to_dict() for issue in self.issues],
        }

    def summary(self) -> str:
        lines = [
            f"fsck {self.root}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{self.repaired} repaired"
        ]
        for issue in self.issues:
            lines.append("  " + issue.format())
        counted = ", ".join(f"{k}={v}" for k, v in sorted(self.scanned.items()))
        if counted:
            lines.append(f"  scanned: {counted}")
        lines.append("clean" if self.clean else "NOT CLEAN")
        return "\n".join(lines)


class _Fsck:
    def __init__(self, data_dir: Path, *, repair: bool, verify_checksums: bool):
        self.root = data_dir
        self.repair = repair
        self.verify = verify_checksums
        self.io = IOShim()
        self.report = FsckReport(root=str(data_dir))
        self._quarantine_root = data_dir / "quarantined" / "fsck"

    # ------------------------------------------------------------------
    # Issue plumbing
    # ------------------------------------------------------------------
    def _issue(
        self,
        store: str,
        path: Path,
        kind: str,
        detail: str,
        *,
        severity: str = "error",
    ) -> FsckIssue:
        issue = FsckIssue(
            store=store,
            path=str(path.relative_to(self.root)) if path.is_relative_to(self.root) else str(path),
            kind=kind,
            detail=detail,
            severity=severity,
        )
        self.report.issues.append(issue)
        return issue

    def _quarantine(self, issue: FsckIssue, *paths: Path) -> None:
        """Move the offending files out of the store (repair mode)."""
        if not self.repair:
            return
        self._quarantine_root.mkdir(parents=True, exist_ok=True)
        for path in paths:
            if not path.exists():
                continue
            dest = self._quarantine_root / path.name
            counter = 1
            while dest.exists():
                counter += 1
                dest = self._quarantine_root / f"{path.name}.{counter}"
            shutil.move(str(path), str(dest))
        issue.repaired = True
        self.report.repaired += 1

    def _remove(self, issue: FsckIssue, path: Path) -> None:
        """Delete debris outright (repair mode; temps only)."""
        if not self.repair:
            return
        try:
            path.unlink()
        except OSError:
            return
        issue.repaired = True
        self.report.repaired += 1

    def _sweep_temps(self, store: str, directory: Path) -> None:
        for path in sorted(directory.glob(".*")):
            if path.is_file() and _is_temp(path):
                issue = self._issue(
                    store, path, "stale-temp", "orphaned temporary file",
                    severity="warn",
                )
                self._remove(issue, path)

    # ------------------------------------------------------------------
    # Store scanners
    # ------------------------------------------------------------------
    def run(self) -> FsckReport:
        self._scan_datasets(self.root / "datasets")
        self._scan_cache(self.root / "cache")
        self._scan_jobs(self.root / "jobs")
        self._scan_deltas(self.root / "deltas")
        quarantined = self.root / "jobs" / "quarantined"
        if quarantined.is_dir():
            self.report.scanned["jobs_quarantined"] = sum(
                1 for p in quarantined.iterdir() if p.is_dir()
            )
        return self.report

    def _scan_datasets(self, root: Path) -> None:
        from ..stream.store import verify_grid, verify_meta

        if not root.is_dir():
            return
        self._sweep_temps("datasets", root)
        count = 0
        for meta_path in sorted(root.glob("*.json")):
            if meta_path.name.startswith("."):
                continue
            count += 1
            fp = meta_path.stem
            npy = root / f"{fp}.npy"
            npz = root / f"{fp}.npz"
            try:
                meta = json.loads(meta_path.read_text())
                if not isinstance(meta, dict):
                    raise ValueError("not a JSON object")
                recorded = str(meta["fingerprint"])
            except (ValueError, KeyError) as error:
                issue = self._issue(
                    "datasets", meta_path, "bad-meta", f"unreadable metadata: {error}"
                )
                self._quarantine(issue, meta_path, npy, npz)
                continue
            if recorded != fp:
                issue = self._issue(
                    "datasets",
                    meta_path,
                    "fingerprint-mismatch",
                    f"metadata names {recorded[:12]}, file named {fp[:12]}",
                )
                self._quarantine(issue, meta_path, npy, npz)
                continue
            if npz.exists():
                # Never moved: the store's constructor converts it.
                self._issue(
                    "datasets", npz, "unmigrated",
                    "NPZ entry not yet converted to a packed grid", severity="warn",
                )
            if not npy.exists():
                if not npz.exists():
                    issue = self._issue(
                        "datasets", meta_path, "orphan-meta",
                        "metadata without its .npy payload", severity="warn",
                    )
                    self._quarantine(issue, meta_path)
                continue
            if "meta_sha256" not in meta:
                # Never moved: the store's constructor digests it.
                self._issue(
                    "datasets", meta_path, "unmigrated",
                    "metadata without its own sha256", severity="warn",
                )
            if self.verify:
                try:
                    if "meta_sha256" in meta:
                        verify_meta(meta_path, meta)
                    verify_grid(npy, meta)
                except (OSError, StoreCorruptionError) as error:
                    issue = self._issue(
                        "datasets",
                        Path(getattr(error, "path", npy)),
                        "checksum-mismatch",
                        str(error),
                    )
                    self._quarantine(issue, meta_path, npy)
        for payload in sorted([*root.glob("*.npy"), *root.glob("*.npz")]):
            if payload.name.startswith("."):
                continue
            if not (root / f"{payload.stem}.json").exists():
                issue = self._issue(
                    "datasets", payload, "orphan-payload",
                    f"{payload.suffix} without its metadata", severity="warn",
                )
                self._quarantine(issue, payload)
        self.report.scanned["datasets"] = count

    def _scan_cache(self, root: Path) -> None:
        if not root.is_dir():
            return
        count = 0
        for algo_dir in sorted(p for p in root.glob("*/*") if p.is_dir()):
            self._sweep_temps("cache", algo_dir)
        for path in sorted(root.glob("*/*/*.json")):
            if path.name.startswith("."):
                continue
            count += 1
            try:
                parts = [int(p) for p in path.stem.split("-")]
                if len(parts) != 4:
                    raise ValueError("bad threshold key")
            except (ValueError, TypeError):
                issue = self._issue(
                    "cache", path, "bad-key",
                    "filename is not a <h>-<r>-<c>-<v> threshold key",
                    severity="warn",
                )
                self._quarantine(issue, path)
                continue
            try:
                self.io.read_document("cache", path)
            except (OSError, StoreCorruptionError) as error:
                kind = (
                    "checksum-mismatch"
                    if getattr(error, "detail", None) == CHECKSUM_MISMATCH
                    else "unreadable"
                )
                issue = self._issue("cache", path, kind, str(error))
                self._quarantine(issue, path)
        self.report.scanned["cache_entries"] = count

    def _scan_jobs(self, root: Path) -> None:
        from ..service.jobs import read_job_result

        if not root.is_dir():
            return
        count = resumable = 0
        for job_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            if job_dir.name in _QUARANTINE_DIRS:
                continue
            count += 1
            self._sweep_temps("jobs", job_dir)
            job_json = job_dir / "job.json"
            if not job_json.exists():
                issue = self._issue(
                    "jobs", job_dir, "dead-job-dir",
                    "job directory without a job.json record", severity="warn",
                )
                self._quarantine(issue, job_dir)
                continue
            try:
                record = json.loads(job_json.read_text())
                status = record["status"]
                job_id = record["id"]
            except (ValueError, KeyError) as error:
                issue = self._issue(
                    "jobs", job_json, "bad-record", f"unreadable job record: {error}"
                )
                self._quarantine(issue, job_dir)
                continue
            if job_id != job_dir.name:
                issue = self._issue(
                    "jobs", job_json, "id-mismatch",
                    f"record id {job_id!r} in directory {job_dir.name!r}",
                )
                self._quarantine(issue, job_dir)
                continue
            if status in ("queued", "running"):
                resumable += 1
            result = job_dir / "result.json"
            if self.verify and result.exists():
                try:
                    read_job_result(self.io, job_dir)
                except (OSError, StoreCorruptionError) as error:
                    issue = self._issue(
                        "jobs", result, "checksum-mismatch", str(error)
                    )
                    self._quarantine(issue, job_dir)
        self.report.scanned["jobs"] = count
        self.report.scanned["jobs_resumable"] = resumable

    def _scan_deltas(self, root: Path) -> None:
        if not root.is_dir():
            return
        self._sweep_temps("deltas", root)
        registered = set()
        datasets = self.root / "datasets"
        if datasets.is_dir():
            registered = {
                p.stem for p in datasets.glob("*.json") if not p.name.startswith(".")
            }
        count = 0
        for path in sorted(root.glob("*.jsonl")):
            count += 1
            from ..stream.delta import _load_log

            try:
                header, _batches = _load_log(path)
            except OSError as error:
                header = None
                detail = str(error)
            else:
                detail = "no readable header line"
            if header is None:
                issue = self._issue("deltas", path, "unreadable-header", detail)
                self._quarantine(issue, path)
                continue
            base = str(header.get("fingerprint", ""))
            if registered and base not in registered:
                issue = self._issue(
                    "deltas", path, "dangling-log",
                    f"base dataset {base[:12]} is not registered",
                    severity="warn",
                )
                self._quarantine(issue, path)
        self.report.scanned["delta_logs"] = count


def fsck_data_dir(
    data_dir: "str | Path",
    *,
    repair: bool = False,
    verify_checksums: bool = True,
) -> FsckReport:
    """Scan (and optionally repair) one service data directory.

    ``verify_checksums=False`` skips the expensive payload hashing and
    dataset re-fingerprinting — the structural scan ``repro-fcc serve``
    runs at startup.  Raises :class:`OSError` only when the directory
    itself is unreadable; per-entry damage becomes issues, never
    exceptions.
    """
    root = Path(data_dir)
    if not root.exists():
        raise FileNotFoundError(f"data directory not found: {root}")
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    return _Fsck(root, repair=repair, verify_checksums=verify_checksums).run()
