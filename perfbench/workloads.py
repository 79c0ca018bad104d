"""The benchmark's four workloads.

Each workload builds its inputs from the seed during set-up, runs a
fixed list of operations per *pass*, and knows an independent way to
compute every operation's answer (:meth:`expected`), which the harness
runs after the timed region.

Inputs are the repository's paper substitutes (``elutriation_like``,
``cdc15_like``, the planted synthetic tensors) at their fixed structure
seeds, with columns permuted by the benchmark seed.  Drawing the
generator seed itself from ``--seed`` changes the work of a sweep 8x
from seed to seed (0.33 s to 2.79 s for the 35 CubeMiner points), which
would bury any regression.  A column permutation gives the program
different bits with the same work: CubeMiner visits the same number of
nodes, while permuting rows too moved it by 1-2% per seed.  The seed
also draws the delta batches and the query order.
"""

from __future__ import annotations

import hashlib
import importlib
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import CubeMinerOptions, Dataset3D, HeightOrder, RSMOptions, Thresholds, mine
from repro.datasets import cdc15_like, elutriation_like, planted_tensor
from repro.service import ServiceApp, ServiceClient, serve
from repro.stream import AppendSlice, ClearCell, DropSlice, SetCell

#: Gene count of the microarray substitutes (the paper: 7161 / 7761).
GENES = 250


def scale_minc(paper_minc: int, paper_genes: int) -> int:
    """A paper minC on 7161 / 7761 genes, translated to ``GENES``."""
    return max(1, round(paper_minc * GENES / paper_genes))


ELU_FIG3_MINC = [scale_minc(v, 7161) for v in (900, 1000, 1100, 1200, 1300, 1450, 1600)]
CDC_FIG3_MINC = [scale_minc(v, 7761) for v in (1000, 1100, 1200, 1300, 1400, 1550, 1700)]
ELU_ANCHOR_MINC = scale_minc(1000, 7161)
CDC_ANCHOR_MINC = scale_minc(1100, 7761)


def paper_points() -> list[tuple[str, str, Thresholds]]:
    """``(label, dataset, thresholds)`` of the 35 Figure 3-5 points."""
    points = [(f"fig3a/minC={c}", "elu", Thresholds(3, 3, c)) for c in ELU_FIG3_MINC]
    points += [(f"fig3b/minC={c}", "cdc", Thresholds(3, 3, c)) for c in CDC_FIG3_MINC]
    points += [(f"fig4a/minH={h}", "elu", Thresholds(h, 3, ELU_ANCHOR_MINC)) for h in range(5, 10)]
    points += [(f"fig4b/minH={h}", "cdc", Thresholds(h, 3, CDC_ANCHOR_MINC)) for h in range(5, 11)]
    points += [(f"fig5a/minR={r}", "elu", Thresholds(3, r, ELU_ANCHOR_MINC)) for r in range(3, 8)]
    points += [(f"fig5b/minR={r}", "cdc", Thresholds(3, r, CDC_ANCHOR_MINC)) for r in range(3, 8)]
    return points


#: Figure 8's large synthetic point (24 x 24 x 400 at 10% density).
FIG8_THRESHOLDS = Thresholds(8, 8, 10)
#: Figure 7's height-scalability points (h x 12 x 250 at 30% density).
FIG7_HEIGHTS = (6, 8, 10, 12, 14)
FIG7_THRESHOLDS = Thresholds(3, 3, 8)

RSM_R = RSMOptions(base_axis="auto")
RSM_H = RSMOptions(base_axis="height")
#: CubeMiner with another cutter order and no closure cache: the
#: independent path where RSM cannot run (Figure 8's tensor has 16M
#: row subsets).  Its closure checks go through the kernel sweeps.
CUBEMINER_PLAIN = CubeMinerOptions(order=HeightOrder.ORIGINAL, closure_cache_size=0)

#: Time points in the stream and service windows.  A cell edit makes
#: maintain() enumerate every height subset, 2^19 of them on the full
#: CDC15 substitute (6 s a batch); 12 points keep a batch near 0.1 s.
WINDOW = 12
#: Figure 3 points whose results (~200 cubes) keep the patch pass
#: from dominating; Elutriation at its anchor minC has 2,577.
STREAM_THRESHOLDS = {"elu": Thresholds(3, 3, 42), "cdc": Thresholds(3, 3, CDC_ANCHOR_MINC)}
#: One chain per dataset; each batch applies to the previous result.
STREAM_CHAIN = ("edit1", "edit2", "append", "expire", "edit1", "edit2")

#: 3,612 cubes on the window: a cold job mines in ~0.2 s, so worker
#: spawn, journaling and serialization stay visible beside it.
SERVICE_LOOSE = Thresholds(2, 2, 28)
SERVICE_LADDER = [Thresholds(h, r, c) for h in (2, 3, 4, 5) for r in (2, 3) for c in (30, 34, 38)]
#: The first successor query is part of the update operation.
SERVICE_SUCCESSOR = [SERVICE_LOOSE, Thresholds(3, 3, 30), Thresholds(4, 2, 34), Thresholds(2, 3, 38)]
#: How long the first query after a job may keep missing: the daemon
#: marks a job done before its result reaches the cache (JobManager._watch),
#: so a query right behind it can miss.  Each retry is counted.
SETTLE_S = 2.0
#: Each pass needs its own registered dataset, so that its first job
#: misses the cache; this bounds the passes of one run.
SERVICE_VARIANTS = 16
LONG_POLL_S = 10.0
JOB_TIMEOUT_S = 120.0


def sub_seed(seed: int, tag: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}/{tag}".encode()).digest()[:8], "little")


def relabel(data: np.ndarray, seed: int, tag: str) -> Dataset3D:
    """``data`` with its columns permuted by the seed."""
    rng = np.random.default_rng(sub_seed(seed, tag))
    return Dataset3D(np.ascontiguousarray(data[:, :, rng.permutation(data.shape[2])]))


def digest(cubes) -> str:
    """sha256 of the canonical (sorted mask-triple) cube list."""
    triples = sorted((cube.heights, cube.rows, cube.columns) for cube in cubes)
    return hashlib.sha256(repr(triples).encode()).hexdigest()


def pack(dataset: Dataset3D) -> None:
    """Build the bitmask caches: set-up work, not mining work."""
    dataset.ones_masks()
    dataset.ones_grid()


def substitutes(seed: int) -> dict[str, Dataset3D]:
    return {
        "elu": relabel(elutriation_like(GENES, seed=0).data, seed, "elutriation"),
        "cdc": relabel(cdc15_like(GENES, seed=1).data, seed, "cdc15"),
    }


@dataclass
class Op:
    """One timed operation of a pass."""

    label: str
    kind: str
    seconds: float
    result: object = None  # the MiningResult, until the harness digests it
    error: "str | None" = None
    digest: "str | None" = None
    work: "dict | None" = None  # MiningMetrics counters of the run behind it


@dataclass
class Job:
    """One daemon job: its final record and its event journal."""

    kind: str
    record: object
    events: list = field(default_factory=list)


def timed(label: str, kind: str, fn) -> Op:
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
        return Op(label, kind, time.perf_counter() - start, error=f"{type(error).__name__}: {error}")
    return Op(label, kind, time.perf_counter() - start, result)


# ----------------------------------------------------------------------
# paper-cubeminer / paper-rsm
# ----------------------------------------------------------------------
def _cubeminer(dataset, thresholds):
    return mine(dataset, thresholds, algorithm="cubeminer")


def _rsm_r(dataset, thresholds):
    return mine(dataset, thresholds, algorithm="rsm", options=RSM_R)


def _rsm_h(dataset, thresholds):
    return mine(dataset, thresholds, algorithm="rsm", options=RSM_H)


def _cubeminer_plain(dataset, thresholds):
    return mine(dataset, thresholds, options=CUBEMINER_PLAIN)


class PaperSweep:
    """The Section 7 threshold sweep under one algorithm.

    Each point is ``(label, dataset, thresholds, miner, independent
    miner)``: CubeMiner and RSM-R check each other; Figure 8 checks
    against :data:`CUBEMINER_PLAIN`, Figure 7's RSM-H against CubeMiner.
    """

    primary = "point"
    max_passes = None

    def __init__(self, seed: int, algorithm: str) -> None:
        self.seed = seed
        self.algorithm = algorithm
        self.points: list = []
        self._expected: "dict | None" = None

    def params(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "genes": GENES,
            "fig3_5_points": [(label, name, t.as_tuple()) for label, name, t in paper_points()],
            "fig8": FIG8_THRESHOLDS.as_tuple() if self.algorithm == "cubeminer" else None,
            "fig7_heights": FIG7_HEIGHTS if self.algorithm == "rsm" else None,
            "fig7_thresholds": FIG7_THRESHOLDS.as_tuple() if self.algorithm == "rsm" else None,
        }

    def setup(self) -> None:
        datasets = substitutes(self.seed)
        miner, check = (_cubeminer, _rsm_r) if self.algorithm == "cubeminer" else (_rsm_r, _cubeminer)
        self.points = [
            (label, datasets[name], thresholds, miner, check)
            for label, name, thresholds in paper_points()
        ]
        if self.algorithm == "cubeminer":
            big = planted_tensor(
                (24, 24, 400), n_blocks=8, block_shape=(8, 8, 40), background_density=0.10, seed=99
            ).dataset
            datasets["fig8"] = big = relabel(big.data, self.seed, "fig8")
            self.points.append(("fig8/minHR=8", big, FIG8_THRESHOLDS, miner, _cubeminer_plain))
        else:
            for h in FIG7_HEIGHTS:
                planted = planted_tensor(
                    (h, 12, 250), n_blocks=6, block_shape=(min(4, h), 5, 20),
                    background_density=0.30, seed=h,
                ).dataset
                datasets[f"fig7/{h}"] = ds = relabel(planted.data, self.seed, f"fig7/{h}")
                self.points.append((f"fig7/heights={h}", ds, FIG7_THRESHOLDS, _rsm_h, _cubeminer))
        for dataset in datasets.values():
            pack(dataset)
        self.primary_per_pass = len(self.points)

    def run_pass(self, index: int) -> list[Op]:
        return [
            timed(label, "point", lambda: miner(dataset, thresholds))
            for label, dataset, thresholds, miner, _check in self.points
        ]

    def expected(self, index: int) -> dict[str, str]:
        if self._expected is None:
            self._expected = {
                label: digest(check(dataset, thresholds).cubes)
                for label, dataset, thresholds, _miner, check in self.points
            }
        return self._expected

    def close(self) -> int:
        return 0


# ----------------------------------------------------------------------
# stream-maintain
# ----------------------------------------------------------------------
def apply_batch(data: np.ndarray, batch: list) -> np.ndarray:
    """The tensor after ``batch``, edited with numpy (the independent path)."""
    data = data.copy()
    for delta in batch:
        if isinstance(delta, SetCell):
            data[delta.height, delta.row, delta.column] = True
        elif isinstance(delta, ClearCell):
            data[delta.height, delta.row, delta.column] = False
        elif isinstance(delta, AppendSlice):
            data = np.concatenate([data, np.asarray(delta.values, dtype=bool)[None]])
        elif isinstance(delta, DropSlice):
            data = np.delete(data, delta.index, axis=0)
        else:
            raise TypeError(f"unexpected delta {delta!r}")
    return data


def cell_edits(rng: np.random.Generator, data: np.ndarray, n_heights: int, per_height: int) -> list:
    """Flip ``per_height`` random cells in each of ``n_heights`` heights."""
    batch = []
    for height in rng.choice(data.shape[0], size=n_heights, replace=False):
        for _ in range(per_height):
            k, i, j = int(height), int(rng.integers(data.shape[1])), int(rng.integers(data.shape[2]))
            batch.append(ClearCell(k, i, j) if data[k, i, j] else SetCell(k, i, j))
    return batch


class StreamMaintain:
    """``maintain()`` over a seeded chain of delta batches, in process.

    A pass replays both chains from their base results, so every pass
    runs the same operations.
    """

    primary = "batch"
    max_passes = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.chains: list = []
        self._expected: "dict | None" = None
        #: Seconds of each independent fresh mine (a batch's alternative).
        self.fresh_s: list = []

    def params(self) -> dict:
        return {
            "genes": GENES,
            "window": WINDOW,
            "thresholds": {name: t.as_tuple() for name, t in STREAM_THRESHOLDS.items()},
            "chain": STREAM_CHAIN,
        }

    def setup(self) -> None:
        rng = np.random.default_rng(sub_seed(self.seed, "stream"))
        self.chains = []
        for name, source in substitutes(self.seed).items():
            thresholds = STREAM_THRESHOLDS[name]
            base = Dataset3D(source.data[:WINDOW])
            pack(base)
            state, next_height, batches = base.data, WINDOW, []
            for step, kind in enumerate(STREAM_CHAIN):
                if kind == "append":
                    batch = [AppendSlice(0, source.data[next_height].astype(int))]
                    next_height += 1
                elif kind == "expire":
                    batch = [DropSlice(0, 0)]
                else:
                    batch = cell_edits(rng, state, int(kind[-1]), 2)
                state = apply_batch(state, batch)
                batches.append((f"{name}/{step}:{kind}", batch))
            self.chains.append((base, mine(base, thresholds), thresholds, batches))
        self.primary_per_pass = sum(len(chain[3]) for chain in self.chains)

    def run_pass(self, index: int) -> list[Op]:
        # Resolved per pass: the traced run wraps this binding.
        maintain = importlib.import_module("repro.stream.maintain").maintain
        ops = []
        for dataset, result, thresholds, batches in self.chains:
            for label, batch in batches:
                op = timed(label, "batch", lambda: maintain(dataset, result, batch, thresholds))
                ops.append(op)
                if op.error is not None:
                    break  # the rest of the chain has no valid input
                dataset, result = op.result
                op.result = result
        return ops

    def expected(self, index: int) -> dict[str, str]:
        if self._expected is None:
            self._expected = {}
            for base, _result, thresholds, batches in self.chains:
                data = base.data
                for label, batch in batches:
                    data = apply_batch(data, batch)
                    dataset = Dataset3D(data)
                    pack(dataset)
                    start = time.perf_counter()
                    cubes = mine(dataset, thresholds).cubes
                    self.fresh_s.append(time.perf_counter() - start)
                    self._expected[label] = digest(cubes)
        return self._expected

    def close(self) -> int:
        return 0


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
class ServiceMixed:
    """One client session against an in-process daemon on a fresh directory."""

    primary = "query"
    max_passes = SERVICE_VARIANTS

    def __init__(self, seed: int, tmp_root: Path, max_workers: int) -> None:
        self.seed = seed
        self.tmp_root = tmp_root
        self.max_workers = max_workers
        rng = np.random.default_rng(sub_seed(seed, "service"))
        self.ladder = [SERVICE_LADDER[i] for i in rng.permutation(len(SERVICE_LADDER))]
        self.rng = rng
        self.primary_per_pass = len(self.ladder) + len(SERVICE_SUCCESSOR) - 1
        self.jobs: list[Job] = []
        self.settle_retries = 0
        self._expected: dict[int, dict] = {}
        self.session: "Path | None" = None
        self.app = self.server = self.thread = None
        self.successor: "str | None" = None

    def params(self) -> dict:
        return {
            "genes": GENES,
            "window": WINDOW,
            "loose": SERVICE_LOOSE.as_tuple(),
            "ladder": [t.as_tuple() for t in self.ladder],
            "successor": [t.as_tuple() for t in SERVICE_SUCCESSOR],
            "variants": SERVICE_VARIANTS,
            "max_workers": self.max_workers,
        }

    def setup(self) -> None:
        window = cdc15_like(GENES, seed=1).data[:WINDOW]
        self.variants = [relabel(window, self.seed, f"service/{v}") for v in range(SERVICE_VARIANTS)]
        self.updates = [cell_edits(self.rng, v.data, 2, 2) for v in self.variants]
        self.session = Path(tempfile.mkdtemp(prefix="service-", dir=self.tmp_root))
        self.app = ServiceApp(self.session / "data", max_workers=self.max_workers)
        self.server = serve(self.app, port=0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.client = ServiceClient(f"http://127.0.0.1:{self.server.server_address[1]}")
        self.fingerprints = [self.client.register_dataset(v).fingerprint for v in self.variants]

    def _wait(self, kind: str, job_id: str):
        """Long-poll the event journal until the job is terminal.

        ``ServiceClient.wait`` sleep-polls every 0.2 s, which would
        quantize every job latency; the daemon answers a long-poll the
        moment a journal line lands or the job turns terminal.
        """
        after, events = 0, []
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            batch, after = self.client.events(job_id, after=after, wait=LONG_POLL_S)
            events.extend(batch)
            if not batch:
                record = self.client.job(job_id)
                if record.terminal:
                    self.jobs.append(Job(kind, record, events))
                    return record
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} not terminal after {JOB_TIMEOUT_S}s")

    def _cold(self, fingerprint: str):
        record = self._wait("cold", self.client.submit(fingerprint, SERVICE_LOOSE).id)
        if record.status != "done":
            raise RuntimeError(f"cold job {record.status}: {record.error}")
        if record.cache_hit:
            raise RuntimeError("cold job was answered by the cache")
        return self.client.result(record.id).result

    def _query(self, fingerprint: str, thresholds: Thresholds, *, settle: bool = False):
        served = self.client.query(fingerprint, thresholds)
        deadline = time.monotonic() + SETTLE_S
        while served is None and settle and time.monotonic() < deadline:
            self.settle_retries += 1
            time.sleep(0.002)
            served = self.client.query(fingerprint, thresholds)
        if served is None:
            raise RuntimeError(f"cache miss at {thresholds}")
        return served.result

    def _update(self, fingerprint: str, batch: list):
        doc = self.client.update_dataset(fingerprint, batch)
        for job in doc["jobs"]:
            record = self._wait("maintain", job["id"])
            if record.status != "done":
                raise RuntimeError(f"maintenance job {record.status}: {record.error}")
        self.successor = doc["fingerprint"]
        return self._query(self.successor, SERVICE_SUCCESSOR[0], settle=True)

    def run_pass(self, index: int) -> list[Op]:
        fp, tag = self.fingerprints[index], f"v{index}"
        self.successor = None
        ops = [timed(f"{tag}/cold", "cold", lambda: self._cold(fp))]
        for n, t in enumerate(self.ladder):
            ops.append(timed(
                f"{tag}/query{t.as_tuple()}", "query", lambda: self._query(fp, t, settle=n == 0),
            ))
        ops.append(timed(f"{tag}/update", "update", lambda: self._update(fp, self.updates[index])))
        for t in SERVICE_SUCCESSOR[1:]:
            ops.append(timed(f"{tag}/successor{t.as_tuple()}", "query", lambda: self._query(self.successor, t)))
        return ops

    def expected(self, index: int) -> dict[str, str]:
        """In-process mines, filtered with ``Cube.satisfies``."""
        if index not in self._expected:
            tag, variant = f"v{index}", self.variants[index]
            base = mine(variant, SERVICE_LOOSE).cubes
            edited = Dataset3D(apply_batch(variant.data, self.updates[index]))
            successor = mine(edited, SERVICE_LOOSE).cubes
            out = {f"{tag}/cold": digest(base), f"{tag}/update": digest(successor)}
            for t in self.ladder:
                out[f"{tag}/query{t.as_tuple()}"] = digest(c for c in base if c.satisfies(t))
            for t in SERVICE_SUCCESSOR[1:]:
                out[f"{tag}/successor{t.as_tuple()}"] = digest(c for c in successor if c.satisfies(t))
            self._expected[index] = out
        return self._expected[index]

    def close(self) -> int:
        """Stop the daemon and remove the session; returns leaked files."""
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10)
        if self.app is not None:
            self.app.close()
        leaks = 0
        if self.session is not None:
            leaks = sum(1 for path in self.session.rglob("*") if ".tmp" in path.name)
            shutil.rmtree(self.session)
            leaks += int(self.session.exists())
        return leaks


WORKLOADS = ("paper-cubeminer", "paper-rsm", "service-mixed", "stream-maintain")


def make(name: str, seed: int, tmp_root: Path, max_workers: int):
    if name == "paper-cubeminer":
        return PaperSweep(seed, "cubeminer")
    if name == "paper-rsm":
        return PaperSweep(seed, "rsm")
    if name == "service-mixed":
        return ServiceMixed(seed, tmp_root, max_workers)
    if name == "stream-maintain":
        return StreamMaintain(seed)
    raise ValueError(f"unknown workload {name!r}")
