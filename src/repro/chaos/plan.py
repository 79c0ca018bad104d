"""Deterministic cross-layer fault schedules.

:class:`ChaosPlan` generalizes :class:`repro.parallel.faults.FaultPlan`
beyond pool workers: one seedable schedule drives filesystem faults
(ENOSPC, EIO, torn/truncated writes, stale temp files, bit-flip
corruption), HTTP faults (connection reset, slow handler) and worker
faults (crash, hang) across every store the service touches.  The plan
is consulted by :class:`~repro.chaos.io.ChaosShim` at each injectable
*site* (``registry``, ``cache``, ``jobs``, ``delta``, ``checkpoint``,
``http``, ``worker``) and *operation* (``write``,
``finalize``, ``append``, ``read``, ``handle``, ``start``), so a fault
schedule names exactly where in the stack it strikes.

Two authoring modes:

* **Scripted** — an explicit list of :class:`ChaosRule` entries, each
  firing on selected calls of a (site, op) pair.  This is what the
  regression battery uses: the schedule is part of the test.
* **Seeded random** — :meth:`ChaosPlan.random` injects each operation
  independently with probability ``rate`` from a seeded RNG, for the
  availability sweeps in ``benchmarks/bench_robustness.py``.  Given a
  fixed call sequence the schedule is reproducible from the seed alone.

Every fault the plan hands out is recorded; :meth:`ChaosPlan.trace`
returns the firing history, which the job quarantine embeds so a
poisoned job carries the fault trace needed to replay it.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

__all__ = ["CHAOS_FAULT_KINDS", "ChaosRule", "ChaosPlan"]

#: Every injectable fault kind, by the layer it models:
#: filesystem — ``enospc`` (disk full mid-write), ``eio`` (hard I/O
#: error), ``torn-write`` (payload truncated to a prefix before commit),
#: ``bit-flip`` (one corrupted bit in the committed payload),
#: ``stale-tmp`` (orphaned temporary left behind, as after a hard
#: kill); transport — ``reset`` (connection reset), ``slow`` (stalled
#: handler/IO); worker — ``crash`` (hard exit), ``hang`` (stuck worker,
#: no heartbeat).
CHAOS_FAULT_KINDS = (
    "enospc",
    "eio",
    "torn-write",
    "bit-flip",
    "stale-tmp",
    "reset",
    "slow",
    "crash",
    "hang",
)


@dataclass(frozen=True)
class ChaosRule:
    """One scripted fault: *kind* strikes selected (site, op) calls.

    ``site``/``op`` match exactly or with the ``"*"`` wildcard;
    ``path`` (when set) must be a substring of the operation's target
    path.  ``calls`` selects which occurrences fire, counted per
    (site, op) pair from 0 — ``None`` fires on every call.  ``seconds``
    parametrizes ``slow`` and ``hang``.
    """

    kind: str
    site: str = "*"
    op: str = "*"
    path: str = ""
    calls: "frozenset[int] | None" = field(default_factory=lambda: frozenset({0}))
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {CHAOS_FAULT_KINDS}"
            )

    def matches(self, site: str, op: str, path: str, call: int) -> bool:
        if self.site != "*" and self.site != site:
            return False
        if self.op != "*" and self.op != op:
            return False
        if self.path and self.path not in path:
            return False
        return self.calls is None or call in self.calls


class ChaosPlan:
    """A seedable, thread-safe schedule of injected faults.

    Scripted rules are checked first (first match wins); when none
    fires and the plan has a ``rate``, the seeded RNG injects a random
    kind with that probability.  All bookkeeping (per-(site, op) call
    counters, the firing trace, RNG draws) is behind one lock, so a
    plan shared across the daemon's request and watcher threads stays
    consistent — though under true concurrency the interleaving of
    *which* thread draws first is scheduling-dependent.
    """

    def __init__(
        self,
        rules: "tuple[ChaosRule, ...] | list[ChaosRule]" = (),
        *,
        seed: int = 0,
        rate: float = 0.0,
        kinds: "tuple[str, ...]" = CHAOS_FAULT_KINDS,
        sites: "tuple[str, ...] | None" = None,
    ) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self.rate = float(rate)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        for kind in kinds:
            if kind not in CHAOS_FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.kinds = tuple(kinds)
        self.sites = tuple(sites) if sites is not None else None
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}
        self._fired: list[dict] = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls,
        kind: str,
        *,
        site: str = "*",
        op: str = "*",
        path: str = "",
        call: int = 0,
        seconds: float = 0.05,
        seed: int = 0,
    ) -> "ChaosPlan":
        """One fault on one call — the unit-test workhorse."""
        rule = ChaosRule(
            kind,
            site=site,
            op=op,
            path=path,
            calls=frozenset({call}),
            seconds=seconds,
        )
        return cls((rule,), seed=seed)

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        rate: float = 0.1,
        kinds: "tuple[str, ...]" = (
            "enospc",
            "eio",
            "torn-write",
            "bit-flip",
            "stale-tmp",
        ),
        sites: "tuple[str, ...] | None" = None,
    ) -> "ChaosPlan":
        """Probabilistic injection, reproducible from the seed."""
        return cls((), seed=seed, rate=rate, kinds=kinds, sites=sites)

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------
    def draw(self, site: str, op: str, path: str = "") -> "ChaosRule | None":
        """The fault striking this call of (site, op), or ``None``."""
        with self._lock:
            call = self._counts.get((site, op), 0)
            self._counts[(site, op)] = call + 1
            fault: "ChaosRule | None" = None
            for rule in self.rules:
                if rule.matches(site, op, path, call):
                    fault = rule
                    break
            if (
                fault is None
                and self.rate > 0.0
                and (self.sites is None or site in self.sites)
                and self._rng.random() < self.rate
            ):
                fault = ChaosRule(
                    self._rng.choice(self.kinds), site=site, op=op, calls=None
                )
            if fault is not None:
                self._fired.append(
                    {
                        "site": site,
                        "op": op,
                        "path": path,
                        "kind": fault.kind,
                        "call": call,
                    }
                )
            return fault

    def randbelow(self, n: int) -> int:
        """A seeded draw in ``[0, n)`` (bit positions for bit-flips)."""
        with self._lock:
            return self._rng.randrange(max(1, int(n)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def trace(self) -> list[dict]:
        """Every fault fired so far, in firing order."""
        with self._lock:
            return [dict(entry) for entry in self._fired]

    def fired(self) -> int:
        with self._lock:
            return len(self._fired)

    def __repr__(self) -> str:
        return (
            f"ChaosPlan(rules={len(self.rules)}, seed={self.seed}, "
            f"rate={self.rate}, fired={self.fired()})"
        )
