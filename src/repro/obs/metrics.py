"""Always-on mining counters.

:class:`MiningMetrics` is the single counter set every miner in the
library writes into while it runs: CubeMiner's search-tree counters
(nodes, sons, the per-lemma prune rules of Lemmas 2-5), RSM's slice and
post-prune counters (Lemma 1), and coarse kernel-operation tallies.
The counters are plain integer attributes on a dataclass — incrementing
them costs one attribute store, so they stay enabled on every run; the
paper's prune-rule effectiveness becomes a first-class result, not a
debug-only re-run.  For full per-node trees on small inputs,
``trace_tree`` walks the paper's own tree (its per-son checks), whose
leaves are the live run's cubes.

Parallel drivers merge the per-worker counter sets back into the
parent's with :meth:`MiningMetrics.merge`, so a distributed run reports
the same totals a sequential run would.  :class:`ChaosCounters` (the
service's robustness tallies) shares the same dict/merge base.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["MiningMetrics", "ChaosCounters", "PRUNE_FIELDS"]

#: Counter fields that count prune-rule hits in CubeMiner's tree, in the
#: order (thresholds, Lemma 2, Lemma 3, Lemma 4, Lemma 5).
PRUNE_FIELDS = (
    "pruned_min_h",
    "pruned_min_r",
    "pruned_min_c",
    "pruned_min_volume",
    "pruned_left_track",
    "pruned_middle_track",
    "pruned_height_unclosed",
    "pruned_row_unclosed",
)


class _Counters:
    """Dict views, rebuild and merge for a dataclass of integer counters.

    Counters add on :meth:`merge`, except the fields named in
    ``_MAX_FIELDS`` (high-water marks), which take the max.
    """

    _MAX_FIELDS: frozenset[str] = frozenset()

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain ``{field: value}`` dict."""
        return dict(vars(self))

    #: Stable-schema alias used by :class:`~repro.core.result.MiningStats`.
    to_dict = as_dict

    @classmethod
    def from_dict(cls, payload: dict):
        """Rebuild from :meth:`as_dict` output; unknown keys are ignored
        and missing keys default to zero (forward/backward compatible).
        """
        known = {f.name for f in fields(cls)}  # type: ignore[arg-type]
        return cls(**{k: int(v) for k, v in payload.items() if k in known})

    def merge(self, other):
        """Fold another counter set of the same kind into this one (in place)."""
        for f in fields(self):  # type: ignore[arg-type]
            theirs = getattr(other, f.name)
            if f.name in self._MAX_FIELDS:
                setattr(self, f.name, max(getattr(self, f.name), theirs))
            else:
                setattr(self, f.name, getattr(self, f.name) + theirs)
        return self


@dataclass
class MiningMetrics(_Counters):
    """Counter set for one mining run (or one aggregated parallel run).

    All fields are cumulative counts except ``max_stack_depth`` (a
    high-water mark) and ``n_cutters`` (the size of the cutter list the
    run used).  A single instance may be passed to ``mine(...,
    metrics=)`` to observe a run in flight or to accumulate several
    runs into one tally.
    """

    # -- CubeMiner search tree -----------------------------------------
    n_cutters: int = 0
    nodes_visited: int = 0
    leaves_emitted: int = 0
    sons_left: int = 0
    sons_middle: int = 0
    sons_right: int = 0
    pruned_min_h: int = 0
    pruned_min_r: int = 0
    pruned_min_c: int = 0
    pruned_min_volume: int = 0
    pruned_left_track: int = 0        # Lemma 2
    pruned_middle_track: int = 0      # Lemma 3
    pruned_height_unclosed: int = 0   # Lemma 4 (Hcheck)
    pruned_row_unclosed: int = 0      # Lemma 5 (Rcheck)
    # Left sons with no required height (a restricted run, such as
    # stream.maintain()'s dirty pass); not one of Figure 1's rules, so
    # it stays out of PRUNE_FIELDS.
    pruned_required_heights: int = 0
    # Middle and right sons whose track sets leave no frequent cube
    # (CubeMiner's track-core rule); not one of Figure 1's rules either.
    pruned_track_core: int = 0
    max_stack_depth: int = 0
    cutters_built: int = 0
    # -- RSM phases ----------------------------------------------------
    rs_slices_mined: int = 0
    # Subsets of at least the mined size inside the subtrees the RSM
    # walk cut (their slice holds no minR x minC rectangle); not one of
    # Figure 1's rules, so it stays out of PRUNE_FIELDS.
    rs_slices_skipped: int = 0
    fcp_patterns: int = 0
    postprune_checked: int = 0
    postprune_discards: int = 0       # Lemma 1
    # -- substrate / parallel ------------------------------------------
    kernel_ops: int = 0
    workers_merged: int = 0
    # Driver-side transport counters: incremented once per run by the
    # parallel drivers (never per worker attach, so clean and
    # fault-recovered runs of one config report identical totals).
    shm_datasets_published: int = 0
    # stream.maintain()'s final merge: passes run and cubes it dropped.
    shard_merges: int = 0
    shard_merge_dropped: int = 0
    # -- always 0: no closure query is memoized.  Kept so stats JSON and
    # the readers that look these names up keep their shape.
    closure_cache_hits: int = 0
    closure_cache_misses: int = 0
    # -- streaming / out-of-core (repro.stream) ------------------------
    deltas_applied: int = 0
    cubes_patched: int = 0            # old cubes the patch pass emitted
    cubes_reclosed: int = 0           # close() calls in the patch pass
    subsets_remined: int = 0          # cubes maintain()'s dirty pass emitted
    stream_chunks_read: int = 0

    #: Fields merged with ``max`` instead of ``+`` (high-water marks).
    _MAX_FIELDS = frozenset({"max_stack_depth"})

    def prune_counts(self) -> dict[str, int]:
        """The CubeMiner prune-rule counters (Figure 1's categories)."""
        return {name: getattr(self, name) for name in PRUNE_FIELDS}

    def total_pruned(self) -> int:
        """Sum of all CubeMiner prune-rule hits."""
        return sum(getattr(self, name) for name in PRUNE_FIELDS)

    def copy(self) -> "MiningMetrics":
        """An independent snapshot of the current counter values."""
        return MiningMetrics(**self.as_dict())


@dataclass
class ChaosCounters(_Counters):
    """Service-hardening counters: what the runtime survived.

    One shared instance is threaded through the registry, cache, mmap
    store and job manager of a :class:`~repro.service.app.ServiceApp`,
    surfaces in ``GET /health`` under ``"chaos"``, and is stamped into
    every served result's ``stats.extra["chaos"]`` — so load shedding,
    retries, quarantines and corruption recoveries are first-class
    observability, not log lines.
    """

    #: Submissions rejected by admission control (HTTP 429).
    jobs_rejected: int = 0
    #: Failed attempts requeued with backoff (retry budget spent).
    jobs_retried: int = 0
    #: Poison jobs moved to ``quarantined/`` after exhausting retries.
    jobs_quarantined: int = 0
    #: Stuck workers killed by the heartbeat watchdog.
    watchdog_kills: int = 0
    #: Verify-on-read failures (checksum/fingerprint mismatches).
    corruption_detected: int = 0
    #: Corrupt store entries evicted (degraded to cache misses).
    corruption_evicted: int = 0
    #: Orphaned temp files swept on store open.
    stale_temps_swept: int = 0
