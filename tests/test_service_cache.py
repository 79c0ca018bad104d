"""Property and unit tests for the threshold-lattice result cache.

The load-bearing claim (Definition 3.3: every FCC constraint is
anti-monotone, and closedness depends only on the dataset): filtering
the result mined at loose thresholds down to element-wise tighter
thresholds is *bit-identical* to mining fresh at the tighter
thresholds.  The hypothesis property drives that across random
datasets and random loose/tight threshold pairs.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mine
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.result import MiningResult, MiningStats
from repro.io import dataset_fingerprint
from repro.obs.metrics import ChaosCounters
from repro.service import Request, ServiceApp, ThresholdLatticeCache


def cube_set(result) -> set:
    return {(c.heights, c.rows, c.columns) for c in result}


# ----------------------------------------------------------------------
# Thresholds.dominates / Cube.satisfies
# ----------------------------------------------------------------------
class TestDominates:
    def test_equal_thresholds_dominate(self):
        t = Thresholds(2, 3, 4, min_volume=5)
        assert t.dominates(t)

    def test_looser_dominates_tighter(self):
        loose = Thresholds(1, 2, 2)
        tight = Thresholds(2, 3, 3, min_volume=10)
        assert loose.dominates(tight)
        assert not tight.dominates(loose)

    def test_incomparable_pair(self):
        a = Thresholds(1, 5, 1)
        b = Thresholds(5, 1, 1)
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_min_volume_participates(self):
        assert not Thresholds(1, 1, 1, min_volume=9).dominates(
            Thresholds(1, 1, 1, min_volume=8)
        )
        assert Thresholds(1, 1, 1, min_volume=8).dominates(
            Thresholds(1, 1, 1, min_volume=9)
        )


class TestSatisfies:
    def test_satisfies_matches_support_arithmetic(self, paper_ds):
        result = mine(paper_ds, Thresholds(1, 1, 1))
        tight = Thresholds(2, 2, 3, min_volume=12)
        for cube in result:
            expected = (
                cube.h_support >= 2
                and cube.r_support >= 2
                and cube.c_support >= 3
                and cube.volume >= 12
            )
            assert cube.satisfies(tight) == expected


# ----------------------------------------------------------------------
# MiningResult JSON round trip
# ----------------------------------------------------------------------
class TestResultJson:
    def test_round_trip(self, paper_ds, paper_thresholds):
        result = mine(paper_ds, paper_thresholds)
        clone = MiningResult.from_json(result.to_json())
        assert cube_set(clone) == cube_set(result)
        assert clone.algorithm == result.algorithm
        assert clone.thresholds == result.thresholds
        assert clone.dataset_shape == result.dataset_shape
        assert clone.stats.to_dict() == result.stats.to_dict()

    def test_schema_is_versioned(self, paper_ds, paper_thresholds):
        result = mine(paper_ds, paper_thresholds)
        payload = result.to_payload()
        assert payload["schema"] == MiningResult.SCHEMA_VERSION
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            MiningResult.from_payload(payload)


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
class TestLatticeCache:
    def test_exact_hit_serves_unfiltered(self, tmp_path, paper_ds):
        cache = ThresholdLatticeCache(tmp_path)
        thresholds = Thresholds(2, 2, 2)
        result = mine(paper_ds, thresholds)
        fp = dataset_fingerprint(paper_ds)
        cache.put(fp, "cubeminer", result)
        answer = cache.lookup(fp, "cubeminer", thresholds)
        assert answer is not None and answer.exact
        assert answer.cubes_filtered == 0
        assert cube_set(answer.result) == cube_set(result)

    def test_dominated_query_filters(self, tmp_path, paper_ds):
        cache = ThresholdLatticeCache(tmp_path)
        loose = Thresholds(1, 1, 1)
        cache.put(fp := dataset_fingerprint(paper_ds), "cubeminer", mine(paper_ds, loose))
        tight = Thresholds(2, 2, 2)
        answer = cache.lookup(fp, "cubeminer", tight)
        assert answer is not None and not answer.exact
        assert answer.filtered_from == loose
        assert cube_set(answer.result) == cube_set(mine(paper_ds, tight))
        provenance = answer.result.stats.extra["cache"]
        assert provenance["hit"] and provenance["filtered_from"] == loose.to_dict()

    def test_tighter_query_than_store_misses(self, tmp_path, paper_ds):
        cache = ThresholdLatticeCache(tmp_path)
        fp = dataset_fingerprint(paper_ds)
        cache.put(fp, "cubeminer", mine(paper_ds, Thresholds(2, 2, 2)))
        assert cache.lookup(fp, "cubeminer", Thresholds(1, 1, 1)) is None
        assert cache.stats()["misses"] == 1

    def test_algorithms_are_separate_lattices(self, tmp_path, paper_ds):
        cache = ThresholdLatticeCache(tmp_path)
        fp = dataset_fingerprint(paper_ds)
        cache.put(fp, "cubeminer", mine(paper_ds, Thresholds(1, 1, 1)))
        assert cache.lookup(fp, "rsm", Thresholds(2, 2, 2)) is None

    def test_persists_across_reopen(self, tmp_path, paper_ds):
        fp = dataset_fingerprint(paper_ds)
        ThresholdLatticeCache(tmp_path).put(
            fp, "cubeminer", mine(paper_ds, Thresholds(1, 1, 1))
        )
        reopened = ThresholdLatticeCache(tmp_path)
        assert len(reopened) == 1
        answer = reopened.lookup(fp, "cubeminer", Thresholds(2, 2, 2))
        assert answer is not None
        assert cube_set(answer.result) == cube_set(mine(paper_ds, Thresholds(2, 2, 2)))

    def test_tightest_dominating_entry_wins(self, tmp_path, paper_ds):
        cache = ThresholdLatticeCache(tmp_path)
        fp = dataset_fingerprint(paper_ds)
        cache.put(fp, "cubeminer", mine(paper_ds, Thresholds(1, 1, 1)))
        cache.put(fp, "cubeminer", mine(paper_ds, Thresholds(2, 2, 1)))
        answer = cache.lookup(fp, "cubeminer", Thresholds(2, 2, 2))
        assert answer is not None
        assert answer.filtered_from == Thresholds(2, 2, 1)

    def test_corrupt_entry_degrades_to_miss(self, tmp_path, paper_ds):
        cache = ThresholdLatticeCache(tmp_path)
        fp = dataset_fingerprint(paper_ds)
        cache.put(fp, "cubeminer", mine(paper_ds, Thresholds(1, 1, 1)))
        for path in (tmp_path / fp / "cubeminer").glob("*.json"):
            path.write_text("{not json")
        assert cache.lookup(fp, "cubeminer", Thresholds(2, 2, 2)) is None
        # The broken entry was evicted: a fresh put works again.
        cache.put(fp, "cubeminer", mine(paper_ds, Thresholds(1, 1, 1)))
        assert cache.lookup(fp, "cubeminer", Thresholds(2, 2, 2)) is not None


# ----------------------------------------------------------------------
# The monotonicity property itself
# ----------------------------------------------------------------------
@st.composite
def dataset_and_threshold_pair(draw):
    l = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    bits = draw(
        st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m)
    )
    data = np.array(bits, dtype=bool).reshape((l, n, m))
    loose = Thresholds(
        draw(st.integers(1, 2)),
        draw(st.integers(1, 2)),
        draw(st.integers(1, 2)),
        min_volume=draw(st.integers(1, 4)),
    )
    tight = Thresholds(
        loose.min_h + draw(st.integers(0, 2)),
        loose.min_r + draw(st.integers(0, 2)),
        loose.min_c + draw(st.integers(0, 2)),
        min_volume=loose.min_volume + draw(st.integers(0, 12)),
    )
    return Dataset3D(data), loose, tight


@settings(max_examples=40, deadline=None)
@given(dataset_and_threshold_pair())
def test_filtered_cache_equals_fresh_mine(case):
    """Filtering the loose result IS the tight result, bit for bit."""
    dataset, loose, tight = case
    assert loose.dominates(tight)
    loose_result = mine(dataset, loose)
    filtered = {
        (c.heights, c.rows, c.columns)
        for c in loose_result
        if c.satisfies(tight)
    }
    fresh = mine(dataset, tight)
    assert filtered == cube_set(fresh)


# ----------------------------------------------------------------------
# The query path: verified reads, the decoded-entry memo, int filtering
# ----------------------------------------------------------------------
def reference_payload(
    stored: MiningResult, stored_thresholds: Thresholds, thresholds: Thresholds
) -> dict:
    """A cache answer built from ``Cube`` objects and a ``MiningResult``,
    the way lookups built it before they filtered int rows."""
    source = MiningResult.from_payload(stored.to_payload())
    exact = stored_thresholds == thresholds
    kept = (
        source.cubes
        if exact
        else [cube for cube in source.cubes if cube.satisfies(thresholds)]
    )
    extra = {
        "cache": {
            "hit": True,
            "exact": exact,
            "filtered_from": stored_thresholds.to_dict(),
            "cubes_scanned": len(source.cubes),
            "cubes_kept": len(kept),
            "cubes_filtered": len(source.cubes) - len(kept),
        }
    }
    return MiningResult(
        cubes=kept,
        algorithm=source.algorithm,
        thresholds=thresholds,
        dataset_shape=source.dataset_shape,
        elapsed_seconds=0.0,
        stats=MiningStats(metrics=source.stats.metrics, extra=extra),
    ).to_payload()


def rewrite_byte(path, offset: int) -> None:
    """Flip one byte of ``path`` in place, keeping its size."""
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x01]))


@settings(max_examples=40, deadline=None)
@given(dataset_and_threshold_pair(), st.booleans())
def test_lookup_payload_equals_cube_path(case, exact):
    """The int-row answer is the ``MiningResult`` answer, field by field
    and in cube order, whether the memo served it or not."""
    dataset, loose, tight = case
    query = loose if exact else tight
    stored = mine(dataset, loose)
    expected = reference_payload(stored, loose, query)
    with tempfile.TemporaryDirectory() as root:
        cache = ThresholdLatticeCache(root)
        cache.put("fp", "cubeminer", stored)
        for _ in range(2):
            answer = cache.lookup("fp", "cubeminer", query)
            assert answer is not None
            assert list(answer.payload) == list(expected)
            for key, value in expected.items():
                assert answer.payload[key] == value, key
            assert json.dumps(answer.payload) == json.dumps(expected)
            assert answer.cubes_filtered == expected["stats"]["extra"]["cache"][
                "cubes_filtered"
            ]
        assert cache.stats()["decoded"] == 1
        assert cache.stats()["decoded_reused"] == 1


class TestDecodedMemo:
    def test_second_lookup_reuses_the_decoded_entry(self, tmp_path, paper_ds):
        cache = ThresholdLatticeCache(tmp_path)
        cache.put("fp", "cubeminer", mine(paper_ds, Thresholds(1, 1, 1)))
        first = cache.lookup("fp", "cubeminer", Thresholds(2, 2, 2))
        second = cache.lookup("fp", "cubeminer", Thresholds(2, 2, 3))
        assert first is not None and second is not None
        assert cache.stats()["decoded"] == 1
        assert cache.stats()["decoded_reused"] == 1
        assert cube_set(second.result) == cube_set(mine(paper_ds, Thresholds(2, 2, 3)))

    @pytest.mark.parametrize("where", ["digest", "body"])
    def test_in_place_flip_misses_and_evicts(self, tmp_path, paper_ds, where):
        counters = ChaosCounters()
        cache = ThresholdLatticeCache(tmp_path, chaos=counters)
        cache.put("fp", "cubeminer", mine(paper_ds, Thresholds(1, 1, 1)))
        query = Thresholds(2, 2, 2)
        assert cache.lookup("fp", "cubeminer", query) is not None
        assert cache.lookup("fp", "cubeminer", query) is not None
        assert cache.stats()["decoded_reused"] == 1
        path = next(tmp_path.glob("fp/cubeminer/*.json"))
        size = path.stat().st_size
        # The digest's hex digits start at byte 26; the body's cubes end
        # just before the closing brackets.
        rewrite_byte(path, 40 if where == "digest" else size - 10)
        assert path.stat().st_size == size
        assert cache.lookup("fp", "cubeminer", query) is None
        assert counters.corruption_detected == 1
        assert counters.corruption_evicted == 1
        assert not path.exists()
        assert cache.stats()["decoded_reused"] == 1
        assert cache.lookup("fp", "cubeminer", query) is None
        assert cache.stats()["decoded_reused"] == 1

    def test_legacy_plain_payload_is_served_and_never_memoised(
        self, tmp_path, paper_ds
    ):
        loose = Thresholds(1, 1, 1)
        stored = mine(paper_ds, loose)
        entry_dir = tmp_path / "fp" / "cubeminer"
        entry_dir.mkdir(parents=True)
        (entry_dir / "1-1-1-1.json").write_text(json.dumps(stored.to_payload()))
        cache = ThresholdLatticeCache(tmp_path)
        for query in (Thresholds(2, 2, 2), loose):
            answer = cache.lookup("fp", "cubeminer", query)
            assert answer is not None
            assert answer.payload == reference_payload(stored, loose, query)
        assert cache.stats()["decoded"] == 2
        assert cache.stats()["decoded_reused"] == 0
        assert cache._memo is None

    def test_memo_holds_only_the_last_entry(self, tmp_path, paper_ds):
        cache = ThresholdLatticeCache(tmp_path)
        ladder = [Thresholds(1, 1, 1), Thresholds(1, 1, 2), Thresholds(1, 2, 1),
                  Thresholds(2, 1, 1)]
        for thresholds in ladder:
            cache.put("fp", "cubeminer", mine(paper_ds, thresholds))
        for thresholds in ladder + ladder[::-1]:
            answer = cache.lookup("fp", "cubeminer", thresholds)
            assert answer is not None and answer.exact
            assert cache._memo[1].header["thresholds"] == thresholds
        # Only the turn of the walk (the same entry twice) reused it.
        stats = cache.stats()
        assert stats["decoded_reused"] == 1
        assert stats["decoded"] == len(ladder) * 2 - 1
        assert stats["decoded"] + stats["decoded_reused"] == stats["hits"]

    def test_threads_alternating_entries_get_their_own_answers(
        self, tmp_path, paper_ds
    ):
        """Threads racing over the one memo slot each get the answer of
        the entry they asked for, and no counter update is lost."""
        cache = ThresholdLatticeCache(tmp_path)
        entries = [Thresholds(1, 1, 1), Thresholds(1, 2, 1)]
        for thresholds in entries:
            cache.put("fp", "cubeminer", mine(paper_ds, thresholds))
        expected = {t: cache.lookup("fp", "cubeminer", t).payload for t in entries}
        errors: list = []

        def worker(offset: int) -> None:
            for n in range(60):
                thresholds = entries[(n + offset) % 2]
                answer = cache.lookup("fp", "cubeminer", thresholds)
                if answer is None or answer.payload != expected[thresholds]:
                    errors.append((thresholds, answer))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] == 2 + 6 * 60
        assert stats["decoded"] + stats["decoded_reused"] == stats["hits"]

    @pytest.mark.parametrize(
        "masks", [[1, 2], [1, 2, 3, 4], [-1, 1, 1], [1, "x", 1]],
        ids=["short", "long", "negative", "non-numeric"],
    )
    def test_bad_masks_are_rejected(self, tmp_path, paper_ds, masks):
        result = mine(paper_ds, Thresholds(2, 2, 2))
        payload = result.to_payload()
        payload["cubes"].append(masks)
        with pytest.raises(ValueError):
            MiningResult.from_payload(payload)
        # The cache decodes with the same rules: the entry is corrupt.
        counters = ChaosCounters()
        cache = ThresholdLatticeCache(tmp_path, chaos=counters)
        path = tmp_path / "fp" / "cubeminer" / "2-2-2-1.json"
        path.parent.mkdir(parents=True)
        cache.io.write_document("cache", path, payload)
        cache = ThresholdLatticeCache(tmp_path, chaos=counters)
        assert cache.lookup("fp", "cubeminer", Thresholds(2, 2, 2)) is None
        assert counters.corruption_detected == 1
        assert not path.exists()


def test_admits_is_the_satisfies_rule(paper_ds):
    result = mine(paper_ds, Thresholds(1, 1, 1))
    for thresholds in (Thresholds(2, 2, 3, min_volume=12), Thresholds(1, 3, 1)):
        for cube in result:
            assert cube.satisfies(thresholds) == thresholds.admits(*cube.shape)
            assert thresholds.satisfied_by(cube) == cube.satisfies(thresholds)


def test_cache_answered_submit_writes_the_answer_payload(tmp_path, paper_ds):
    app = ServiceApp(tmp_path / "data", max_workers=1)
    try:
        fp = app.registry.register(paper_ds).fingerprint
        app.cache.put(fp, "cubeminer", mine(paper_ds, Thresholds(1, 1, 1)))
        tight = Thresholds(2, 2, 2)
        response = app.handle(
            Request(
                method="POST",
                path="/v1/jobs",
                body=json.dumps({"dataset": fp, "thresholds": tight.to_dict()}).encode(),
            )
        )
        assert response.status == 200 and response.payload["cache_hit"] is True
        record = app.jobs.get(response.payload["id"])
        assert record.n_cubes == len(mine(paper_ds, tight))
        stored = app.jobs.result_payload(record.id)
        stored["stats"]["extra"].pop("chaos", None)  # stamped on read
        assert stored == app.cache.lookup(fp, "cubeminer", tight).payload
    finally:
        app.close()
