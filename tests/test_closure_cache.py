"""Correctness of the closure cache.

The cache must be semantically invisible: every packed-layout closure
check and memoized support query agrees with the fresh computation on
arbitrary datasets and query sequences (hypothesis drives both, across
several 4-bit chunks and segment widths on both sides of a 64-bit
word), a bounded cache under heavy eviction still yields bit-identical
closures, and the miner's cached/uncached paths produce the same cube
list, node counts and leaves on a seeded grid — sequentially, in
parallel and in ``maintain()``'s dirty pass.  The cache counters must
surface through ``MiningResult.stats``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import (
    ClosureCache,
    close,
    column_support,
    height_support,
    is_closed_cube,
    node_creps,
    resolve_closure_cache,
    row_support,
)
from repro.core.constraints import Thresholds
from repro.core.cube import Cube
from repro.core.dataset import Dataset3D
from repro.core.kernels import available_kernels
from repro.core.reference import reference_mine
from repro.cubeminer.algorithm import cubeminer_mine, cubeminer_tasks, search_root
from repro.cubeminer.checks import height_set_closed, row_set_closed
from repro.datasets import paper_example, random_tensor
from repro.parallel import parallel_cubeminer_mine
from repro.stream import ClearCell, SetCell, maintain

KERNELS = list(available_kernels())


@st.composite
def datasets_and_queries(draw):
    """A small random dataset plus a batch of random region queries.

    Up to 11 heights and rows span three 4-bit chunks of the packed
    layout's OR-tables; ``m`` covers one-bit segments, segments wider
    than a 64-bit word, ``m < l``, and two or three column blocks.
    """
    l = draw(st.integers(min_value=1, max_value=11))
    n = draw(st.integers(min_value=1, max_value=11))
    m = draw(st.sampled_from([1, 3, 8, 64, 65, 70, 257, 600]))
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 0.95]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    queries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << l) - 1),
                st.integers(min_value=0, max_value=(1 << n) - 1),
                st.integers(min_value=0, max_value=(1 << m) - 1),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return (l, n, m), density, seed, queries


@settings(max_examples=60, deadline=None)
@given(datasets_and_queries())
def test_cached_queries_match_fresh_computation(case):
    """Memoized closure work == fresh work over arbitrary query streams.

    The same query can repeat (exercising support hits), regions shrink
    and grow arbitrarily, and a tiny bound (max_entries=2) forces
    constant eviction in a second cache that must still agree.
    """
    shape, density, seed, queries = case
    dataset = random_tensor(shape, density, seed=seed)
    caches = [ClosureCache(), ClosureCache(max_entries=2)]
    for heights, rows, columns in queries:
        expected_h = height_set_closed(dataset, heights, rows, columns)
        expected_r = row_set_closed(dataset, heights, rows, columns)
        expected_hs = height_support(dataset, rows, columns)
        expected_rs = row_support(dataset, heights, columns)
        expected_cs = column_support(dataset, heights, rows)
        for cache in caches:
            assert cache.height_set_closed(dataset, heights, rows, columns) == expected_h
            assert cache.row_set_closed(dataset, heights, rows, columns) == expected_r
            assert cache.height_support(dataset, rows, columns) == expected_hs
            assert cache.row_support(dataset, heights, columns) == expected_rs
            assert cache.column_support(dataset, heights, rows) == expected_cs
            assert len(cache) <= cache.max_entries
    small = caches[1]
    assert small.hits + small.misses > 0


@settings(max_examples=30, deadline=None)
@given(datasets_and_queries())
def test_cached_close_and_predicates_match(case):
    """``close`` and ``is_closed_cube`` agree with their uncached selves."""
    shape, density, seed, queries = case
    dataset = random_tensor(shape, density, seed=seed)
    cache = ClosureCache(max_entries=3)
    for heights, rows, columns in queries:
        cube = Cube(heights, rows, columns)
        assert is_closed_cube(dataset, cube, cache=cache) == is_closed_cube(
            dataset, cube
        )
        if not cube.is_empty():
            try:
                expected = close(dataset, cube)
            except ValueError:
                continue
            assert close(dataset, cube, cache=cache) == expected


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "shape,density,seed",
    [((4, 5, 12), 0.5, 3), ((5, 4, 20), 0.6, 7), ((4, 6, 70), 0.35, 11)],
)
def test_miner_cached_equals_uncached(kernel, shape, density, seed):
    """The memoized miner reproduces the uncached run bit-for-bit."""
    dataset = random_tensor(shape, density, seed=seed).with_kernel(kernel)
    thresholds = Thresholds(2, 2, 2)
    uncached = cubeminer_mine(dataset, thresholds, closure_cache=0)
    cached = cubeminer_mine(dataset, thresholds)
    assert cached.cubes == uncached.cubes
    assert (
        cached.stats["nodes_visited"] == uncached.stats["nodes_visited"]
    )
    assert (
        cached.stats["leaves_emitted"] == uncached.stats["leaves_emitted"]
    )


@pytest.mark.parametrize("max_entries", [1, 2, 5])
def test_bounded_cache_evicts_without_changing_output(max_entries):
    """Heavy eviction degrades to recomputation, never to wrong closures."""
    dataset = random_tensor((5, 6, 24), 0.5, seed=19)
    thresholds = Thresholds(2, 2, 2)
    mined = cubeminer_mine(dataset, thresholds, closure_cache=0)
    # One cell of each FCC is a complete seed that closes back to it.
    seeds = [
        Cube(cube.heights & -cube.heights, cube.rows & -cube.rows, cube.columns)
        for cube in mined.cubes
    ]

    def closures(cache):
        return [close(dataset, seed, cache=cache) for seed in seeds] + [
            is_closed_cube(dataset, cube, cache=cache) for cube in mined.cubes
        ]

    expected = closures(None)
    cache = ClosureCache(max_entries=max_entries)
    assert closures(cache) == expected
    assert len(cache) <= max_entries
    assert cache.evictions > 0
    bounded = cubeminer_mine(dataset, thresholds, closure_cache=cache)
    assert bounded.cubes == mined.cubes


def _late_blocks_tensor() -> Dataset3D:
    """Sparse ones with all-ones blocks only past the first 256 columns.

    The first column block then holds no column of the planted cubes,
    so their closure checks are decided in later blocks.
    """
    rng = np.random.default_rng(31)
    data = rng.random((10, 9, 600)) < 0.1
    data[np.ix_([0, 2, 4, 6], [1, 3, 5, 7], range(300, 340))] = True
    data[np.ix_([1, 2, 3], [0, 1, 2, 3, 4], range(520, 560))] = True
    data[np.ix_([5, 6, 7, 8, 9], [6, 7, 8], range(250, 290))] = True
    return Dataset3D(data)


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_tensor((9, 9, 16), 0.6, seed=23),
        lambda: random_tensor((10, 9, 70), 0.45, seed=29),
        _late_blocks_tensor,
    ],
    ids=["9x9x16", "10x9x70", "10x9x600-late-blocks"],
)
def test_packed_checks_match_sweeps_and_oracle_past_two_chunks(build):
    """Packed checks == kernel sweeps == oracle with l, n > 8.

    The last tensor spans three column blocks of the layout.  Also
    covers the two other ``_run`` drivers that carry creps: the
    parallel tasks shipped to two workers and ``maintain()``'s dirty
    pass.  Every counter but the cache's own matches the sweep run.
    """
    dataset = build()
    shape = dataset.shape
    thresholds = Thresholds(2, 2, 2)
    packed = cubeminer_mine(dataset, thresholds)
    swept = cubeminer_mine(dataset, thresholds, closure_cache=0)
    assert packed.cubes == swept.cubes
    assert packed.same_cubes(reference_mine(dataset, thresholds))
    packed_counters = packed.stats.metrics.as_dict()
    for name, value in swept.stats.metrics.as_dict().items():
        if not name.startswith("closure_cache_"):
            assert packed_counters[name] == value, name
    assert packed.stats["closure_cache_misses"] == 2

    parallel = parallel_cubeminer_mine(dataset, thresholds, n_workers=2)
    assert parallel.same_cubes(swept)

    deltas = [ClearCell(0, 0, 0), SetCell(shape[0] - 1, 1, 2)]
    new, maintained = maintain(dataset, packed, deltas)
    assert maintained.same_cubes(cubeminer_mine(new, thresholds, closure_cache=0))
    assert maintained.stats["subsets_remined"] > 0


def test_carried_creps_equal_fresh_creps():
    """The engine's incremental creps equal those built from each node.

    A breadth-first frontier holds left, middle and right sons several
    levels down, so every crep update ``_run`` makes is exercised.
    """
    dataset = random_tensor((10, 9, 70), 0.45, seed=29)
    thresholds = Thresholds(2, 2, 2)
    root, cutters = search_root(dataset, thresholds)
    tasks, _ = cubeminer_tasks(dataset, thresholds, root, cutters, min_tasks=64)
    assert len(tasks) >= 64
    indices = {index for _, index, _, _, _, _ in tasks}
    assert len(indices) > 1
    for (heights, rows, columns), _, _, _, crep_h, crep_r in tasks:
        assert (crep_h, crep_r) == node_creps(dataset, heights, rows, columns)


def test_counters_surface_through_result_stats():
    result = cubeminer_mine(paper_example(), Thresholds(2, 2, 2))
    stats = result.stats
    assert stats["closure_cache_hits"] + stats["closure_cache_misses"] > 0
    assert stats["closure_cache_evictions"] == 0
    serialized = stats.to_dict()["metrics"]
    assert serialized["closure_cache_hits"] == stats["closure_cache_hits"]
    disabled = cubeminer_mine(paper_example(), Thresholds(2, 2, 2), closure_cache=0)
    assert disabled.stats["closure_cache_hits"] == 0
    assert disabled.stats["closure_cache_misses"] == 0


def test_shared_cache_accumulates_and_result_deltas_stay_per_run():
    """A run folds only its own delta into metrics, not the cache total."""
    dataset = paper_example()
    thresholds = Thresholds(2, 2, 2)
    cache = ClosureCache()
    first = cubeminer_mine(dataset, thresholds, closure_cache=cache)
    second = cubeminer_mine(dataset, thresholds, closure_cache=cache)
    assert second.cubes == first.cubes
    total = (
        first.stats["closure_cache_hits"] + second.stats["closure_cache_hits"]
    )
    assert cache.hits == total


def test_cache_rebinds_on_a_different_dataset():
    a = random_tensor((3, 4, 8), 0.5, seed=1)
    b = random_tensor((4, 3, 10), 0.5, seed=2)
    cache = ClosureCache()
    for dataset in (a, b, a):
        for heights in range(1 << dataset.n_heights):
            rows = (1 << dataset.n_rows) - 1
            columns = (1 << dataset.n_columns) - 1
            assert cache.height_set_closed(
                dataset, heights, rows, columns
            ) == height_set_closed(dataset, heights, rows, columns)


def test_resolve_closure_cache_semantics():
    assert resolve_closure_cache(0) is None
    assert resolve_closure_cache(-5) is None
    default = resolve_closure_cache(None)
    assert isinstance(default, ClosureCache)
    bounded = resolve_closure_cache(7)
    assert bounded.max_entries == 7
    existing = ClosureCache(max_entries=3)
    assert resolve_closure_cache(existing) is existing
    with pytest.raises(ValueError):
        ClosureCache(max_entries=0)


def test_options_thread_the_cache_knob():
    from repro.api import mine
    from repro.options import CubeMinerOptions

    dataset = paper_example()
    thresholds = Thresholds(2, 2, 2)
    off = mine(
        dataset, thresholds, algorithm="cubeminer",
        options=CubeMinerOptions(closure_cache_size=0),
    )
    on = mine(dataset, thresholds, algorithm="cubeminer")
    assert off.cubes == on.cubes
    assert off.stats["closure_cache_hits"] == 0
    assert on.stats["closure_cache_hits"] > 0
