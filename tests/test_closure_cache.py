"""Correctness of CubeMiner's leaf checks, and the inert cache knob.

CubeMiner checks Lemma 4/5 closure once per leaf instead of on every
son, and prunes sons by its track-core rule.  A hypothesis property
pins that engine to the brute-force oracle across the three height
orders, ``required_heights`` masks, ``min_volume`` bounds, the
breadth-first task split the parallel driver replays, and tensors wider
than 256 columns; seeded tensors cover the parallel pool and
``maintain()``'s dirty pass.

No closure query is memoized: ``CubeMinerOptions(closure_cache_size=)``
stays an accepted, inert field and the ``closure_cache_*`` counters
read 0.  The closure operators themselves are pinned to the paper's
definitions in ``tests/test_closure.py``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mine
from repro.core.bitset import full_mask
from repro.core.constraints import Thresholds
from repro.core.dataset import Dataset3D
from repro.core.reference import reference_mine
from repro.cubeminer.algorithm import _run, cubeminer_mine, cubeminer_tasks, search_root
from repro.cubeminer.cutter import HeightOrder
from repro.datasets import paper_example, random_tensor
from repro.obs import MiningMetrics
from repro.options import CubeMinerOptions, options_from_dict, options_to_dict
from repro.parallel import parallel_cubeminer_mine
from repro.stream import ClearCell, SetCell, maintain
from tests.conftest import STORAGES, in_storage


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize(
    "shape,density,seed",
    [((4, 5, 12), 0.5, 3), ((5, 4, 20), 0.6, 7), ((4, 6, 70), 0.35, 11)],
)
def test_miner_cached_equals_uncached(storage, shape, density, seed):
    """``closure_cache_size=0`` mines the default run's cubes and tree.

    The option is kept for compatibility and has no effect.
    """
    dataset = in_storage(random_tensor(shape, density, seed=seed), storage)
    thresholds = Thresholds(2, 2, 2)
    uncached = mine(
        dataset, thresholds, options=CubeMinerOptions(closure_cache_size=0)
    )
    cached = mine(dataset, thresholds)
    assert cached.cubes == uncached.cubes
    assert cached.stats.metrics == uncached.stats.metrics


@st.composite
def engine_cases(draw):
    """A random tensor, thresholds, height order, mask and task count.

    Up to 7 heights and rows keep the oracle's 2^(l+n) enumeration
    small; ``m`` runs past 256 columns; ``min_volume`` is often above
    1, a bound the track-core rule checks after it narrows a son.
    """
    l = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.sampled_from([1, 4, 13, 64, 300]))
    density = draw(st.sampled_from([0.3, 0.6, 0.85]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    thresholds = Thresholds(
        draw(st.integers(1, l)),
        draw(st.integers(1, n)),
        draw(st.integers(1, min(m, 5))),
        min_volume=draw(st.sampled_from([1, 1, 6, 24, 80])),
    )
    order = draw(st.sampled_from(list(HeightOrder)))
    required = draw(st.integers(1, full_mask(l)))
    min_tasks = draw(st.integers(1, 16))
    return random_tensor((l, n, m), density, seed=seed), thresholds, order, required, min_tasks


def _triples(cubes) -> list[tuple[int, int, int]]:
    return sorted((cube.heights, cube.rows, cube.columns) for cube in cubes)


@settings(max_examples=150, deadline=None)
@given(engine_cases())
def test_leaf_check_engine_equals_oracle(case):
    """CubeMiner's cubes == ``reference_mine``'s, however the tree is run.

    * every height order gives the oracle's cubes;
    * a ``required_heights`` run gives those of them meeting the mask;
    * replaying the breadth-first task split gives the sequential cubes
      and every sequential counter but the stack depth.
    """
    dataset, thresholds, order, required, min_tasks = case
    expected = _triples(reference_mine(dataset, thresholds))
    sequential = cubeminer_mine(dataset, thresholds, order=order)
    assert _triples(sequential) == expected

    root, cutters = search_root(dataset, thresholds, order)
    if not root.satisfies(thresholds):
        assert expected == []
        return

    restricted = []
    if root.heights & required:  # as maintain()'s dirty pass
        restricted, _ = _run(
            dataset,
            thresholds,
            cutters,
            [((root.heights, root.rows, root.columns), 0, 0, 0)],
            MiningMetrics(),
            required_heights=required,
        )
    assert _triples(restricted) == [t for t in expected if t[0] & required]

    metrics = MiningMetrics()
    tasks, done = cubeminer_tasks(
        dataset, thresholds, root, cutters, min_tasks, metrics=metrics
    )
    replayed, _ = _run(dataset, thresholds, cutters, deque(tasks), metrics)
    assert _triples(done + replayed) == expected
    seq_counters = sequential.stats.metrics.as_dict()
    for name, value in metrics.as_dict().items():
        if name not in ("max_stack_depth", "cutters_built", "n_cutters"):
            assert value == seq_counters[name], name


def _late_blocks_tensor() -> Dataset3D:
    """Sparse ones with all-ones blocks only past the first 256 columns."""
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
def test_engine_matches_oracle_pooled_and_maintained(build):
    """Sequential, pooled and maintained runs all give the oracle's cubes.

    The pool ships the tasks to two workers; ``maintain()``'s dirty pass
    runs the engine restricted to the edited heights.  The pool's work
    counters equal the sequential run's.
    """
    dataset = build()
    shape = dataset.shape
    thresholds = Thresholds(2, 2, 2)
    sequential = cubeminer_mine(dataset, thresholds)
    assert sequential.same_cubes(reference_mine(dataset, thresholds))

    parallel = parallel_cubeminer_mine(dataset, thresholds, n_workers=2)
    assert parallel.cubes == sequential.cubes
    assert parallel.stats["nodes_visited"] == sequential.stats["nodes_visited"]

    deltas = [ClearCell(0, 0, 0), SetCell(shape[0] - 1, 1, 2)]
    new, maintained = maintain(dataset, sequential, deltas)
    assert maintained.same_cubes(reference_mine(new, thresholds))
    assert maintained.stats["subsets_remined"] > 0


def test_counters_surface_through_result_stats():
    """No closure query is memoized any more: ``closure_cache_*`` read 0
    on a mining run and on maintain()'s patch pass and merge."""
    dataset = paper_example()
    thresholds = Thresholds(2, 2, 2)
    result = cubeminer_mine(dataset, thresholds)
    assert result.stats["closure_cache_hits"] == 0
    assert result.stats["closure_cache_misses"] == 0
    serialized = result.stats.to_dict()["metrics"]
    assert serialized["closure_cache_hits"] == 0
    _, maintained = maintain(dataset, result, [ClearCell(0, 0, 0)])
    assert maintained.stats["cubes_patched"] > 0
    assert maintained.stats["closure_cache_hits"] == 0
    assert maintained.stats["closure_cache_misses"] == 0


def test_options_thread_the_cache_knob():
    """``closure_cache_size`` stays an accepted, serializable, inert field."""
    options = CubeMinerOptions(order=HeightOrder.ORIGINAL, closure_cache_size=0)
    assert options.to_kwargs() == {"order": HeightOrder.ORIGINAL}
    assert options_from_dict("cubeminer", options_to_dict(options)) == options
