"""Property-based tests (hypothesis) on core invariants.

These are the strongest correctness guarantees in the suite: for
arbitrary small tensors the fast miners must agree with the exhaustive
oracle, the closure operators must satisfy the Galois-connection laws,
and serialization must be lossless.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mine
from repro.core.bitset import bit_count, full_mask
from repro.core.closure import (
    close,
    column_support,
    height_support,
    is_closed_cube,
    row_support,
)
from repro.core.constraints import Thresholds
from repro.core.cube import Cube
from repro.core.dataset import Dataset3D
from repro.core.reference import reference_mine
from repro.cubeminer import HeightOrder, cubeminer_mine
from repro.fcp import (
    BinaryMatrix,
    carpenter_mine,
    dminer_mine,
    oracle_mine_2d,
)
from repro.rsm import rsm_mine

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def tensors(draw, max_dim: int = 5):
    """Small random 3D binary tensors."""
    l = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    cells = draw(
        st.lists(st.booleans(), min_size=l * n * m, max_size=l * n * m)
    )
    return Dataset3D(np.array(cells, dtype=bool).reshape(l, n, m))


@st.composite
def matrices(draw, max_rows: int = 7, max_cols: int = 7):
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    cells = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    return BinaryMatrix.from_array(np.array(cells, dtype=bool).reshape(n, m))


@st.composite
def tensor_with_thresholds(draw):
    ds = draw(tensors())
    th = Thresholds(
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    )
    return ds, th


# ----------------------------------------------------------------------
# Miner equivalence
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tensor_with_thresholds())
def test_cubeminer_equals_oracle(case):
    ds, th = case
    assert cubeminer_mine(ds, th).same_cubes(reference_mine(ds, th))


@settings(max_examples=60, deadline=None)
@given(tensor_with_thresholds())
def test_rsm_equals_oracle(case):
    ds, th = case
    assert rsm_mine(ds, th).same_cubes(reference_mine(ds, th))


@settings(max_examples=40, deadline=None)
@given(tensor_with_thresholds(), st.sampled_from(list(HeightOrder)))
def test_cubeminer_order_invariance(case, order):
    ds, th = case
    assert cubeminer_mine(ds, th, order=order).same_cubes(
        cubeminer_mine(ds, th, order=HeightOrder.ORIGINAL)
    )


@settings(max_examples=40, deadline=None)
@given(tensor_with_thresholds(), st.sampled_from(["height", "row", "column"]))
def test_rsm_base_axis_invariance(case, base_axis):
    ds, th = case
    assert rsm_mine(ds, th, base_axis=base_axis).same_cubes(rsm_mine(ds, th))


@settings(max_examples=40, deadline=None)
@given(tensor_with_thresholds())
def test_auto_transpose_invariance(case):
    ds, th = case
    assert mine(ds, th, auto_transpose=True).same_cubes(mine(ds, th))


@settings(max_examples=50, deadline=None)
@given(matrices(), st.integers(1, 3), st.integers(1, 3))
def test_2d_miners_equal_oracle(matrix, min_rows, min_cols):
    truth = set(oracle_mine_2d(matrix, min_rows, min_cols))
    assert set(dminer_mine(matrix, min_rows, min_cols)) == truth
    assert set(carpenter_mine(matrix, min_rows, min_cols)) == truth


# ----------------------------------------------------------------------
# Closure-operator laws
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tensors(), st.data())
def test_galois_antitone_and_extensive(ds, data):
    l, n, m = ds.shape
    heights = data.draw(st.integers(0, full_mask(l)))
    rows = data.draw(st.integers(0, full_mask(n)))
    columns = column_support(ds, heights, rows)
    # Every (height,row) pair of the generators contains the support cols.
    back_rows = row_support(ds, heights, columns)
    assert rows & ~back_rows == 0  # extensive on rows
    back_heights = height_support(ds, rows, columns)
    assert heights & ~back_heights == 0  # extensive on heights


@settings(max_examples=60, deadline=None)
@given(tensors(), st.data())
def test_support_antitone_in_generators(ds, data):
    l, n, _m = ds.shape
    heights = data.draw(st.integers(0, full_mask(l)))
    rows_small = data.draw(st.integers(0, full_mask(n)))
    rows_big = rows_small | data.draw(st.integers(0, full_mask(n)))
    # Larger row set -> column support can only shrink.
    small = column_support(ds, heights, rows_small)
    big = column_support(ds, heights, rows_big)
    assert big & ~small == 0


@settings(max_examples=60, deadline=None)
@given(tensors(), st.data())
def test_close_produces_closed_cube(ds, data):
    l, n, m = ds.shape
    one_cells = np.argwhere(ds.data)
    if len(one_cells) == 0:
        return
    idx = data.draw(st.integers(0, len(one_cells) - 1))
    k, i, j = (int(x) for x in one_cells[idx])
    closed = close(ds, Cube(1 << k, 1 << i, 1 << j))
    assert is_closed_cube(ds, closed)
    assert closed.contains(Cube(1 << k, 1 << i, 1 << j))


# ----------------------------------------------------------------------
# Result invariants
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tensor_with_thresholds())
def test_mined_cubes_pairwise_incomparable(case):
    """No FCC may contain another: closed cubes are maximal."""
    ds, th = case
    cubes = cubeminer_mine(ds, th).cubes
    for a in cubes:
        for b in cubes:
            if a is not b:
                assert not a.contains(b) or a == b


@settings(max_examples=40, deadline=None)
@given(tensors())
def test_every_one_cell_covered_at_min_thresholds(ds):
    """At thresholds (1,1,1) the FCCs cover every 1 in the tensor."""
    result = cubeminer_mine(ds, Thresholds(1, 1, 1))
    covered = np.zeros(ds.shape, dtype=bool)
    for cube in result:
        hs = list(cube.height_indices())
        rs = list(cube.row_indices())
        cs = list(cube.column_indices())
        covered[np.ix_(hs, rs, cs)] = True
    assert (covered >= ds.data).all() or (covered == ds.data).all()
    assert (covered & ~ds.data).sum() == 0  # cubes never cover a zero


@settings(max_examples=40, deadline=None)
@given(tensor_with_thresholds())
def test_threshold_monotonicity(case):
    ds, th = case
    loose = cubeminer_mine(ds, Thresholds(1, 1, 1)).cube_set()
    tight = cubeminer_mine(ds, th).cube_set()
    assert tight <= loose


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(tensors())
def test_text_serialization_round_trip(ds):
    assert Dataset3D.from_text(ds.to_text()) == Dataset3D(ds.data)


@settings(max_examples=30, deadline=None)
@given(tensors())
def test_transpose_involution(ds):
    order = (2, 0, 1)
    inverse = (1, 2, 0)
    assert ds.transpose(order).transpose(inverse) == ds


@settings(max_examples=30, deadline=None)
@given(tensors(), st.data())
def test_bit_count_consistency(ds, data):
    l, n, m = ds.shape
    mask = data.draw(st.integers(0, full_mask(m)))
    assert bit_count(mask) == bin(mask).count("1")
