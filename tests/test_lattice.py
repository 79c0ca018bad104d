"""Tests for the cube containment lattice."""

from __future__ import annotations

import pytest

from repro.analysis.lattice import (
    CubeLattice,
    build_containment_dag,
    maximal_cubes,
    minimal_cubes,
)
from repro.api import mine
from repro.core.constraints import Thresholds
from repro.core.cube import Cube


def tower():
    """Three nested cubes plus one incomparable."""
    outer = Cube.from_indices([0, 1, 2], [0, 1, 2], [0, 1, 2])
    middle = Cube.from_indices([0, 1], [0, 1], [0, 1, 2])
    inner = Cube.from_indices([0], [0, 1], [0, 1])
    apart = Cube.from_indices([5], [5], [5])
    return outer, middle, inner, apart


class TestBuildDag:
    def test_hasse_reduction(self):
        outer, middle, inner, apart = tower()
        dag = build_containment_dag([outer, middle, inner, apart])
        # Transitive edge outer->inner must be reduced away.
        assert middle in dag[outer]
        assert inner in dag[middle]
        assert inner not in dag[outer]
        assert dag[apart] == []
        assert not any(apart in covered for covered in dag.values())

    def test_deduplicates(self):
        cube = Cube.from_indices([0], [0], [0])
        dag = build_containment_dag([cube, cube])
        assert len(dag) == 1

    def test_empty(self):
        assert len(build_containment_dag([])) == 0


class TestMaximalMinimal:
    def test_tower(self):
        outer, middle, inner, apart = tower()
        cubes = [outer, middle, inner, apart]
        assert set(maximal_cubes(cubes)) == {outer, apart}
        assert set(minimal_cubes(cubes)) == {inner, apart}

    def test_single_result_all_incomparable(self, paper_ds, paper_thresholds):
        """FCCs of one run are pairwise incomparable by closedness."""
        result = mine(paper_ds, paper_thresholds)
        assert set(maximal_cubes(result)) == result.cube_set()
        assert set(minimal_cubes(result)) == result.cube_set()


class TestCubeLattice:
    @pytest.fixture
    def lattice(self):
        return CubeLattice(tower())

    def test_len(self, lattice):
        assert len(lattice) == 4

    def test_roots_and_leaves(self, lattice):
        outer, middle, inner, apart = tower()
        assert set(lattice.maximal()) == {outer, apart}
        assert set(lattice.minimal()) == {inner, apart}

    def test_containers_and_contained(self, lattice):
        outer, middle, inner, apart = tower()
        assert set(lattice.containers_of(inner)) == {outer, middle}
        assert set(lattice.contained_in(outer)) == {middle, inner}
        assert lattice.containers_of(apart) == []

    def test_unknown_cube_raises(self, lattice):
        with pytest.raises(KeyError):
            lattice.containers_of(Cube.from_indices([9], [9], [9]))

    def test_height_and_chain(self, lattice):
        outer, middle, inner, _ = tower()
        assert lattice.height() == 3
        assert lattice.longest_chain() == [outer, middle, inner]

    def test_antichain_levels(self, lattice):
        levels = lattice.antichain_levels()
        for level in levels:
            for a in level:
                for b in level:
                    if a != b:
                        assert not a.contains(b)

    def test_empty_lattice(self):
        lattice = CubeLattice([])
        assert lattice.height() == 0
        assert lattice.longest_chain() == []
        assert lattice.antichain_levels() == []

    def test_cross_threshold_nesting(self, paper_ds):
        """Cubes from a tighter run nest inside or equal looser-run cubes."""
        loose = mine(paper_ds, Thresholds(2, 2, 2))
        tight = mine(paper_ds, Thresholds(3, 2, 2))
        lattice = CubeLattice(list(loose) + list(tight))
        # Every tight cube is contained in (or equals) some loose cube.
        for cube in tight:
            containers = (
                lattice.containers_of(cube) if cube in lattice.dag else []
            )
            assert cube in loose.cube_set() or containers
