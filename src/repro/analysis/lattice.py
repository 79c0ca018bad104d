"""The containment lattice of mined FCCs.

Closed cubes, ordered by per-axis containment, form a partial order
(in FCA terms: the tri-concept analogue of the concept lattice's
order).  This module materializes its Hasse diagram (the cover
relation) as a plain ``{cube: [covered cubes]}`` map, plus the queries
an analyst wants:

* which cubes are maximal / minimal,
* the ancestors (containers) and descendants (sub-cubes) of a cube,
* the chains (nested towers of patterns),
* the lattice height and an antichain decomposition.

Note the direction: ``b in dag[a]`` means ``a`` strictly contains
``b`` on every axis (``a`` is the more general, bigger block) with no
cube of the collection in between.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core.cube import Cube
from ..core.result import MiningResult

__all__ = ["build_containment_dag", "maximal_cubes", "minimal_cubes", "CubeLattice"]


def build_containment_dag(cubes: Iterable[Cube]) -> dict[Cube, list[Cube]]:
    """Build the Hasse diagram of cube containment.

    Maps each cube to the cubes it *covers*: strict sub-cubes with no
    cube of the collection in between.  Cubic in the cube count in the
    worst case; intended for result sets of up to a few thousand cubes.
    """
    cube_list = list(dict.fromkeys(cubes))
    inside = {
        a: [b for b in cube_list if b != a and a.contains(b)] for a in cube_list
    }
    return {
        a: [b for b in below if not any(c != b and c.contains(b) for c in below)]
        for a, below in inside.items()
    }


def maximal_cubes(cubes: Iterable[Cube]) -> list[Cube]:
    """Cubes contained in no other cube of the collection."""
    cube_list = list(dict.fromkeys(cubes))
    return [
        a
        for a in cube_list
        if not any(b != a and b.contains(a) for b in cube_list)
    ]


def minimal_cubes(cubes: Iterable[Cube]) -> list[Cube]:
    """Cubes that contain no other cube of the collection."""
    cube_list = list(dict.fromkeys(cubes))
    return [
        a
        for a in cube_list
        if not any(b != a and a.contains(b) for b in cube_list)
    ]


class CubeLattice:
    """Query wrapper around the containment DAG of a mining result.

    Note: *frequent closed* cubes of one run are pairwise incomparable
    (closure makes each maximal), so a lattice over a single result is
    edgeless.  The structure becomes interesting across runs — e.g.
    the union of results at several thresholds, where tighter-threshold
    cubes nest inside looser ones.
    """

    def __init__(self, cubes: Iterable[Cube] | MiningResult) -> None:
        self._cubes = list(dict.fromkeys(cubes))
        self._dag = build_containment_dag(self._cubes)

    @property
    def dag(self) -> dict[Cube, list[Cube]]:
        """The cover map of :func:`build_containment_dag`."""
        return self._dag

    def __len__(self) -> int:
        return len(self._cubes)

    def maximal(self) -> list[Cube]:
        """Roots: cubes with no container in the collection."""
        covered = {b for below in self._dag.values() for b in below}
        return [c for c in self._cubes if c not in covered]

    def minimal(self) -> list[Cube]:
        """Leaves: cubes containing no other cube of the collection."""
        return [c for c in self._cubes if not self._dag[c]]

    def containers_of(self, cube: Cube) -> list[Cube]:
        """Every cube of the collection strictly containing ``cube``."""
        if cube not in self._dag:
            raise KeyError(f"{cube!r} is not in the lattice")
        return [a for a in self._cubes if a != cube and a.contains(cube)]

    def contained_in(self, cube: Cube) -> list[Cube]:
        """Every cube of the collection strictly inside ``cube``."""
        if cube not in self._dag:
            raise KeyError(f"{cube!r} is not in the lattice")
        return [b for b in self._cubes if b != cube and cube.contains(b)]

    def _depths(self) -> tuple[dict[Cube, int], dict[Cube, Cube]]:
        """Longest-path pass: each cube's chain length from a root, in nodes.

        A strict container has strictly more members (heights + rows +
        columns), so visiting cubes by decreasing member count visits
        every container before its sub-cubes.
        Returns the depths and, for non-roots, the cover on one longest
        chain into the cube.
        """
        depth: dict[Cube, int] = {}
        parent: dict[Cube, Cube] = {}
        by_size = sorted(
            self._cubes, key=lambda c: -(c.h_support + c.r_support + c.c_support)
        )
        for a in by_size:
            depth.setdefault(a, 1)
            for b in self._dag[a]:
                if depth[a] + 1 > depth.get(b, 0):
                    depth[b] = depth[a] + 1
                    parent[b] = a
        return depth, parent

    def height(self) -> int:
        """Length (in nodes) of the longest containment chain."""
        depth, _ = self._depths()
        return max(depth.values(), default=0)

    def longest_chain(self) -> list[Cube]:
        """One longest nested tower, outermost first."""
        depth, parent = self._depths()
        if not depth:
            return []
        cube = max(self._cubes, key=depth.__getitem__)
        chain = [cube]
        while cube in parent:
            cube = parent[cube]
            chain.append(cube)
        return chain[::-1]

    def antichain_levels(self) -> list[list[Cube]]:
        """Partition into levels of pairwise-incomparable cubes.

        Level ``k`` holds the cubes whose longest chain from a root has
        ``k + 1`` nodes; two comparable cubes always differ in it.
        """
        depth, _ = self._depths()
        levels: list[list[Cube]] = [[] for _ in range(max(depth.values(), default=0))]
        for cube in self._cubes:
            levels[depth[cube] - 1].append(cube)
        return levels
