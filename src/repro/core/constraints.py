"""Monotone support-threshold constraints (Definition 3.3).

A frequent closed cube must satisfy three minimum sizes: ``minH`` on the
height axis, ``minR`` on rows and ``minC`` on columns.  All three are
monotone (anti-monotone in the usual itemset-mining sense): removing an
element from a dimension can only lower its support, so once a node in
the search tree drops below a threshold the whole branch is pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cube import Cube

__all__ = ["Thresholds"]


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Minimum sizes on the three axes of a frequent closed cube.

    ``min_volume`` is an optional fourth monotone constraint on the
    cube's cell count (the 3D lift of D-Miner's minimal-area
    constraint): a node's volume only shrinks down the search tree, so
    falling below it prunes the whole branch.  The default 1 makes it
    inert.
    """

    min_h: int = 1
    min_r: int = 1
    min_c: int = 1
    min_volume: int = 1

    def __post_init__(self) -> None:
        for name, value in (
            ("min_h", self.min_h),
            ("min_r", self.min_r),
            ("min_c", self.min_c),
            ("min_volume", self.min_volume),
        ):
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def admits(self, h_support: int, r_support: int, c_support: int) -> bool:
        """True when a cube of these axis supports meets every minimum.

        The one statement of the threshold rule: the three support
        minimums plus ``min_volume`` on their product.
        :meth:`satisfied_by`, :meth:`Cube.satisfies
        <repro.core.cube.Cube.satisfies>` and the result cache's int-row
        filter all call it.
        """
        return (
            h_support >= self.min_h
            and r_support >= self.min_r
            and c_support >= self.min_c
            and h_support * r_support * c_support >= self.min_volume
        )

    def satisfied_by(self, cube: Cube) -> bool:
        """True when the cube meets every minimum (supports and volume)."""
        return self.admits(*cube.shape)

    def dominates(self, other: "Thresholds") -> bool:
        """True when this threshold set is looser-or-equal than ``other``.

        ``a.dominates(b)`` means every constraint of ``a`` is
        element-wise ``<=`` the matching constraint of ``b`` (all three
        axis minimums and ``min_volume``).  By threshold monotonicity
        the FCC result mined at ``a`` is then a superset of the result
        at ``b``: filtering the ``a``-result with
        :meth:`~repro.core.cube.Cube.satisfies` reproduces the
        ``b``-result exactly.  This is the lattice order behind the
        service's threshold-lattice result cache
        (:mod:`repro.service.cache`).
        """
        return (
            self.min_h <= other.min_h
            and self.min_r <= other.min_r
            and self.min_c <= other.min_c
            and self.min_volume <= other.min_volume
        )

    def as_tuple(self) -> tuple[int, int, int]:
        """``(min_h, min_r, min_c)`` in canonical axis order."""
        return (self.min_h, self.min_r, self.min_c)

    def to_dict(self) -> dict[str, int]:
        """All four constraints as a JSON-ready dict."""
        return {
            "min_h": self.min_h,
            "min_r": self.min_r,
            "min_c": self.min_c,
            "min_volume": self.min_volume,
        }

    @classmethod
    def from_dict(cls, payload: "dict | list | tuple | Thresholds") -> "Thresholds":
        """Rebuild from :meth:`to_dict` output (or a 3/4-tuple).

        Accepts the dict schema, an existing :class:`Thresholds`
        (returned unchanged), or a ``[min_h, min_r, min_c]`` /
        ``[min_h, min_r, min_c, min_volume]`` sequence — the wire shapes
        used by result JSON and the service API.
        """
        if isinstance(payload, Thresholds):
            return payload
        if isinstance(payload, (list, tuple)):
            if len(payload) == 3:
                return cls(*(int(v) for v in payload))
            if len(payload) == 4:
                h, r, c, volume = (int(v) for v in payload)
                return cls(h, r, c, min_volume=volume)
            raise ValueError(
                f"threshold sequence must have 3 or 4 entries, got {payload!r}"
            )
        unknown = set(payload) - {"min_h", "min_r", "min_c", "min_volume"}
        if unknown:
            raise ValueError(f"unknown threshold key(s) {sorted(unknown)}")
        return cls(
            int(payload.get("min_h", 1)),
            int(payload.get("min_r", 1)),
            int(payload.get("min_c", 1)),
            min_volume=int(payload.get("min_volume", 1)),
        )

    def permute(self, order: tuple[int, int, int]) -> "Thresholds":
        """Thresholds for a dataset transposed with the same axis ``order``.

        ``order[new_axis] == old_axis``, matching
        :meth:`repro.core.dataset.Dataset3D.transpose`.  The volume
        constraint is axis-free and carries over unchanged.
        """
        if sorted(order) != [0, 1, 2]:
            raise ValueError(f"order {order!r} is not a permutation of the 3 axes")
        values = self.as_tuple()
        return Thresholds(
            *(values[axis] for axis in order), min_volume=self.min_volume
        )

    def feasible_for_shape(self, shape: tuple[int, int, int]) -> bool:
        """True when a cube meeting the thresholds can exist in ``shape``."""
        return (
            self.min_h <= shape[0]
            and self.min_r <= shape[1]
            and self.min_c <= shape[2]
            and self.min_volume <= shape[0] * shape[1] * shape[2]
        )

    def __str__(self) -> str:
        text = f"minH={self.min_h}, minR={self.min_r}, minC={self.min_c}"
        if self.min_volume > 1:
            text += f", minVolume={self.min_volume}"
        return text
