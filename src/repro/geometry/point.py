"""Two-dimensional points.

The paper indexes moving objects whose positions are 2-D points in the unit
square.  :class:`Point` is the value object used for object locations, query
corners, and movement vectors.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple, Type


class Point:
    """An immutable point in the plane.

    Parameters
    ----------
    x, y:
        Coordinates.  The workload generators keep coordinates inside the
        unit square ``[0, 1] x [0, 1]`` as in the paper, but :class:`Point`
        itself places no restriction on the range.
    """

    __slots__ = ("x", "y")

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        _set_x(self, float(x))
        _set_y(self, float(y))

    # -- immutability -----------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Point is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Point is immutable")

    def __reduce__(self) -> Tuple[Type["Point"], Tuple[float, float]]:
        # The default slot-state pickle protocol restores attributes through
        # __setattr__, which the immutability guard rejects; reconstruct
        # through the constructor instead.
        return (Point, (self.x, self.y))

    # -- basic protocol ---------------------------------------------------
    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({self.x:.6g}, {self.y:.6g})"

    # -- geometry ---------------------------------------------------------
    def distance_to(self, other: "Point") -> float:
        """Euclidean distance between this point and *other*."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_distance_to(self, other: "Point") -> float:
        """Manhattan (L1) distance between this point and *other*."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a new point displaced by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def clamped(self, lo: float = 0.0, hi: float = 1.0) -> "Point":
        """Return a copy with both coordinates clamped to ``[lo, hi]``.

        The GSTD-style workload generator uses this to keep moving objects
        inside the unit data space, mirroring the paper's setup where the
        data space is normalised to the unit square.
        """
        return Point(min(max(self.x, lo), hi), min(max(self.y, lo), hi))

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


#: The slot descriptors' setters, bound once (see ``repro.geometry.rect``).
_set_x, _set_y = (Point.__dict__[name].__set__ for name in Point.__slots__)
