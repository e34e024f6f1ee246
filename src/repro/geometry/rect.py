"""Axis-aligned rectangles (MBRs).

Every bounding box in the R-tree — leaf entry extents, node MBRs, the entries
of the main-memory direct access table, and query windows — is a
:class:`Rect`.  The class provides the geometric predicates the paper's
algorithms rely on:

* containment / overlap tests (`contains_point`, `contains_rect`,
  `intersects`),
* enlargement metrics used by Guttman's ChooseLeaf (`enlargement_to_include`),
* the union operations used by AdjustTree (`union`, :func:`union_all`),
* the *directional* extension used by GBU's ``iExtendMBR`` (Algorithm 4):
  :meth:`Rect.extended_towards`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple, Type

from repro.geometry.point import Point


class Rect:
    """An immutable axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Degenerate rectangles (zero width and/or height) are allowed; a point is
    stored in a leaf entry as a degenerate rectangle, matching how the paper
    treats moving-object positions.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float) -> None:
        if xmin > xmax or ymin > ymax:
            raise ValueError(
                f"invalid rectangle: ({xmin}, {ymin}, {xmax}, {ymax}) "
                "requires xmin <= xmax and ymin <= ymax"
            )
        _set_xmin(self, float(xmin))
        _set_ymin(self, float(ymin))
        _set_xmax(self, float(xmax))
        _set_ymax(self, float(ymax))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Rect is immutable")

    def __reduce__(self) -> Tuple[Type["Rect"], Tuple[float, float, float, float]]:
        # The default slot-state pickle protocol restores attributes through
        # __setattr__, which the immutability guard rejects; reconstruct
        # through the (validated) constructor instead.
        return (Rect, (self.xmin, self.ymin, self.xmax, self.ymax))

    # -- constructors ------------------------------------------------------
    @classmethod
    def _raw(cls, xmin: float, ymin: float, xmax: float, ymax: float) -> "Rect":
        """Unchecked fast-path constructor for internal hot paths.

        Skips the ``xmin <= xmax`` validation and the ``float()`` coercions;
        callers must guarantee the coordinates are well-ordered floats (true
        for every union/extension of already-valid rectangles).  The batch
        kernels in :mod:`repro.geometry.kernels` and the union paths below
        use it to avoid paying the validated constructor per rectangle.
        """
        rect = cls.__new__(cls)
        _set_xmin(rect, xmin)
        _set_ymin(rect, ymin)
        _set_xmax(rect, xmax)
        _set_ymax(rect, ymax)
        return rect

    @classmethod
    def from_point(cls, point: Point) -> "Rect":
        """Degenerate rectangle covering a single point."""
        x, y = point.x, point.y
        return cls._raw(x, y, x, y)

    @classmethod
    def unit(cls) -> "Rect":
        """The unit square ``[0, 1] x [0, 1]`` — the paper's data space."""
        return cls(0.0, 0.0, 1.0, 1.0)

    # -- protocol ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (
            self.xmin == other.xmin
            and self.ymin == other.ymin
            and self.xmax == other.xmax
            and self.ymax == other.ymax
        )

    def __hash__(self) -> int:
        return hash((self.xmin, self.ymin, self.xmax, self.ymax))

    def __iter__(self) -> Iterator[float]:
        yield self.xmin
        yield self.ymin
        yield self.xmax
        yield self.ymax

    def __repr__(self) -> str:
        return (
            f"Rect({self.xmin:.6g}, {self.ymin:.6g}, "
            f"{self.xmax:.6g}, {self.ymax:.6g})"
        )

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(xmin, ymin, xmax, ymax)``."""
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    # -- measures ----------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def area(self) -> float:
        """Area of the rectangle (zero for degenerate rectangles)."""
        return self.width * self.height

    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    # -- predicates ----------------------------------------------------------
    def contains_point(self, point: Point) -> bool:
        """``True`` if *point* lies inside or on the boundary."""
        return (
            self.xmin <= point.x <= self.xmax
            and self.ymin <= point.y <= self.ymax
        )

    def contains_rect(self, other: "Rect") -> bool:
        """``True`` if *other* lies entirely inside this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and self.xmax >= other.xmax
            and self.ymax >= other.ymax
        )

    def intersects(self, other: "Rect") -> bool:
        """``True`` if this rectangle overlaps *other* (boundary touch counts)."""
        return not (
            self.xmax < other.xmin
            or other.xmax < self.xmin
            or self.ymax < other.ymin
            or other.ymax < self.ymin
        )

    # -- combination ---------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both this rectangle and *other*."""
        return Rect._raw(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    # -- metrics used by the R-tree algorithms ---------------------------------
    def enlargement_to_include(self, other: "Rect") -> float:
        """Area increase needed to cover *other* (Guttman's ChooseLeaf metric)."""
        return self.union(other).area() - self.area()

    def min_distance_to_point(self, point: Point) -> float:
        """Minimum Euclidean distance from *point* to this rectangle.

        Used by the kNN extension; zero when the point is inside.
        """
        dx = max(self.xmin - point.x, 0.0, point.x - self.xmax)
        dy = max(self.ymin - point.y, 0.0, point.y - self.ymax)
        return (dx * dx + dy * dy) ** 0.5

    # -- GBU directional extension (Algorithm 4) -------------------------------
    def extended_towards(
        self,
        target: Point,
        epsilon: float,
        bound: Optional["Rect"] = None,
    ) -> "Rect":
        """Directionally extend the rectangle towards *target* (``iExtendMBR``).

        This is the paper's Algorithm 4.  The rectangle is enlarged only on
        the sides the target lies beyond (e.g. if the object moved north-east
        only the top and right edges move), each side moves at most *epsilon*,
        and — when *bound* (the parent MBR) is given — never beyond the bound.

        The returned rectangle is *not* guaranteed to contain *target*: the
        caller (GBU, Algorithm 2) checks containment and falls back to
        sibling shifting or ascent when the extension was insufficient.
        """
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        xmin, ymin, xmax, ymax = self.xmin, self.ymin, self.xmax, self.ymax

        if target.x > xmax:
            new_xmax = min(xmax + epsilon, target.x)
            if bound is not None:
                new_xmax = min(new_xmax, bound.xmax)
            xmax = max(xmax, new_xmax)
        elif target.x < xmin:
            new_xmin = max(xmin - epsilon, target.x)
            if bound is not None:
                new_xmin = max(new_xmin, bound.xmin)
            xmin = min(xmin, new_xmin)

        if target.y > ymax:
            new_ymax = min(ymax + epsilon, target.y)
            if bound is not None:
                new_ymax = min(new_ymax, bound.ymax)
            ymax = max(ymax, new_ymax)
        elif target.y < ymin:
            new_ymin = max(ymin - epsilon, target.y)
            if bound is not None:
                new_ymin = max(new_ymin, bound.ymin)
            ymin = min(ymin, new_ymin)

        # Sides only move outwards: well-formed by construction.
        return Rect._raw(xmin, ymin, xmax, ymax)

    def expanded(self, epsilon: float, bound: Optional["Rect"] = None) -> "Rect":
        """Enlarge the rectangle by *epsilon* **in all directions**.

        This is the LBU/Kwon-style enlargement (Section 3.1): the leaf MBR
        grows equally on every side, optionally clipped to the parent MBR
        *bound* so the R-tree invariant (child MBR inside parent MBR) holds.
        """
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        xmin = self.xmin - epsilon
        ymin = self.ymin - epsilon
        xmax = self.xmax + epsilon
        ymax = self.ymax + epsilon
        if bound is not None:
            xmin = max(xmin, bound.xmin)
            ymin = max(ymin, bound.ymin)
            xmax = min(xmax, bound.xmax)
            ymax = min(ymax, bound.ymax)
            # The original rectangle is assumed to be inside the bound; keep
            # the result well-formed even if it was not.
            xmin = min(xmin, self.xmin)
            ymin = min(ymin, self.ymin)
            xmax = max(xmax, self.xmax)
            ymax = max(ymax, self.ymax)
        return Rect._raw(xmin, ymin, xmax, ymax)


#: The slot descriptors' setters, bound once: construction writes the slots
#: past the immutability guard at half the cost of ``object.__setattr__``.
_set_xmin, _set_ymin, _set_xmax, _set_ymax = (
    Rect.__dict__[name].__set__ for name in Rect.__slots__
)


def union_all(rects: Iterable[Rect]) -> Rect:
    """Smallest rectangle covering every rectangle in *rects*.

    Raises ``ValueError`` when *rects* is empty — an R-tree node never has an
    empty MBR, so an empty union indicates a logic error in the caller.
    """
    iterator = iter(rects)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("union_all() requires at least one rectangle") from None
    xmin, ymin, xmax, ymax = first.xmin, first.ymin, first.xmax, first.ymax
    for rect in iterator:
        if rect.xmin < xmin:
            xmin = rect.xmin
        if rect.ymin < ymin:
            ymin = rect.ymin
        if rect.xmax > xmax:
            xmax = rect.xmax
        if rect.ymax > ymax:
            ymax = rect.ymax
    return Rect._raw(xmin, ymin, xmax, ymax)
