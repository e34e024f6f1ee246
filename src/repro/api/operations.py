"""First-class operation model of the public API.

One frozen dataclass per operation the index surface supports — the
*single* schema every layer speaks: the facade executes them, the batch
engine groups them, the concurrent engine predicts their lock scopes and
schedules them, and the workload generator produces them.  Anything that is
not an :class:`Operation` is rejected with
:class:`~repro.api.errors.InvalidOperationError` before any work runs.

>>> from repro.api import KNN, RangeQuery, Update
>>> from repro.geometry import Point, Rect
>>> op = Update(42, Point(0.3, 0.4))
>>> op
Update(oid=42, new_location=Point(0.3, 0.4))
>>> op.kind
'update'
>>> RangeQuery(Rect(0.0, 0.0, 0.5, 0.5)).kind
'query'
>>> KNN(Point(0.5, 0.5), -1)
Traceback (most recent call last):
    ...
repro.api.errors.InvalidNeighborCountError: k must be a non-negative integer, got -1
>>> Update(42, Point(float("nan"), 0.4))
Traceback (most recent call last):
    ...
repro.api.errors.NonFiniteCoordinateError: coordinates must be finite, got Point(nan, 0.4)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from repro.api.errors import (
    InvalidNeighborCountError,
    InvalidWindowError,
    NonFiniteCoordinateError,
)
from repro.geometry import Point, Rect


def require_finite(point: Point) -> None:
    """Raise :class:`NonFiniteCoordinateError` unless both coordinates are finite."""
    if not (isfinite(point.x) and isfinite(point.y)):
        raise NonFiniteCoordinateError(point)


@dataclass(frozen=True)
class Operation:
    """Base class of every typed index operation.

    Concrete operations are frozen dataclasses; equality, hashing and repr
    come for free, which is what makes them safe to carry across layer
    boundaries (scheduler queues, batch plans, checkpoints of pending work).
    """

    #: Stable kind label, shared with the scheduler's per-kind reporting.
    kind = "operation"


@dataclass(frozen=True)
class Insert(Operation):
    """Insert a brand-new object at *location*."""

    oid: int
    location: Point
    kind = "insert"

    def __post_init__(self) -> None:
        require_finite(self.location)


@dataclass(frozen=True)
class Update(Operation):
    """Move an existing object to *new_location*.

    The operation carries only the new (absolute) position; the object's old
    position is index state, looked up at execution time — which is exactly
    the online semantics: a deferred update sees the position its
    predecessors committed.
    """

    oid: int
    new_location: Point
    kind = "update"

    def __post_init__(self) -> None:
        require_finite(self.new_location)


@dataclass(frozen=True)
class Delete(Operation):
    """Remove an object from the index."""

    oid: int
    kind = "delete"


@dataclass(frozen=True)
class RangeQuery(Operation):
    """Report the objects whose positions fall inside *window*."""

    window: Rect
    kind = "query"

    def __post_init__(self) -> None:
        if not isinstance(self.window, Rect):
            raise InvalidWindowError(self.window)
        window = self.window
        if not (
            isfinite(window.xmin)
            and isfinite(window.ymin)
            and isfinite(window.xmax)
            and isfinite(window.ymax)
        ):
            raise NonFiniteCoordinateError(window)


@dataclass(frozen=True)
class KNN(Operation):
    """Report the *k* objects nearest to *point* as ``(distance, oid)`` pairs."""

    point: Point
    k: int
    kind = "knn"

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0:
            raise InvalidNeighborCountError(self.k)
        require_finite(self.point)


__all__ = [
    "Operation",
    "Insert",
    "Update",
    "Delete",
    "RangeQuery",
    "KNN",
]
