"""Spatial partitioners: how the data space is split into shards.

A :class:`Partitioner` assigns every position in the unit square to exactly
one shard and publishes each shard's **boundary rectangle**.  The sharded
index routes every operation through this assignment: updates go to the
owning shard (or migrate between two shards when a move crosses a
boundary), and queries fan out to exactly the shards whose boundaries
intersect the query window.

The same locality argument that makes the paper's bottom-up updates cheap
makes spatial partitioning effective: objects move small distances between
updates, so the overwhelming majority of updates stay inside one shard and
cross-shard migrations are rare.  :class:`GridPartitioner` is the uniform
default; :class:`BoundaryPartitioner` accepts an explicit boundary list, the
pluggable escape hatch for skew-aware layouts (cf. the hotspot workloads,
where a uniform grid concentrates load on few shards).

Partitioners serialise to a plain-dict *spec* (:meth:`Partitioner.to_spec` /
:func:`partitioner_from_spec`) so a sharded checkpoint can record how its
page images were split.
"""

from __future__ import annotations

import abc
import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.schema import check_shard_count, read
from repro.geometry import Point, Rect


def near_square_factoring(num_shards: int) -> Tuple[int, int]:
    """The most-square ``(columns, rows)`` factoring with exactly *num_shards* cells.

    Shared by :meth:`GridPartitioner.for_shards` and the rebalancer's
    boundary planner, so a rebalanced partition keeps the same
    ``columns x rows`` shape a fresh grid of the same shard count would
    have.
    """
    read("spec", {"shards": num_shards})
    rows = int(num_shards**0.5)
    while num_shards % rows:
        rows -= 1
    return num_shards // rows, rows


class Partitioner(abc.ABC):
    """Assignment of positions to shards, with published shard boundaries."""

    @property
    @abc.abstractmethod
    def num_shards(self) -> int:
        """Number of shards this partitioner routes to."""

    @abc.abstractmethod
    def shard_of(self, point: Point) -> int:
        """The shard owning *point*.  Total: every position maps somewhere."""

    @abc.abstractmethod
    def boundary(self, shard: int) -> Rect:
        """The boundary rectangle of *shard* (contains all its positions)."""

    @abc.abstractmethod
    def to_spec(self) -> Dict[str, Any]:
        """Plain-dict description, round-trippable via :func:`partitioner_from_spec`."""

    # ------------------------------------------------------------------
    # Shared behaviour
    # ------------------------------------------------------------------
    def boundaries(self) -> List[Rect]:
        """Every shard's boundary rectangle, indexed by shard id."""
        return [self.boundary(shard) for shard in range(self.num_shards)]

    def shards_intersecting(self, window: Rect) -> List[int]:
        """Shards whose boundary rectangle intersects *window* (fan-out set)."""
        return [
            shard
            for shard in range(self.num_shards)
            if self.boundary(shard).intersects(window)
        ]

    def describe(self) -> str:
        return f"{type(self).__name__}(shards={self.num_shards})"


class GridPartitioner(Partitioner):
    """Uniform ``columns x rows`` grid over the unit square.

    Cell ``(col, row)`` is shard ``row * columns + col``.  Positions are
    clamped into the unit square before assignment, so the mapping is total
    even for degenerate inputs; every workload position in this repository
    is already inside the unit square (the movement model clamps), so each
    object's position always lies within its shard's boundary rectangle —
    the invariant the kNN pruning bound relies on.
    """

    def __init__(self, columns: int, rows: int = 1) -> None:
        read("partitioner", {"kind": "grid", "columns": columns, "rows": rows})
        check_shard_count("partitioner.grid.columns * rows", columns * rows)
        self.columns = columns
        self.rows = rows

    @classmethod
    def for_shards(cls, num_shards: int) -> "GridPartitioner":
        """The most-square ``columns x rows`` grid with exactly *num_shards* cells."""
        columns, rows = near_square_factoring(num_shards)
        return cls(columns=columns, rows=rows)

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.columns * self.rows

    def shard_of(self, point: Point) -> int:
        col, row = int(point.x * self.columns), int(point.y * self.rows)
        col = 0 if col < 0 else col if col < self.columns else self.columns - 1
        row = 0 if row < 0 else row if row < self.rows else self.rows - 1
        return row * self.columns + col

    def boundary(self, shard: int) -> Rect:
        if not 0 <= shard < self.num_shards:
            raise IndexError(f"shard {shard} out of range (0..{self.num_shards - 1})")
        col = shard % self.columns
        row = shard // self.columns
        return Rect(
            col / self.columns,
            row / self.rows,
            (col + 1) / self.columns,
            (row + 1) / self.rows,
        )

    def to_spec(self) -> Dict[str, Any]:
        return {"kind": "grid", "columns": self.columns, "rows": self.rows}

    def describe(self) -> str:
        return f"grid {self.columns}x{self.rows}"


class BoundaryPartitioner(Partitioner):
    """Explicit boundary rectangles — the pluggable partition spec.

    The rectangles must jointly cover the unit square (a set that leaves a
    gap raises ``ValueError``), so every position has an owner whose
    boundary contains it — the invariant the kNN pruning bound relies on.
    A position belongs to the first rectangle that contains it (rectangles
    may share edges, as tiles do).  This is the escape hatch for skew-aware
    layouts: carve the hot region into many small shards and the cold
    remainder into few.
    """

    def __init__(self, boundaries: Sequence[Rect]) -> None:
        boxes = [rect.as_tuple() for rect in boundaries]
        read("partitioner", {"kind": "boundaries", "boundaries": boxes})
        gap = _coverage_gap(boundaries)
        if gap is not None:
            left, right, reach = gap
            raise ValueError(
                "partitioner.boundaries.boundaries must cover the unit square, "
                f"got none above y = {reach} for {left} < x < {right}"
            )
        self._boundaries = list(boundaries)

    @property
    def num_shards(self) -> int:
        return len(self._boundaries)

    def shard_of(self, point: Point) -> int:
        clamped = point.clamped()
        for shard, rect in enumerate(self._boundaries):
            if rect.contains_point(clamped):
                return shard
        raise ValueError(
            f"position {point!r} is not covered by any shard boundary"
        )

    def boundary(self, shard: int) -> Rect:
        return self._boundaries[shard]

    def to_spec(self) -> Dict[str, Any]:
        return {
            "kind": "boundaries",
            "boundaries": [list(rect.as_tuple()) for rect in self._boundaries],
        }

    def describe(self) -> str:
        return f"boundaries[{len(self._boundaries)}]"


def _coverage_gap(boxes: Sequence[Rect]) -> Optional[Tuple[float, float, float]]:
    """Where *boxes* leave part of the unit square uncovered, else ``None``.

    An x-slab sweep, O(n² log n) for n boxes: between consecutive x-edges
    the boxes spanning the whole slab must cover [0, 1] in y.  A gap is
    reported as ``(left, right, reach)``: in the slab ``left < x < right``
    the coverage from y = 0 stops at ``reach``.
    """
    edges = sorted(
        {0.0, 1.0}
        | {min(1.0, max(0.0, x)) for box in boxes for x in (box.xmin, box.xmax)}
    )
    for left, right in zip(edges, edges[1:]):
        reach = 0.0
        for low, high in sorted(
            (box.ymin, box.ymax) for box in boxes if box.xmin <= left and box.xmax >= right
        ):
            if low > reach:
                break
            reach = max(reach, high)
        if reach < 1.0:
            return left, right, reach
    return None


class QuantileGridPartitioner(BoundaryPartitioner):
    """A ``columns x rows`` grid with per-column quantile cuts, O(log n) routing.

    The shape the rebalancer's boundary planner emits: x-cuts split the unit
    square into columns and each column carries its own y-cuts.  The
    boundary rectangles (column-major: all rows of column 0 first) make this
    a :class:`BoundaryPartitioner`, but :meth:`shard_of` routes by bisecting
    the cut arrays instead of scanning every rectangle — the post-rebalance
    routing stays as cheap as the uniform grid it replaced.  A point exactly
    on an interior cut belongs to the lower/left cell, matching the
    first-containing-rectangle rule of the rectangle list.  Every cut list
    starts at 0.0, ends at 1.0 and never decreases, so the cells tile the
    unit square by construction.
    """

    def __init__(self, x_cuts: Sequence[float], y_cuts: Sequence[Sequence[float]]) -> None:
        read("partitioner", {"kind": "quantile_grid", "x_cuts": x_cuts, "y_cuts": y_cuts})
        if len(y_cuts) != len(x_cuts) - 1:
            raise ValueError("one y-cut list is required per column")
        rows = {len(cuts) - 1 for cuts in y_cuts}
        if len(rows) != 1:
            raise ValueError("every column must have the same number of rows")
        self._rows = rows.pop()
        check_shard_count("partitioner.quantile_grid cells", len(y_cuts) * self._rows)
        self._x_cuts = _cut_list("x_cuts", x_cuts)
        self._y_cuts = [
            _cut_list(f"y_cuts[{column}]", cuts) for column, cuts in enumerate(y_cuts)
        ]
        # The cut rule tiles the square, so the base class's sweep is skipped.
        self._boundaries = [
            Rect(
                self._x_cuts[column],
                column_cuts[row],
                self._x_cuts[column + 1],
                column_cuts[row + 1],
            )
            for column, column_cuts in enumerate(self._y_cuts)
            for row in range(self._rows)
        ]

    def shard_of(self, point: Point) -> int:
        clamped = point.clamped()
        # bisect_left over the interior cuts: a coordinate equal to a cut
        # lands in the lower/left cell, exactly like the first-containing
        # scan over the column-major rectangle list.
        column = bisect.bisect_left(self._x_cuts, clamped.x, 1, len(self._x_cuts) - 1) - 1
        column_cuts = self._y_cuts[column]
        row = bisect.bisect_left(column_cuts, clamped.y, 1, len(column_cuts) - 1) - 1
        return column * self._rows + row

    def to_spec(self) -> Dict[str, Any]:
        return {
            "kind": "quantile_grid",
            "x_cuts": list(self._x_cuts),
            "y_cuts": [list(cuts) for cuts in self._y_cuts],
        }

    def describe(self) -> str:
        return f"quantile grid {len(self._y_cuts)}x{self._rows}"


def _cut_list(name: str, cuts: Sequence[float]) -> List[float]:
    """*cuts* as floats; raises unless they run from 0.0 to 1.0, never decreasing."""
    values = [float(value) for value in cuts]
    if values[0] != 0.0 or values[-1] != 1.0 or values != sorted(values):
        raise ValueError(
            f"partitioner.quantile_grid.{name} must start at 0.0, end at 1.0 "
            f"and never decrease, got {list(cuts)!r}"
        )
    return values


def partitioner_from_spec(spec: Any) -> Partitioner:
    """Rebuild a partitioner from its :meth:`~Partitioner.to_spec` dict.

    The spec is read against its kind's keys in
    :data:`repro.api.schema.SPEC_KEYS`: a spec that is not a mapping, names
    an unknown kind, or lacks, mistypes or adds a key raises ``ValueError``.
    """
    data = read("partitioner", spec)
    if data["kind"] == "grid":
        return GridPartitioner(columns=data["columns"], rows=data["rows"])
    if data["kind"] == "boundaries":
        return BoundaryPartitioner([Rect(*values) for values in data["boundaries"]])
    return QuantileGridPartitioner(data["x_cuts"], data["y_cuts"])
