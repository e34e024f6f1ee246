"""Batch geometric kernels over packed coordinate buffers.

An R-tree node (:class:`repro.rtree.node.Node`) stores the MBRs of its
entries as one flat coordinate buffer::

    [xmin0, ymin0, xmax0, ymax0, xmin1, ymin1, xmax1, ymax1, ...]

(typically an ``array('d')``).  The kernels in this module sweep such a buffer
in a single pass, replacing per-entry ``Rect`` method calls on the R-tree hot
paths — ChooseLeaf enlargement scans, range-query intersection filters,
best-first kNN distance batches, and the bottom-up strategies'
shift-candidate scans.

Every kernel is defined to agree **exactly** (bit-for-bit, not approximately)
with the scalar :class:`~repro.geometry.rect.Rect` predicates: the arithmetic
mirrors the scalar formulas operation for operation, so a sweep over a node's
buffer answers exactly what the per-entry ``Rect`` calls would.  The property
suite in ``tests/test_geometry_kernels.py`` enforces this contract.

Precondition: every coordinate in a buffer and every query operand is
finite, and every rectangle is ordered (``xmin <= xmax``, ``ymin <= ymax``).
The typed operations (:mod:`repro.api.operations`) and the facade's
``insert``/``update`` reject NaN and infinite coordinates before they reach
a tree, and ``Rect`` rejects unordered bounds; the intersection kernels rely
on the precondition to skip reading an entry's far corner.

There is one implementation, in pure Python: at the node sizes the paper's
1 KB pages produce (at most 49 entries, about 30 per call in the benchmark
workloads) a vectorised sweep costs more to set up than the loop it
replaces.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry.rect import Rect

#: Flat coordinate buffer ``[xmin, ymin, xmax, ymax] * n`` (``array('d')``,
#: list, or any float sequence).
CoordBuffer = Sequence[float]

Bounds = Tuple[float, float, float, float]


def set_backend(name: str) -> str:
    """Check that *name* is ``"python"``, the one kernel implementation; return it.

    Kept for callers that pin the backend by name (the end-to-end benchmark
    harness does); any other name raises ``ValueError``.
    """
    if name != "python":
        raise ValueError(f"unknown kernel backend: {name!r}")
    return name


def entry_count(coords: CoordBuffer) -> int:
    """Number of rectangles in the buffer."""
    return len(coords) // 4


# ---------------------------------------------------------------------------
# union_bounds — AdjustTree / Node.mbr()
# ---------------------------------------------------------------------------
def union_bounds(coords: CoordBuffer) -> Bounds:
    """Bounds of the union of every rectangle in the buffer.

    Mirrors :func:`repro.geometry.rect.union_all` (comparison-only min/max,
    so the result is exact).  Raises ``ValueError`` on an empty buffer — an
    R-tree node never has an empty MBR.
    """
    if len(coords) == 0:
        raise ValueError("union_bounds() requires at least one rectangle")
    it = iter(coords)
    xmin, ymin, xmax, ymax = next(it), next(it), next(it), next(it)
    for exmin, eymin, exmax, eymax in zip(it, it, it, it):
        if exmin < xmin:
            xmin = exmin
        if eymin < ymin:
            ymin = eymin
        if exmax > xmax:
            xmax = exmax
        if eymax > ymax:
            ymax = eymax
    return (xmin, ymin, xmax, ymax)


def union_rect(coords: CoordBuffer) -> Rect:
    """:func:`union_bounds` packaged as a :class:`Rect`."""
    xmin, ymin, xmax, ymax = union_bounds(coords)
    return Rect._raw(xmin, ymin, xmax, ymax)


# ---------------------------------------------------------------------------
# intersects_many — range queries / FindLeaf
# ---------------------------------------------------------------------------
def intersects_many(
    coords: CoordBuffer, xmin: float, ymin: float, xmax: float, ymax: float
) -> List[int]:
    """Indices of rectangles overlapping the window (boundary touch counts).

    Mirrors :meth:`Rect.intersects` with :func:`intersects_ids`'s lazy reads.
    """
    hits: List[int] = []
    append = hits.append
    for index in range(0, len(coords), 4):
        x = coords[index]
        if x > xmax or (x < xmin and coords[index + 2] < xmin):
            continue
        y = coords[index + 1]
        if y > ymax or (y < ymin and coords[index + 3] < ymin):
            continue
        append(index >> 2)
    return hits


def intersects_ids(
    coords: CoordBuffer,
    ids: Sequence[int],
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
) -> List[int]:
    """``ids[i]`` for every rectangle ``i`` overlapping the window.

    Gather variant of :func:`intersects_many`: one pass over the buffer that
    collects the matching entry ids directly, skipping the intermediate index
    list (node scans always want the ids, not the positions).

    An entry's far corner is read only when its near one cannot decide: a
    rectangle whose ``xmin`` lies right of the window is out, one whose
    ``xmin`` lies inside the window's x-span overlaps it in x, and only an
    ``xmin`` left of the window needs ``xmax`` (the same for y).  For a
    moving point inside the window that is two reads instead of four.  This
    agrees with :meth:`Rect.intersects` for every entry whose coordinates
    are finite and ordered (``xmin <= xmax``, ``ymin <= ymax``) — the
    module's precondition.
    """
    hits: List[int] = []
    append = hits.append
    for index in range(0, len(coords), 4):
        x = coords[index]
        if x > xmax or (x < xmin and coords[index + 2] < xmin):
            continue
        y = coords[index + 1]
        if y > ymax or (y < ymin and coords[index + 3] < ymin):
            continue
        append(ids[index >> 2])
    return hits


# ---------------------------------------------------------------------------
# contained_in_many — piggyback eligibility scans (LBU/GBU)
# ---------------------------------------------------------------------------
def contained_in_many(
    coords: CoordBuffer, xmin: float, ymin: float, xmax: float, ymax: float
) -> List[int]:
    """Indices of rectangles lying entirely inside the window.

    Mirrors :meth:`Rect.contains_rect` with the window as the container.
    """
    hits: List[int] = []
    append = hits.append
    for index in range(0, len(coords), 4):
        if (
            xmin <= coords[index]
            and ymin <= coords[index + 1]
            and xmax >= coords[index + 2]
            and ymax >= coords[index + 3]
        ):
            append(index >> 2)
    return hits


# ---------------------------------------------------------------------------
# contains_point_many — shift-candidate scans (LBU/GBU)
# ---------------------------------------------------------------------------
def contains_point_many(coords: CoordBuffer, x: float, y: float) -> List[int]:
    """Indices of rectangles containing the point (boundary inclusive).

    Mirrors :meth:`Rect.contains_point`.
    """
    hits: List[int] = []
    append = hits.append
    for index in range(0, len(coords), 4):
        if (
            coords[index] <= x <= coords[index + 2]
            and coords[index + 1] <= y <= coords[index + 3]
        ):
            append(index >> 2)
    return hits


def contains_point_ids(
    coords: CoordBuffer, ids: Sequence[int], x: float, y: float
) -> List[int]:
    """``ids[i]`` for every rectangle ``i`` containing the point.

    Gather variant of :func:`contains_point_many` (see :func:`intersects_ids`).
    """
    hits: List[int] = []
    append = hits.append
    for index in range(0, len(coords), 4):
        if (
            coords[index] <= x <= coords[index + 2]
            and coords[index + 1] <= y <= coords[index + 3]
        ):
            append(ids[index >> 2])
    return hits


# ---------------------------------------------------------------------------
# enlargement_many / argmin_enlargement — Guttman's ChooseLeaf
# ---------------------------------------------------------------------------
def enlargement_many(
    coords: CoordBuffer, xmin: float, ymin: float, xmax: float, ymax: float
) -> List[float]:
    """Area increase each rectangle needs to cover the query rectangle.

    Mirrors :meth:`Rect.enlargement_to_include`:
    ``union(self, other).area() - self.area()`` with the identical operation
    order, so the floats match the scalar path bit for bit.
    """
    out: List[float] = []
    append = out.append
    # One pass of 4-way unpacking beats stride-4 indexing when every
    # coordinate is consumed (unlike the short-circuiting predicate scans).
    it = iter(coords)
    for exmin, eymin, exmax, eymax in zip(it, it, it, it):
        union_w = (exmax if exmax > xmax else xmax) - (exmin if exmin < xmin else xmin)
        union_h = (eymax if eymax > ymax else ymax) - (eymin if eymin < ymin else ymin)
        append(union_w * union_h - (exmax - exmin) * (eymax - eymin))
    return out


def argmin_enlargement(
    coords: CoordBuffer, xmin: float, ymin: float, xmax: float, ymax: float
) -> int:
    """Index of the ChooseLeaf winner: least enlargement, ties by least area.

    First-wins on exact ties, matching the sequential scan in
    ``RTree._choose_subtree``.  Raises ``ValueError`` on an empty buffer.
    """
    if entry_count(coords) == 0:
        raise ValueError("argmin_enlargement() requires at least one rectangle")
    best_index = 0
    best_enlargement = float("inf")
    best_area = float("inf")
    index = 0
    it = iter(coords)
    for exmin, eymin, exmax, eymax in zip(it, it, it, it):
        area = (exmax - exmin) * (eymax - eymin)
        union_w = (exmax if exmax > xmax else xmax) - (exmin if exmin < xmin else xmin)
        union_h = (eymax if eymax > ymax else ymax) - (eymin if eymin < ymin else ymin)
        enlargement = union_w * union_h - area
        if enlargement < best_enlargement or (
            enlargement == best_enlargement and area < best_area
        ):
            best_enlargement = enlargement
            best_area = area
            best_index = index
        index += 1
    return best_index


# ---------------------------------------------------------------------------
# min_distance_many — best-first kNN
# ---------------------------------------------------------------------------
def min_distance_many(coords: CoordBuffer, x: float, y: float) -> List[float]:
    """Minimum Euclidean distance from the point to each rectangle.

    Mirrors :meth:`Rect.min_distance_to_point` (``(dx*dx + dy*dy) ** 0.5``
    with clamped axis distances); zero when the point lies inside.  The
    clamp ``max(lo - v, 0.0, v - hi)`` is spelled as the comparison that
    picks its winner — for ``lo <= hi`` at most one of the two differences
    is positive — which selects the very same float without two builtin
    calls per entry.
    """
    out: List[float] = []
    append = out.append
    it = iter(coords)
    for exmin, eymin, exmax, eymax in zip(it, it, it, it):
        dx = exmin - x if x < exmin else x - exmax if x > exmax else 0.0
        dy = eymin - y if y < eymin else y - eymax if y > eymax else 0.0
        append((dx * dx + dy * dy) ** 0.5)
    return out

