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

Two interchangeable backends are provided:

* ``"python"`` — pure-Python loops; always available, the default.
* ``"numpy"`` — vectorised implementations used when numpy is installed and
  the backend is selected via :func:`set_backend` or the
  ``REPRO_KERNEL_BACKEND`` environment variable.  IEEE-754 elementwise
  semantics make the results identical to the Python backend.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence, Tuple

from repro.geometry.rect import Rect

#: Flat coordinate buffer ``[xmin, ymin, xmax, ymax] * n`` (``array('d')``,
#: list, or any float sequence).
CoordBuffer = Sequence[float]

Bounds = Tuple[float, float, float, float]

_PYTHON = "python"
_NUMPY = "numpy"

_backend: str = _PYTHON
_np: Optional[Any] = None


def _load_numpy() -> Optional[Any]:
    """Import numpy once; ``None`` when unavailable (pure-Python fallback)."""
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:  # pragma: no cover - depends on environment
            return None
        _np = numpy
    return _np


def available_backends() -> List[str]:
    """Backends usable in this environment (``"python"`` is always present)."""
    backends = [_PYTHON]
    if _load_numpy() is not None:
        backends.append(_NUMPY)
    return backends


def set_backend(name: str) -> str:
    """Select the kernel backend; returns the backend actually in effect.

    Requesting ``"numpy"`` when numpy is not importable falls back to
    ``"python"`` (the pure-Python implementation is mandatory, the fast path
    optional).  Unknown names raise ``ValueError``.
    """
    global _backend
    if name not in (_PYTHON, _NUMPY):
        raise ValueError(f"unknown kernel backend: {name!r}")
    if name == _NUMPY and _load_numpy() is None:
        name = _PYTHON
    _backend = name
    return _backend


def get_backend() -> str:
    """Name of the backend currently in effect."""
    return _backend


def entry_count(coords: CoordBuffer) -> int:
    """Number of rectangles in the buffer."""
    return len(coords) // 4


def _as_ndarray(coords: CoordBuffer) -> Any:
    np = _np
    assert np is not None
    try:
        # Zero-copy view for array('d') / memoryview / bytes-backed buffers.
        return np.frombuffer(coords, dtype=np.float64).reshape(-1, 4)  # type: ignore[arg-type]
    except (TypeError, AttributeError, ValueError):
        return np.asarray(coords, dtype=np.float64).reshape(-1, 4)


# ---------------------------------------------------------------------------
# union_bounds — AdjustTree / Node.mbr()
# ---------------------------------------------------------------------------
def union_bounds(coords: CoordBuffer) -> Bounds:
    """Bounds of the union of every rectangle in the buffer.

    Mirrors :func:`repro.geometry.rect.union_all` (comparison-only min/max,
    so the result is exact).  Raises ``ValueError`` on an empty buffer — an
    R-tree node never has an empty MBR.
    """
    n = len(coords)
    if n == 0:
        raise ValueError("union_bounds() requires at least one rectangle")
    if _backend == _NUMPY:
        rects = _as_ndarray(coords)
        lo = rects[:, :2].min(axis=0)
        hi = rects[:, 2:].max(axis=0)
        return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
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

    Mirrors :meth:`Rect.intersects`.
    """
    if _backend == _NUMPY:
        np = _np
        assert np is not None
        rects = _as_ndarray(coords)
        mask = ~(
            (rects[:, 2] < xmin)
            | (xmax < rects[:, 0])
            | (rects[:, 3] < ymin)
            | (ymax < rects[:, 1])
        )
        return [int(i) for i in np.flatnonzero(mask)]
    hits: List[int] = []
    append = hits.append
    for index in range(0, len(coords), 4):
        if not (
            coords[index + 2] < xmin
            or xmax < coords[index]
            or coords[index + 3] < ymin
            or ymax < coords[index + 1]
        ):
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
    """
    if _backend == _NUMPY:
        np = _np
        assert np is not None
        rects = _as_ndarray(coords)
        mask = ~(
            (rects[:, 2] < xmin)
            | (xmax < rects[:, 0])
            | (rects[:, 3] < ymin)
            | (ymax < rects[:, 1])
        )
        return [int(ids[int(i)]) for i in np.flatnonzero(mask)]
    hits: List[int] = []
    append = hits.append
    for index in range(0, len(coords), 4):
        if not (
            coords[index + 2] < xmin
            or xmax < coords[index]
            or coords[index + 3] < ymin
            or ymax < coords[index + 1]
        ):
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
    if _backend == _NUMPY:
        np = _np
        assert np is not None
        rects = _as_ndarray(coords)
        mask = (
            (xmin <= rects[:, 0])
            & (ymin <= rects[:, 1])
            & (xmax >= rects[:, 2])
            & (ymax >= rects[:, 3])
        )
        return [int(i) for i in np.flatnonzero(mask)]
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
    if _backend == _NUMPY:
        np = _np
        assert np is not None
        rects = _as_ndarray(coords)
        mask = (
            (rects[:, 0] <= x)
            & (x <= rects[:, 2])
            & (rects[:, 1] <= y)
            & (y <= rects[:, 3])
        )
        return [int(i) for i in np.flatnonzero(mask)]
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
    if _backend == _NUMPY:
        np = _np
        assert np is not None
        rects = _as_ndarray(coords)
        mask = (
            (rects[:, 0] <= x)
            & (x <= rects[:, 2])
            & (rects[:, 1] <= y)
            & (y <= rects[:, 3])
        )
        return [int(ids[int(i)]) for i in np.flatnonzero(mask)]
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
    if _backend == _NUMPY:
        np = _np
        assert np is not None
        rects = _as_ndarray(coords)
        uw = np.maximum(rects[:, 2], xmax) - np.minimum(rects[:, 0], xmin)
        uh = np.maximum(rects[:, 3], ymax) - np.minimum(rects[:, 1], ymin)
        area = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])
        return [float(v) for v in uw * uh - area]
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
    n = entry_count(coords)
    if n == 0:
        raise ValueError("argmin_enlargement() requires at least one rectangle")
    if _backend == _NUMPY:
        np = _np
        assert np is not None
        rects = _as_ndarray(coords)
        uw = np.maximum(rects[:, 2], xmax) - np.minimum(rects[:, 0], xmin)
        uh = np.maximum(rects[:, 3], ymax) - np.minimum(rects[:, 1], ymin)
        areas = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])
        enlargements = uw * uh - areas
        candidates = np.flatnonzero(enlargements == enlargements.min())
        # argmin returns the first minimum, preserving first-wins semantics.
        return int(candidates[int(np.argmin(areas[candidates]))])
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
    if _backend == _NUMPY:
        np = _np
        assert np is not None
        rects = _as_ndarray(coords)
        dx = np.maximum(np.maximum(rects[:, 0] - x, 0.0), x - rects[:, 2])
        dy = np.maximum(np.maximum(rects[:, 1] - y, 0.0), y - rects[:, 3])
        # The square root goes through Python's scalar ``** 0.5`` (libm pow),
        # not np.sqrt: the two can disagree in the last ULP, and the contract
        # is bit-exact agreement with Rect.min_distance_to_point.  The
        # clamped differences, squares and sum above are exactly-rounded
        # IEEE ops, so they already match the scalar path bit for bit;
        # ``tolist`` hands them over as Python floats in one call.
        return [v**0.5 for v in (dx * dx + dy * dy).tolist()]
    out: List[float] = []
    append = out.append
    it = iter(coords)
    for exmin, eymin, exmax, eymax in zip(it, it, it, it):
        dx = exmin - x if x < exmin else x - exmax if x > exmax else 0.0
        dy = eymin - y if y < eymin else y - eymax if y > eymax else 0.0
        append((dx * dx + dy * dy) ** 0.5)
    return out


# Honour the environment override once at import; a bad value degrades to the
# pure-Python backend rather than failing module import.
_env_backend = os.environ.get("REPRO_KERNEL_BACKEND", "").strip().lower()
if _env_backend in (_PYTHON, _NUMPY):
    set_backend(_env_backend)
